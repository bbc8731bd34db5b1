"""Tests for CPU-tick metering."""

from dataclasses import fields

import pytest

from repro.cost.meter import CostMeter, NULL_METER
from repro.cost.profile import CostProfile, MOBILE_PROFILE, PC_PROFILE


class TestCharging:
    def test_per_byte_charge(self):
        meter = CostMeter()
        ticks = meter.charge_bytes("rolling_checksum", 1024 * 1024)
        assert ticks == pytest.approx(PC_PROFILE.rolling_checksum)
        assert meter.total == pytest.approx(ticks)

    def test_accumulates_by_category(self):
        meter = CostMeter()
        meter.charge_bytes("encrypt", 100)
        meter.charge_bytes("encrypt", 200)
        assert meter.bytes_by_category["encrypt"] == 300

    def test_op_overhead(self):
        meter = CostMeter()
        meter.charge_ops(10)
        assert meter.total == pytest.approx(10 * PC_PROFILE.op_overhead)

    def test_negative_rejected(self):
        meter = CostMeter()
        with pytest.raises(ValueError):
            meter.charge_bytes("encrypt", -1)
        with pytest.raises(ValueError):
            meter.charge_ops(-1)

    def test_reset(self):
        meter = CostMeter()
        meter.charge_bytes("compress", 1000)
        meter.reset()
        assert meter.total == 0.0
        assert meter.by_category == {}

    def test_merge(self):
        a, b = CostMeter(), CostMeter()
        a.charge_bytes("encrypt", 100)
        b.charge_bytes("encrypt", 200)
        b.charge_bytes("compress", 50)
        a.merge(b)
        assert a.bytes_by_category["encrypt"] == 300
        assert a.bytes_by_category["compress"] == 50

    def test_unknown_category_raises(self):
        meter = CostMeter()
        with pytest.raises(AttributeError):
            meter.charge_bytes("not_a_category", 10)

    @pytest.mark.parametrize("times", [1, 3, 449])
    def test_repeat_adds_the_floats_of_repeated_charges(self, times):
        single, batched = CostMeter(), CostMeter()
        for meter in (single, batched):
            meter.charge_bytes("bitwise_compare", 777)  # an odd running total
        for _ in range(times):
            single.charge_bytes("bitwise_compare", 4096)
        before = batched.total
        added = batched.charge_repeat("bitwise_compare", 4096, times)
        assert repr(batched.total) == repr(single.total)
        assert batched.bytes_by_category == single.bytes_by_category
        assert added == batched.total - before

    def test_repeat_of_nothing_leaves_no_category(self):
        meter = CostMeter()
        assert meter.charge_repeat("bitwise_compare", 4096, 0) == 0.0
        assert meter.bytes_by_category == {} and meter.by_category == {}
        with pytest.raises(ValueError):
            meter.charge_repeat("bitwise_compare", 4096, -1)


class TestNullMeter:
    def test_discards_everything(self):
        NULL_METER.charge_bytes("encrypt", 1_000_000)
        NULL_METER.charge_repeat("encrypt", 1_000_000, 5)
        NULL_METER.charge_ops(1000)
        assert NULL_METER.total == 0.0

    def test_still_validates(self):
        with pytest.raises(ValueError):
            NULL_METER.charge_bytes("encrypt", -1)
        with pytest.raises(ValueError):
            NULL_METER.charge_repeat("encrypt", 1, -1)

    @pytest.mark.parametrize("meter", [CostMeter(), NULL_METER], ids=["real", "null"])
    def test_rejects_what_a_real_meter_rejects(self, meter):
        # A typo on a path only unmetered clients run must not go unnoticed.
        with pytest.raises(ValueError):
            meter.charge_ops(-3)
        with pytest.raises(AttributeError):
            meter.charge_bytes("not_a_category", 10)
        with pytest.raises(AttributeError):
            meter.charge_repeat("not_a_category", 10, 2)
        with pytest.raises(AttributeError):
            meter.charge_bytes("name", 10)  # a profile field, not a rate
        assert meter.charge_repeat("not_a_category", 10, 0) == 0.0


class TestProfiles:
    def test_mobile_scales_everything_up(self):
        assert MOBILE_PROFILE.rolling_checksum > PC_PROFILE.rolling_checksum
        assert MOBILE_PROFILE.network_send > PC_PROFILE.network_send

    def test_relative_costs_match_paper_premises(self):
        # strong checksum (MD5) must dominate; bitwise compare must be the
        # cheapest; CDC cheaper than rolling+strong (Seafile < Dropbox)
        p = PC_PROFILE
        assert p.strong_checksum > p.rolling_checksum > p.bitwise_compare
        assert p.cdc_chunking < p.rolling_checksum + p.strong_checksum

    def test_scaled_profile_has_name(self):
        scaled = PC_PROFILE.scaled(2.0, name="double")
        assert scaled.name == "double"
        assert scaled.encrypt == pytest.approx(PC_PROFILE.encrypt * 2)

    def test_scaled_scales_every_rate(self):
        numeric = [f.name for f in fields(CostProfile) if f.type == "float"]
        assert sorted(PC_PROFILE.rates()) == sorted(numeric)
        scaled = PC_PROFILE.scaled(3.0, name="triple")
        for name in numeric:
            assert getattr(scaled, name) == getattr(PC_PROFILE, name) * 3.0, name

    def test_per_byte_helper(self):
        assert PC_PROFILE.per_byte("encrypt", 1024 * 1024) == pytest.approx(
            PC_PROFILE.encrypt
        )
