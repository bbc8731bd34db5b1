"""Tests for the channel byte accounting and transfer-time model."""

import pytest

from repro.cost.meter import CostMeter
from repro.net.messages import Ack, UploadFull, UploadWrite
from repro.net.transport import (
    Channel,
    MOBILE_NETWORK,
    NetworkModel,
    PC_NETWORK,
)


class TestAccounting:
    def test_upload_counts_bytes_and_messages(self):
        channel = Channel()
        msg = UploadFull(path="/f", data=b"x" * 1000)
        channel.upload(msg)
        assert channel.stats.up_bytes == msg.wire_size()
        assert channel.stats.up_messages == 1
        assert channel.stats.down_bytes == 0

    def test_download_counts_separately(self):
        channel = Channel()
        channel.download(Ack(path="/f"))
        assert channel.stats.down_messages == 1
        assert channel.stats.up_messages == 0

    def test_total(self):
        channel = Channel()
        channel.upload(Ack())
        channel.download(Ack())
        assert channel.stats.total_bytes == channel.stats.up_bytes + channel.stats.down_bytes


class TestCpuCharging:
    def test_both_ends_charged(self):
        cm, sm = CostMeter(), CostMeter()
        channel = Channel(client_meter=cm, server_meter=sm)
        channel.upload(UploadFull(path="/f", data=b"x" * 10000))
        assert cm.by_category["network_send"] > 0
        assert sm.by_category["network_recv"] > 0

    def test_encryption_charged_when_enabled(self):
        cm = CostMeter()
        channel = Channel(client_meter=cm)
        channel.upload(UploadFull(path="/f", data=b"x" * 10000))
        assert cm.by_category["encrypt"] > 0

    def test_no_encryption_for_plain_links(self):
        cm = CostMeter()
        channel = Channel(model=NetworkModel(encrypted=False), client_meter=cm)
        channel.upload(UploadFull(path="/f", data=b"x" * 10000))
        assert cm.by_category.get("encrypt", 0) == 0


@pytest.mark.parametrize("model", [PC_NETWORK, NetworkModel(encrypted=False)])
@pytest.mark.parametrize("shared", [False, True], ids=["two meters", "one meter"])
def test_a_transfer_charges_what_the_four_explicit_calls_charge(model, shared):
    # Each end's network stack, then its encryption; the sender before the
    # receiver. ``model_ticks`` is a float sum, so the order is the contract.
    client = CostMeter()
    server = client if shared else CostMeter()
    channel = Channel(model, client_meter=client, server_meter=server)
    want_client = CostMeter()
    want_server = want_client if shared else CostMeter()

    def charge(sender, receiver, size):
        sender.charge_bytes("network_send", size)
        if model.encrypted:
            sender.charge_bytes("encrypt", size)
        receiver.charge_bytes("network_recv", size)
        if model.encrypted:
            receiver.charge_bytes("encrypt", size)

    for length in (1, 333, 4097, 65_537, 1_000_003):
        message = UploadWrite(path="/f", offset=length, data=b"x" * length)
        channel.upload(message)
        charge(want_client, want_server, message.wire_size())
        channel.download(message)
        charge(want_server, want_client, message.wire_size())
    for meter, want in ((client, want_client), (server, want_server)):
        assert meter.by_category == want.by_category
        assert meter.bytes_by_category == want.bytes_by_category
        assert repr(meter.total) == repr(want.total)


class TestTransferTime:
    def test_completion_after_latency(self):
        channel = Channel(model=NetworkModel(bandwidth_up=1e6, latency=0.1))
        done = channel.upload(UploadFull(path="/f", data=b"x" * 1_000_000), now=0.0)
        assert done > 1.0  # ~1s transfer + 0.1s latency

    def test_back_to_back_transfers_queue(self):
        channel = Channel(model=NetworkModel(bandwidth_up=1e6, latency=0.0))
        first = channel.upload(UploadFull(path="/a", data=b"x" * 500_000), now=0.0)
        second = channel.upload(UploadFull(path="/b", data=b"x" * 500_000), now=0.0)
        assert second > first  # serialized on the uplink

    def test_idle_detection(self):
        channel = Channel(model=NetworkModel(bandwidth_up=1e3))
        assert channel.upload_idle_at(0.0)
        channel.upload(UploadFull(path="/f", data=b"x" * 10_000), now=0.0)
        assert not channel.upload_idle_at(1.0)  # 10s of transfer queued
        assert channel.upload_idle_at(100.0)

    def test_mobile_slower_than_pc(self):
        pc = Channel(model=PC_NETWORK)
        mobile = Channel(model=MOBILE_NETWORK)
        msg = UploadFull(path="/f", data=b"x" * 1_000_000)
        assert mobile.upload(msg, 0.0) > pc.upload(msg, 0.0)

    def test_directions_independent(self):
        channel = Channel(model=NetworkModel(bandwidth_up=1e3, bandwidth_down=1e9))
        channel.upload(UploadFull(path="/f", data=b"x" * 100_000), now=0.0)
        # a busy uplink does not delay downloads
        done = channel.download(Ack(), now=0.0)
        assert done < 1.0


class TestDownlinkIdleApi:
    # Symmetric to upload_idle_at/up_busy_until: the fullsync idle-link
    # gate and the reliable transport both need downlink visibility.

    def test_download_idle_detection(self):
        channel = Channel(model=NetworkModel(bandwidth_down=1e3))
        assert channel.download_idle_at(0.0)
        channel.download(Ack(path="/f"), now=0.0)
        assert not channel.download_idle_at(0.001)
        assert channel.download_idle_at(100.0)

    def test_down_busy_until_tracks_transfers(self):
        channel = Channel(model=NetworkModel(bandwidth_down=1e6, latency=0.0))
        assert channel.down_busy_until == 0.0
        channel.download(Ack(path="/f"), now=0.0)
        first = channel.down_busy_until
        assert first > 0.0
        channel.download(Ack(path="/f"), now=0.0)
        assert channel.down_busy_until > first  # serialized

    def test_directions_tracked_independently(self):
        channel = Channel(model=NetworkModel(bandwidth_up=1e3, bandwidth_down=1e9))
        channel.upload(UploadFull(path="/f", data=b"x" * 100_000), now=0.0)
        assert not channel.upload_idle_at(1.0)
        assert channel.download_idle_at(1.0)
