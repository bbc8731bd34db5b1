"""Tests for configuration validation and paper defaults."""

import pytest

from repro.common.config import DeltaCFSConfig
from repro.core.client import INPLACE_DELTA_THRESHOLD


class TestPaperDefaults:
    def test_block_size_is_4k(self):
        assert DeltaCFSConfig().block_size == 4096

    def test_relation_timeout_in_paper_range(self):
        # "the period can be empirically set in a range of 1 to 3 seconds"
        assert 1.0 <= DeltaCFSConfig().relation_timeout <= 3.0

    def test_upload_delay_matches_figure6(self):
        assert DeltaCFSConfig().upload_delay == 3.0

    def test_inplace_threshold_is_half(self):
        assert INPLACE_DELTA_THRESHOLD == 0.5


class TestValidation:
    def test_default_is_valid(self):
        DeltaCFSConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("block_size", 0),
            ("block_size", -4096),
            ("relation_timeout", 0.0),
            ("upload_delay", -1.0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        config = DeltaCFSConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()
