"""Memory region specs: capacity, bandwidth and latency."""

import pytest

from repro.hw import (
    MemorySpec,
    accumulator_spec,
    hbm_spec,
    host_link_spec,
    unified_buffer_spec,
)


class TestSpec:
    def test_transfer_time_formula(self):
        spec = MemorySpec("m", 100, bandwidth_bytes_per_sec=50.0, latency_sec=1.0)
        assert spec.transfer_seconds(100) == pytest.approx(1.0 + 2.0)

    def test_zero_bytes_is_free(self):
        assert hbm_spec().transfer_seconds(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            hbm_spec().transfer_seconds(-1)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            MemorySpec("m", 0, 1.0)
        with pytest.raises(ValueError):
            MemorySpec("m", 10, -1.0)
        with pytest.raises(ValueError):
            MemorySpec("m", 10, 1.0, latency_sec=-0.1)

    def test_presets_have_sane_shapes(self):
        assert hbm_spec().capacity_bytes == 8 * 1024**3
        assert unified_buffer_spec().capacity_bytes == 24 * 1024**2
        assert accumulator_spec().capacity_bytes > 0
        assert host_link_spec().bandwidth_bytes_per_sec < hbm_spec().bandwidth_bytes_per_sec
