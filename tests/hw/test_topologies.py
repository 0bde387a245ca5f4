"""Torus topology and HBM capacity failure injection."""

import numpy as np
import pytest

from repro.hw import (
    Interconnect,
    InterconnectConfig,
    MemoryCapacityError,
    MxuConfig,
    TpuCore,
    TpuCoreConfig,
    hbm_spec,
    unified_buffer_spec,
)
from repro.hw.interconnect import _near_square_side


class TestNearSquareSide:
    def test_perfect_squares(self):
        assert _near_square_side(16) == 4
        assert _near_square_side(64) == 8

    def test_rectangles(self):
        assert _near_square_side(128) == 8  # 8 x 16 grid
        assert _near_square_side(12) == 3  # 3 x 4 grid

    def test_primes_degenerate_to_line(self):
        assert _near_square_side(7) == 1

    def test_one(self):
        assert _near_square_side(1) == 1


class TestTorusAllReduce:
    def fabric(self, topology, latency=1e-6, bandwidth=496e9):
        return Interconnect(
            InterconnectConfig(
                link_bandwidth_bytes_per_sec=bandwidth,
                link_latency_sec=latency,
                topology=topology,
            )
        )

    def test_torus_beats_ring_at_high_core_counts(self):
        """2*sqrt(p) hops vs 2*p hops: the latency term's whole point."""
        nbytes = 1 << 20
        ring = self.fabric("ring").all_reduce_seconds(nbytes, 128)
        torus = self.fabric("torus2d").all_reduce_seconds(nbytes, 128)
        assert torus < ring

    def test_ring_competitive_at_low_core_counts(self):
        nbytes = 64 << 20  # large payload: bandwidth dominated
        ring = self.fabric("ring", latency=0.0).all_reduce_seconds(nbytes, 4)
        torus = self.fabric("torus2d", latency=0.0).all_reduce_seconds(nbytes, 4)
        # With zero latency both are within a small factor.
        assert torus < 2.0 * ring

    def test_torus_degenerate_cases(self):
        fabric = self.fabric("torus2d")
        assert fabric.all_reduce_seconds(1000, 1) == 0.0
        assert fabric.all_reduce_seconds(0, 16) == 0.0

    def test_prime_core_count_falls_back_to_line(self):
        fabric = self.fabric("torus2d")
        # 7 cores -> 1 x 7 grid: one ring phase over 7 plus a no-op.
        prime = fabric.all_reduce_seconds(1 << 20, 7)
        ring = self.fabric("ring").all_reduce_seconds(1 << 20, 7)
        assert prime == pytest.approx(ring, rel=0.01)

    def test_latency_scaling(self):
        """Torus latency term ~ 2*(2*(sqrt(p)-1)) hops."""
        fabric = self.fabric("torus2d", latency=1e-3, bandwidth=1e15)
        t = fabric.all_reduce_seconds(8, 16)  # negligible transfer
        assert t == pytest.approx(2 * (2 * 3) * 1e-3, rel=0.01)


class TestHbmCapacityInjection:
    def tiny_core(self, capacity=1 << 16, precision="fp32"):
        return TpuCore(
            TpuCoreConfig(
                mxu=MxuConfig(rows=8, cols=8, precision=precision),
                hbm_capacity_bytes=capacity,
            )
        )

    def test_oversized_working_set_raises(self):
        core = self.tiny_core(capacity=1 << 10)  # 1 KiB slice
        with pytest.raises(MemoryCapacityError, match="working set"):
            core.matmul(np.ones((64, 64)), np.ones((64, 64)))

    def test_error_names_shape_and_precision(self):
        core = self.tiny_core(capacity=1 << 10)
        with pytest.raises(MemoryCapacityError, match="64x64.*fp32"):
            core.matmul(np.ones((64, 64)), np.ones((64, 64)))

    def test_fitting_working_set_passes(self):
        core = self.tiny_core(capacity=1 << 20)
        result = core.matmul(np.ones((8, 8)), np.ones((8, 8)))
        np.testing.assert_allclose(result, np.full((8, 8), 8.0), atol=1e-9)

    def test_complex_operands_double_the_footprint(self):
        # Real fits, complex (two planes) does not.
        capacity = 4 * 3 * 24 * 24 + 100
        core = self.tiny_core(capacity=capacity)
        core.matmul(np.ones((24, 24)), np.ones((24, 24)))  # fits
        with pytest.raises(MemoryCapacityError):
            core.matmul(np.ones((24, 24)) + 0j, np.ones((24, 24)))

    def test_int8_mode_fits_more(self):
        capacity = 3 * 32 * 32 + 10  # 1 byte per element
        int8_core = self.tiny_core(capacity=capacity, precision="int8")
        int8_core.matmul(np.ones((32, 32)), np.ones((32, 32)))  # fits
        fp32_core = self.tiny_core(capacity=capacity, precision="fp32")
        with pytest.raises(MemoryCapacityError):
            fp32_core.matmul(np.ones((32, 32)), np.ones((32, 32)))

    @pytest.mark.parametrize("complex_values", (False, True))
    @pytest.mark.parametrize("precision, bytes_per_element", (
        ("int8", 1), ("bf16", 2), ("fp32", 4),
    ))
    def test_exact_fit_passes_and_one_byte_over_raises(
        self, precision, bytes_per_element, complex_values
    ):
        m, k, n = 12, 8, 10
        a = np.ones((m, k)) + (1j if complex_values else 0)
        b = np.ones((k, n))
        planes = 2 if complex_values else 1
        working_set = planes * bytes_per_element * (m * k + k * n + m * n)
        self.tiny_core(capacity=working_set, precision=precision).matmul(a, b)
        over = self.tiny_core(capacity=working_set - 1, precision=precision)
        with pytest.raises(MemoryCapacityError, match=f"working set {working_set} B"):
            over.matmul(a, b)

    def test_core_memories_are_their_configured_specs(self):
        config = TpuCoreConfig(hbm_capacity_bytes=1 << 20, unified_buffer_bytes=1 << 16)
        core = TpuCore(config)
        assert core.hbm == hbm_spec(
            capacity_bytes=1 << 20, bandwidth=config.hbm_bandwidth_bytes_per_sec
        )
        assert core.unified_buffer == unified_buffer_spec(1 << 16)
        assert core.transfer_seconds(4096) == core.hbm.transfer_seconds(4096)
