"""MXU tiling: functional agreement between exact and analytic paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Mxu, MxuConfig, matmul_cycles, streaming_cycles


def small_mxu(rows=8, cols=8, precision="fp32"):
    return Mxu(MxuConfig(rows=rows, cols=cols, precision=precision))


class TestFunctional:
    @pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8, 8), (3, 8, 5), (16, 24, 10)])
    def test_fp32_matches_numpy(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        product, _ = small_mxu().matmul(a, b)
        np.testing.assert_allclose(product, a @ b, atol=1e-9)

    def test_int8_matches_quantized_oracle(self):
        from repro.hw import quantized_matmul

        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        product, _ = small_mxu(precision="int8").matmul(a, b)
        np.testing.assert_allclose(product, quantized_matmul(a, b, bits=8), atol=1e-12)

    def test_bf16_close_to_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        product, _ = small_mxu(precision="bf16").matmul(a, b)
        assert np.max(np.abs(product - a @ b)) < 0.1

    @pytest.mark.parametrize("shape", [(4, 4, 4), (5, 12, 7), (10, 20, 9), (3, 17, 11)])
    @pytest.mark.parametrize("precision", ["fp32", "int8"])
    def test_exact_tiled_path_matches_numeric_path(self, shape, precision):
        """The cycle-level systolic engine, tile by tile, must reproduce
        the quantized/full-precision oracle exactly."""
        m, k, n = shape
        rng = np.random.default_rng(m + k + n)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        mxu = small_mxu(precision=precision)
        exact, _ = mxu.matmul(a, b, exact=True)
        numeric, _ = mxu.matmul(a, b, exact=False)
        np.testing.assert_allclose(exact, numeric, atol=1e-9)

    def test_complex_operands_rejected(self):
        with pytest.raises(TypeError):
            small_mxu().matmul(np.ones((2, 2)) + 1j, np.ones((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            small_mxu().matmul(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            small_mxu().matmul(np.ones(3), np.ones((3, 3)))


class TestCycleModel:
    def test_single_tile_matches_systolic_closed_form(self):
        config = MxuConfig(rows=8, cols=8, precision="int8")
        stats = matmul_cycles(4, 8, 8, config)
        assert stats.tiles == 1
        # One exposed weight load + one streaming pass.
        assert stats.cycles == 8 + streaming_cycles(4, 8, 8)

    def test_tile_count(self):
        config = MxuConfig(rows=8, cols=8, precision="int8")
        assert matmul_cycles(4, 16, 16, config).tiles == 4
        assert matmul_cycles(4, 17, 8, config).tiles == 3
        assert matmul_cycles(4, 8, 8, config).tiles == 1

    def test_weight_loads_hide_behind_long_streams(self):
        config = MxuConfig(rows=8, cols=8, precision="int8")
        long_stream = matmul_cycles(64, 16, 16, config)
        assert long_stream.hidden_weight_load_cycles == (long_stream.tiles - 1) * 8

    def test_cycles_scale_with_tiles(self):
        config = MxuConfig(rows=8, cols=8, precision="int8")
        small = matmul_cycles(16, 8, 8, config).cycles
        big = matmul_cycles(16, 32, 32, config).cycles
        assert big > 10 * small  # 16 tiles vs 1

    def test_fp32_slower_than_int8(self):
        config8 = MxuConfig(rows=8, cols=8, precision="int8")
        config32 = MxuConfig(rows=8, cols=8, precision="fp32")
        assert (
            matmul_cycles(32, 8, 8, config32).cycles
            > matmul_cycles(32, 8, 8, config8).cycles
        )

    def test_utilization_increases_with_m(self):
        config = MxuConfig(rows=8, cols=8, precision="int8")
        u_small = matmul_cycles(2, 8, 8, config).utilization(config)
        u_big = matmul_cycles(256, 8, 8, config).utilization(config)
        assert u_big > u_small
        assert u_big <= 1.0

    def test_total_cycles_and_idle_utilization(self):
        from repro.hw.mxu import MxuStats

        config = MxuConfig(rows=8, cols=8, precision="int8")
        stats = matmul_cycles(4, 16, 16, config)
        assert stats.total_cycles == stats.cycles
        idle = MxuStats(
            cycles=0, weight_load_cycles=0, hidden_weight_load_cycles=0, tiles=0, macs=0
        )
        assert idle.utilization(config) == 0.0

    def test_paper_mxu_peak(self):
        config = MxuConfig()  # 256x256 int8
        assert config.macs_per_cycle == 65536

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            matmul_cycles(0, 4, 4, MxuConfig(rows=8, cols=8))

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            MxuConfig(rows=0, cols=8)
        with pytest.raises(ValueError):
            MxuConfig(rows=8, cols=8, precision="int4")


class TestProperties:
    @given(
        m=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=20),
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_equals_numeric_everywhere(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        mxu = small_mxu(rows=4, cols=4)
        exact, stats_exact = mxu.matmul(a, b, exact=True)
        numeric, stats_numeric = mxu.matmul(a, b, exact=False)
        np.testing.assert_allclose(exact, numeric, atol=1e-9)
        assert stats_exact.cycles == stats_numeric.cycles

    @given(
        m=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=1, max_value=64),
        n=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_cycle_model_monotone_in_every_dimension(self, m, k, n):
        config = MxuConfig(rows=8, cols=8, precision="int8")
        base = matmul_cycles(m, k, n, config).cycles
        assert matmul_cycles(m + 8, k, n, config).cycles >= base
        assert matmul_cycles(m, k + 8, n, config).cycles >= base
        assert matmul_cycles(m, k, n + 8, config).cycles >= base
