"""Cycle-level systolic array: exactness and timing facts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import SystolicArray, streaming_cycles


class TestExactness:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4)])
    def test_square_streaming_matches_numpy(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        activations = rng.standard_normal((rows, rows))
        weights = rng.standard_normal((rows, cols))
        result = SystolicArray(rows=rows, cols=cols).matmul(activations, weights)
        np.testing.assert_allclose(result.output, activations @ weights, atol=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 33])
    def test_arbitrary_row_counts(self, m):
        rng = np.random.default_rng(m)
        activations = rng.standard_normal((m, 8))
        weights = rng.standard_normal((8, 8))
        result = SystolicArray(rows=8, cols=8).matmul(activations, weights)
        np.testing.assert_allclose(result.output, activations @ weights, atol=1e-10)

    def test_integer_inputs_accumulate_exactly(self):
        rng = np.random.default_rng(5)
        activations = rng.integers(-127, 127, size=(12, 16)).astype(np.int64)
        weights = rng.integers(-127, 127, size=(16, 8)).astype(np.int64)
        result = SystolicArray(rows=16, cols=8).matmul(activations, weights)
        np.testing.assert_array_equal(result.output, activations @ weights)

    def test_identity_weights_pass_activations_through(self):
        activations = np.arange(16.0).reshape(4, 4)
        result = SystolicArray(rows=4, cols=4).matmul(activations, np.eye(4))
        np.testing.assert_allclose(result.output, activations, atol=1e-12)

    def test_reuse_without_reloading_weights(self):
        """Weight-stationary reuse: stream twice against one load."""
        rng = np.random.default_rng(6)
        array = SystolicArray(rows=4, cols=4)
        weights = rng.standard_normal((4, 4))
        array.load_weights(weights)
        a1 = rng.standard_normal((5, 4))
        a2 = rng.standard_normal((3, 4))
        np.testing.assert_allclose(array.stream(a1).output, a1 @ weights, atol=1e-10)
        np.testing.assert_allclose(array.stream(a2).output, a2 @ weights, atol=1e-10)


class TestTiming:
    def test_streaming_cycles_closed_form(self):
        # m + R + C - 2, straight from the wavefront schedule.
        assert streaming_cycles(1, 1, 1) == 1
        assert streaming_cycles(4, 4, 4) == 10
        assert streaming_cycles(256, 256, 256) == 766

    @pytest.mark.parametrize("m,rows,cols", [(1, 1, 1), (3, 4, 5), (16, 8, 8), (5, 2, 9)])
    def test_simulator_matches_closed_form(self, m, rows, cols):
        rng = np.random.default_rng(0)
        activations = rng.standard_normal((m, rows))
        weights = rng.standard_normal((rows, cols))
        result = SystolicArray(rows=rows, cols=cols).matmul(activations, weights)
        assert result.cycles == streaming_cycles(m, rows, cols)

    def test_weight_load_costs_rows_cycles(self):
        array = SystolicArray(rows=16, cols=4)
        assert array.load_weights(np.zeros((16, 4))) == 16

    def test_utilization_grows_with_stream_length(self):
        """Data reuse: longer streams amortize fill/drain -- the paper's
        'higher throughput while consuming less memory bandwidth'."""
        rng = np.random.default_rng(7)
        weights = rng.standard_normal((8, 8))
        short = SystolicArray(rows=8, cols=8).matmul(rng.standard_normal((2, 8)), weights)
        long = SystolicArray(rows=8, cols=8).matmul(rng.standard_normal((64, 8)), weights)
        assert long.utilization > short.utilization

    def test_total_cycles_add_the_weight_load(self):
        from repro.hw.systolic import SystolicResult

        result = SystolicArray(rows=4, cols=3).matmul(np.ones((5, 4)), np.ones((4, 3)))
        assert result.weight_load_cycles == 4
        assert result.total_cycles == streaming_cycles(5, 4, 3) + 4
        empty = SystolicResult(
            output=np.zeros((0, 3)), cycles=0, weight_load_cycles=0,
            active_pe_cycles=0, total_pe_cycles=0,
        )
        assert empty.utilization == 0.0

    def test_num_pes_matches_paper_mxu(self):
        assert SystolicArray(rows=256, cols=256).num_pes == 65536

    def test_invalid_cycle_request(self):
        with pytest.raises(ValueError):
            streaming_cycles(0, 4, 4)


class TestValidation:
    def test_stream_before_load_raises(self):
        with pytest.raises(RuntimeError):
            SystolicArray(rows=4, cols=4).stream(np.ones((2, 4)))

    def test_wrong_weight_shape_raises(self):
        with pytest.raises(ValueError):
            SystolicArray(rows=4, cols=4).load_weights(np.ones((3, 4)))

    def test_wrong_activation_shape_raises(self):
        array = SystolicArray(rows=4, cols=4)
        array.load_weights(np.ones((4, 4)))
        with pytest.raises(ValueError):
            array.stream(np.ones((2, 5)))

    def test_empty_activations_raise(self):
        array = SystolicArray(rows=4, cols=4)
        array.load_weights(np.ones((4, 4)))
        with pytest.raises(ValueError):
            array.stream(np.zeros((0, 4)))

    def test_nonpositive_geometry_raises(self):
        with pytest.raises(ValueError):
            SystolicArray(rows=0, cols=4)


class TestProperties:
    @given(
        m=st.integers(min_value=1, max_value=12),
        rows=st.integers(min_value=1, max_value=10),
        cols=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_matches_numpy(self, m, rows, cols, seed):
        rng = np.random.default_rng(seed)
        activations = rng.standard_normal((m, rows))
        weights = rng.standard_normal((rows, cols))
        result = SystolicArray(rows=rows, cols=cols).matmul(activations, weights)
        np.testing.assert_allclose(result.output, activations @ weights, atol=1e-9)
        assert result.cycles == m + rows + cols - 2

    @given(
        m=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_int8_range_products_fit_accumulators(self, m, seed):
        """Worst-case int8 dot products stay within int32 accumulator range
        for any reduction length the MXU can host (256)."""
        rng = np.random.default_rng(seed)
        activations = rng.integers(-127, 128, size=(m, 8)).astype(np.int64)
        weights = rng.integers(-127, 128, size=(8, 8)).astype(np.int64)
        result = SystolicArray(rows=8, cols=8).matmul(activations, weights)
        assert np.max(np.abs(result.output)) <= 127 * 127 * 256 < 2**31
