"""Property test: the fleet's l2 linearity wave, bit for bit, pair by pair.

An ``l2`` wave of float64 pairs at exact precision is one straight-line
host pass (``FleetExecutor._compute_wave``): a stacked Eq. 4 solve, one
batched rFFT round trip for the pairs' unmasked planes and the l2
scorer.  Stacking only merges lines into fewer ``numpy.fft`` calls, so
every pair must get exactly the numbers of its own per-pair arithmetic:

* its kernel is :func:`~repro.core.transform.frequency_solve` of the pair
  alone on a device;
* its prediction is :func:`~repro.fft.convolution.fft_circular_convolve2d`
  of ``x`` and that kernel;
* its scores are :func:`~repro.core.interpretation.l2_scores_by_linearity`
  fed that pair alone -- ``rfft2_batch`` of its kernel and its residual
  ``y - prediction`` -- except the masks that scorer's guard flags, which
  score as the exact masked convolution.

Hypothesis draws power-of-two, odd, prime and 1xN planes, every
granularity (with blocks small enough that the wave scores by
linearity), fills 0, 0.37 and -2.5, eps 1e-8, 0.3 and 0 (with ``x``
offset so that no bin of its spectrum is zero), 1 to 7 pairs, on a CPU
and on a 2-chip pod.  CI also runs this file under the ``deep`` profile
(``tests/conftest.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import planted_interpretation_pairs
from repro.core.backend import TpuBackend, make_tpu_chip
from repro.core.fleet import FleetExecutor
from repro.core.interpretation import l2_scores_by_linearity
from repro.core.masking import DEFAULT_CHUNK_ROWS, MaskSpec, reduce_batch
from repro.core.transform import frequency_solve
from repro.fft.convolution import fft_circular_convolve2d
from repro.fft.fft2d import rfft2_batch
from repro.hw.cpu import CpuDevice
from tests import reference

SHAPES = {
    "pow2": [(4, 4), (8, 8), (8, 4), (4, 16)],
    "odd": [(5, 5), (9, 9), (3, 9)],
    "prime": [(7, 7), (5, 11), (13, 13)],
    "1xN": [(1, 8), (1, 7), (1, 13)],
}


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def configurations(draw):
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from(sorted(SHAPES)))]))
    m, n = shape
    granularity = draw(st.sampled_from(["blocks", "columns", "rows", "elements"]))
    block_shape = None
    if granularity == "blocks":
        # A block's s x s cell matrix must fit the default chunk's window,
        # or the wave takes the exact path.
        block_shape = draw(st.sampled_from([
            (bh, bw) for bh in divisors(m) for bw in divisors(n)
            if (bh * bw) ** 2 <= DEFAULT_CHUNK_ROWS * m * n
        ]))
    return dict(
        shape=shape,
        granularity=granularity,
        block_shape=block_shape,
        fill_value=draw(st.sampled_from([0.0, 0.37, -2.5])),
        eps=draw(st.sampled_from([1e-8, 0.3, 0.0])),
        num_pairs=draw(st.integers(1, 7)),
        num_chips=draw(st.sampled_from([None, 2])),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(deadline=None)
@given(configurations())
def test_each_pair_gets_its_own_arithmetic_bit_for_bit(config):
    pairs = planted_interpretation_pairs(
        config["num_pairs"], shape=config["shape"], seed=config["seed"]
    )
    if config["eps"] == 0.0:
        pairs = [(x + 3.0, y) for x, y in pairs]
    executor = FleetExecutor(
        TpuBackend(make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=8, mxu_cols=8)),
        granularity=config["granularity"], block_shape=config["block_shape"],
        eps=config["eps"], fill_value=config["fill_value"], num_chips=config["num_chips"],
    )
    checked = executor._checked_pairs(pairs)
    (wave,) = executor.schedule(checked).waves
    numbers = executor._compute_wave(wave, checked)
    layout = executor._layout(config["shape"])
    assert layout.by_linearity
    run = executor.run(checked)
    plan = MaskSpec.for_granularity(
        config["granularity"], config["shape"], block_shape=config["block_shape"]
    )
    masks = [mask for _, mask in reference.masks(
        config["granularity"], config["shape"], config["block_shape"]
    )]
    fill = np.float64(config["fill_value"])
    for p, ((x, y), result) in enumerate(zip(pairs, run.results)):
        kernel = frequency_solve(x, y, config["eps"], device=CpuDevice())
        np.testing.assert_array_equal(result.kernel, kernel)
        prediction = fft_circular_convolve2d(x, kernel)
        np.testing.assert_array_equal(numbers.preds[p], prediction)
        (scores,), (flagged,) = l2_scores_by_linearity(
            x[np.newaxis], np.array([fill]), (y - prediction)[np.newaxis],
            rfft2_batch(kernel[np.newaxis]), plan, layout.window_floats,
        )
        for mask in np.flatnonzero(flagged):
            masked = np.where(masks[mask], fill, x)
            scores[mask] = reduce_batch(
                (y - fft_circular_convolve2d(masked, kernel))[np.newaxis], "l2"
            )[0]
        np.testing.assert_array_equal(result.scores.ravel(), scores)
