"""Property test: the fleet's l2 linearity wave, bit for bit, pair by pair.

An ``l2`` wave of float64 pairs at exact precision is one straight-line
host pass (``FleetExecutor._compute_wave``): a stacked Eq. 4 solve on
half spectra, one batched inverse transform of the pairs' kernel,
residual, correlation and autocorrelation spectra, and the l2 scorer.
Stacking only merges lines into fewer ``numpy.fft`` calls, and every
other step is per plane, so every pair must get exactly the numbers of
its own one-pair wave -- kernel, scores and residual -- and its kernel
must be :func:`~repro.core.transform.frequency_solve` of the pair alone
on a device.  Against the literal per-pair loop (:mod:`tests.reference`)
kernels and residuals hold within the derived bounds and scores within
the linearity tolerance (:func:`tests.reference.assert_matches`).

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
from repro.core.masking import DEFAULT_CHUNK_ROWS
from repro.core.transform import frequency_solve
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
    options = dict(
        granularity=config["granularity"], block_shape=config["block_shape"],
        eps=config["eps"], fill_value=config["fill_value"],
    )
    executor = FleetExecutor(
        TpuBackend(make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=8, mxu_cols=8)),
        num_chips=config["num_chips"], **options,
    )
    checked = executor._checked_pairs(pairs)
    assert executor.schedule(checked).num_waves == 1
    assert executor._layout(config["shape"]).by_linearity
    run = executor.run(checked)
    for (x, y), pair, result in zip(pairs, checked, run.results):
        kernel = frequency_solve(x, y, config["eps"], device=CpuDevice())
        np.testing.assert_array_equal(result.kernel, kernel)
        (alone,) = executor.run([pair]).results
        np.testing.assert_array_equal(result.kernel, alone.kernel)
        np.testing.assert_array_equal(result.scores, alone.scores)
        assert result.residual == alone.residual
    reference.assert_matches(
        run.results, reference.explain_all(pairs, **options), pairs, **options
    )
