"""Property test: the fleet executor against the literal reference.

Hypothesis samples the configuration lattice -- plane shape (power of
two, odd, prime, 1xN, and "wide": the 32 to 64 px planes the benchmark
workloads run, where line lengths and strides differ, with row or
column masks only so a pair has at most 64), granularity and block,
precision, chip count, placement, wave cap, chunk size, fill value,
reduction and each pair's ``x`` and ``y`` dtypes, drawn independently from float32, float64 and
longdouble (pairs of different float widths land in different waves)
-- and every draw must reproduce :mod:`tests.reference`, the paper's
per-pair loop (:func:`tests.reference.assert_matches`): kernels within
the derived bound of the literal solve, since real pairs are solved on
half spectra; given the fleet's kernel, scores and residuals bit for
bit, except where the fleet scores by linearity (l2 on float64 pairs at
exact precision: scores within 1e-9 of the pair's largest score,
residuals within the derived bound).  Every draw's scores must also
equal, bit for bit, those of the same pairs on one chip with default
options: chips, placement, wave cap and chunk size change only the
ledger.

A second property draws Eq. 4 solves alone -- the same shapes, eps 0,
1e-8, 1e-6 and 0.3, one to three pairs per kernel, float64 and
longdouble ``x`` and ``y`` -- and holds each kernel within
:func:`tests.reference.kernel_bound` of the literal solve.

Tier-1 runs Hypothesis's default example count; CI also runs this file
under the ``deep`` profile (``tests/conftest.py``):
``pytest tests/core/test_reference_property.py --hypothesis-profile=deep``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import planted_interpretation_pairs
from repro.core import FleetExecutor, TpuBackend, frequency_solve, make_tpu_chip
from repro.core.masking import REDUCTIONS
from repro.hw.cpu import CpuDevice
from tests import reference

SHAPES = {
    "pow2": [(4, 4), (8, 8), (8, 4), (4, 16)],
    "odd": [(5, 5), (9, 9), (3, 9)],
    "prime": [(7, 7), (5, 11), (13, 13)],
    "1xN": [(1, 8), (1, 7), (1, 13)],
    "wide": [(32, 32), (36, 36), (48, 40), (64, 64)],
}
DTYPES = st.sampled_from(["float32", "float64", "longdouble"])


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def configurations(draw):
    kind = draw(st.sampled_from(sorted(SHAPES)))
    shape = draw(st.sampled_from(SHAPES[kind]))
    granularity = draw(st.sampled_from(
        ["columns", "rows"] if kind == "wide" else ["blocks", "columns", "rows", "elements"]
    ))
    block_shape = None
    if granularity == "blocks":
        block_shape = (
            draw(st.sampled_from(divisors(shape[0]))),
            draw(st.sampled_from(divisors(shape[1]))),
        )
    exact = [None, "fp64"]
    precision = draw(st.sampled_from(exact + ["bf16", "int8"]))
    return dict(
        shape=shape,
        granularity=granularity,
        block_shape=block_shape,
        precision=precision,
        num_chips=draw(st.sampled_from([1, 2, 4, 8])),
        placement=draw(st.sampled_from(["data", "chunk", "wave"])),
        max_pairs_per_wave=draw(st.sampled_from([None, 1, 2, 3])),
        chunk_rows=draw(st.sampled_from([None, 1, 2, 5, 64])),
        fill_value=draw(st.sampled_from([0.0, 0.1, -2.5])),
        reduction=draw(st.sampled_from(REDUCTIONS)),
        num_pairs=draw(st.integers(1, 4)),
        pair_dtypes=draw(st.lists(st.tuples(DTYPES, DTYPES), min_size=4, max_size=4)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(deadline=None)
@given(configurations())
def test_fleet_matches_reference(config):
    pairs = [
        (x.astype(x_dtype), y.astype(y_dtype))
        for (x, y), (x_dtype, y_dtype) in zip(
            planted_interpretation_pairs(
                config["num_pairs"], shape=config["shape"], seed=config["seed"]
            ),
            config["pair_dtypes"],
        )
    ]
    options = dict(
        granularity=config["granularity"], block_shape=config["block_shape"],
        eps=1e-6, precision=config["precision"], fill_value=config["fill_value"],
        reduction=config["reduction"],
    )
    def chip():
        return TpuBackend(make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=8, mxu_cols=8))

    run = FleetExecutor(
        chip(), num_chips=config["num_chips"], placement=config["placement"],
        max_pairs_per_wave=config["max_pairs_per_wave"], chunk_rows=config["chunk_rows"],
        **options,
    ).run(pairs)
    expected = reference.explain_all(pairs, device=CpuDevice(), **options)
    reference.assert_matches(run.results, expected, pairs, **options)
    default = FleetExecutor(chip(), **options).run(pairs)
    for result, want in zip(run.results, default.results):
        np.testing.assert_array_equal(result.scores, want.scores)


@st.composite
def solves(draw):
    return dict(
        shape=draw(st.sampled_from(SHAPES[draw(st.sampled_from(sorted(SHAPES)))])),
        eps=draw(st.sampled_from([0.0, 1e-8, 1e-6, 0.3])),
        pairs=draw(st.integers(1, 3)),
        dtypes=draw(st.tuples(*[st.sampled_from(["float64", "longdouble"])] * 2)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(deadline=None)
@given(solves())
def test_kernel_within_the_derived_bound_of_the_literal_solve(config):
    planted = planted_interpretation_pairs(
        config["pairs"], shape=config["shape"], seed=config["seed"]
    )
    x_dtype, y_dtype = config["dtypes"]
    xs = np.stack([x for x, _ in planted]).astype(x_dtype)
    ys = np.stack([y for _, y in planted]).astype(y_dtype)
    kernel = frequency_solve(xs, ys, eps=config["eps"])
    assert kernel.dtype == np.result_type(xs, ys, np.float64)
    literal = reference.solve(xs, ys, config["eps"], CpuDevice())
    assert reference.norm(kernel - literal) <= reference.kernel_bound(xs, ys, config["eps"])
