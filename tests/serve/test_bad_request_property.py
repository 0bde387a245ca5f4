"""Property test: one bad request never moves another's explanation.

Hypothesis draws a Poisson or bursty trace of 4 to 12 requests on 8x8
or 16x16 planes, the service's granularity (blocks, columns or rows),
``eps`` (0 or 1e-8) and chip count (1 or 2), and breaks one request, at
a drawn position, with a drawn defect: one for each rule of
:meth:`repro.core.fleet.FleetExecutor.check_pair` (a plane that is not
a matrix, a block shape that does not tile it, a non-numeric dtype, a
NaN or an inf, a ``y`` that cannot lift, a zero spectrum bin at
``eps=0``), or finite planes whose Eq. 4 solve or l2 reduction
overflows.  That request must be rejected with its rule's reason, and
every other request's scores, kernel and residual must equal, bit for
bit, those of the same trace served without it.

Tier-1 runs Hypothesis's default example count; CI also runs this file
under the ``deep`` profile (``tests/conftest.py``):
``pytest tests/serve/test_bad_request_property.py --hypothesis-profile=deep``.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TpuBackend, make_tpu_chip
from repro.serve import ExplanationService, bursty_requests, poisson_requests


def _with(plane, index, value):
    """A copy of ``plane`` with its flat element ``index`` set to ``value``."""
    plane = plane.copy()
    plane.flat[index % plane.size] = value
    return plane


OVERFLOW = "the explanation holds non-finite values"

#: name -> (the changes that break a request, its reason, when it applies).
DEFECTS = {
    "not-a-matrix": (lambda r, i: {"x": r.x.ravel()}, "x must be a matrix", None),
    "untiled": (
        lambda r, i: {"x": r.x[:, :-1], "y": r.y[:, :-1]}, "does not tile",
        lambda config: config["granularity"] == "blocks",
    ),
    "str-x": (lambda r, i: {"x": r.x.astype(str)}, "x has dtype", None),
    "object-x": (lambda r, i: {"x": r.x.astype(object)}, "x has dtype", None),
    "none-y": (lambda r, i: {"y": None}, "y has dtype", None),
    "nan-x": (lambda r, i: {"x": _with(r.x, i, np.nan)}, "x holds non-finite values", None),
    "inf-y": (lambda r, i: {"y": _with(r.y, i, -np.inf)}, "y holds non-finite values", None),
    "unliftable-y": (lambda r, i: {"y": r.y[: r.y.shape[0] // 2]}, "cannot lift", None),
    "zero-bin": (
        lambda r, i: {"x": np.full(r.x.shape, 2.0)}, "the spectrum of x has a zero bin",
        lambda config: config["eps"] == 0,
    ),
    "x1e200": (lambda r, i: {"x": r.x * 1e200}, OVERFLOW, None),
    "x1e150-y1e200": (lambda r, i: {"x": r.x * 1e150, "y": r.y * 1e200}, OVERFLOW, None),
    "y1e154": (lambda r, i: {"y": r.y * 1e154}, OVERFLOW, None),
}


@st.composite
def configurations(draw):
    granularity = draw(st.sampled_from(["blocks", "columns", "rows"]))
    config = dict(
        granularity=granularity,
        block_shape=draw(st.sampled_from([(2, 2), (4, 4), (4, 2)]))
        if granularity == "blocks" else None,
        eps=draw(st.sampled_from([0.0, 1e-8])),
        num_chips=draw(st.sampled_from([1, 2])),
    )
    defects = sorted(
        name for name, (_, _, applies) in DEFECTS.items()
        if applies is None or applies(config)
    )
    count = draw(st.integers(4, 12))
    config.update(
        arrivals=draw(st.sampled_from(["poisson", "bursty"])),
        count=count,
        shape=draw(st.sampled_from([(8, 8), (16, 16)])),
        repeat_fraction=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 2**16)),
        defect=draw(st.sampled_from(defects)),
        position=draw(st.integers(0, count - 1)),
        element=draw(st.integers(0, 255)),
    )
    return config


def requests_of(config):
    options = dict(
        seed=config["seed"], shape=config["shape"],
        repeat_fraction=config["repeat_fraction"],
    )
    if config["arrivals"] == "poisson":
        return poisson_requests(config["count"], rate=400.0, **options)
    return bursty_requests(config["count"], burst_size=4, burst_gap=0.02, **options)


def serve(config, requests):
    service = ExplanationService(
        TpuBackend(make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=8, mxu_cols=8)),
        granularity=config["granularity"], block_shape=config["block_shape"],
        eps=config["eps"], num_chips=config["num_chips"], metrics_name=None,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        return service.process(requests)


@settings(deadline=None)
@given(configurations())
def test_one_bad_request_never_moves_another(config):
    requests = requests_of(config)
    changes, reason, _ = DEFECTS[config["defect"]]
    position = config["position"]
    bad = requests[position]
    requests[position] = dataclasses.replace(bad, **changes(bad, config["element"]))

    report = serve(config, requests)
    (rejected,) = report.ledger.rejected
    assert rejected.request_id == bad.request_id
    assert reason in rejected.reject_reason

    clean = serve(config, [r for r in requests if r is not requests[position]])
    assert clean.rejected_count == 0
    served, expected = report.results_by_id(), clean.results_by_id()
    assert served.keys() == expected.keys()
    for request_id, want in expected.items():
        assert np.isfinite(want.scores).all()
        np.testing.assert_array_equal(served[request_id].scores, want.scores)
        np.testing.assert_array_equal(served[request_id].kernel, want.kernel)
        assert served[request_id].residual == want.residual
