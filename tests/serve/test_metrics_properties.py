"""Property tests pinning the ledger's nearest-rank percentiles.

The existing suite spot-checks fixed ledgers; these tests pin
:meth:`LatencyLedger.percentile` (and the controller's twin,
:func:`nearest_rank_percentile`) against a brute-force reference over
hypothesis-generated latency sets.  The reference is deliberately
definition-shaped rather than formula-shaped: the nearest-rank p-th
percentile is the *smallest observed value* for which at least ``p``
percent of the observations are less than or equal to it -- a linear
scan, no ``ceil`` arithmetic to share a bug with the implementation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import LatencyLedger, RequestRecord
from repro.serve.controller import nearest_rank_percentile

latency_lists = st.lists(
    st.floats(
        min_value=0.0,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=120,
)

percentiles = st.one_of(
    st.sampled_from([50.0, 95.0, 99.0]),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)


def brute_force_nearest_rank(values, p):
    """Smallest observed value covering >= p percent of the sample."""
    ordered = sorted(values)
    total = len(ordered)
    for value in ordered:
        covered = sum(1 for other in ordered if other <= value)
        if covered >= (p / 100.0) * total:
            return value
    return ordered[-1]


def ledger_of(latencies):
    ledger = LatencyLedger()
    for index, latency in enumerate(latencies):
        ledger.add(
            RequestRecord(
                request_id=index,
                arrival_time=0.0,
                status="completed",
                batch_key=("blocks", (4, 4), None),
                enqueue_time=0.0,
                dispatch_time=0.0,
                completion_time=latency,
                dispatch_index=0,
            )
        )
    return ledger


@settings(deadline=None, max_examples=200)
@given(latencies=latency_lists, p=percentiles)
def test_ledger_percentile_matches_brute_force(latencies, p):
    assert ledger_of(latencies).percentile(p) == brute_force_nearest_rank(
        latencies, p
    )


@settings(deadline=None, max_examples=100)
@given(latencies=latency_lists)
def test_headline_percentiles_match_brute_force(latencies):
    ledger = ledger_of(latencies)
    for p in (50.0, 95.0, 99.0):
        assert ledger.percentile(p) == brute_force_nearest_rank(latencies, p)


@settings(deadline=None, max_examples=100)
@given(latencies=latency_lists, p=percentiles)
def test_controller_percentile_agrees_with_the_ledger(latencies, p):
    """The controller steers against exactly the quantity the ledger
    reports: the two nearest-rank implementations never diverge."""
    assert nearest_rank_percentile(latencies, p) == ledger_of(
        latencies
    ).percentile(p)


@settings(deadline=None, max_examples=100)
@given(latencies=latency_lists)
def test_percentile_is_an_observed_value_and_monotone(latencies):
    ledger = ledger_of(latencies)
    values = set(latencies)
    previous = None
    for p in (1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0):
        value = ledger.percentile(p)
        assert value in values  # nearest-rank returns actual observations
        if previous is not None:
            assert value >= previous
        previous = value


KEY = ("blocks", (4, 4), None)

PERCENTILE_FUNCTIONS = {
    "LatencyLedger.percentile": lambda latencies, p: ledger_of(latencies).percentile(p),
    "LatencyLedger.percentile_for": lambda latencies, p: ledger_of(
        latencies
    ).percentile_for(KEY, p),
    "nearest_rank_percentile": nearest_rank_percentile,
}


@pytest.mark.parametrize("name", sorted(PERCENTILE_FUNCTIONS))
def test_percentile_outside_the_half_open_range_is_rejected(name):
    percentile = PERCENTILE_FUNCTIONS[name]
    for p in (0.0, -5.0, 100.5):
        with pytest.raises(ValueError, match=r"percentile must lie in \(0, 100\]"):
            percentile([0.25, 0.5], p)
    assert percentile([0.25, 0.5], 100.0) == 0.5


def test_every_percentile_of_no_completions_is_zero():
    ledger = LatencyLedger()
    assert ledger.percentile(95.0) == 0.0
    assert ledger.percentile_for(KEY, 95.0) == 0.0
    assert nearest_rank_percentile([], 95.0) == 0.0
    # A key with no completions reads zero even when other keys have some.
    assert ledger_of([0.5]).percentile_for(("rows", None, None), 99.0) == 0.0
