"""Seeded arrival processes: the service's request traffic.

The offline stack explains *lists* of pairs; a serving benchmark needs
*requests* -- pairs that arrive over time.  This module defines the
request record and two seeded arrival processes:

* :func:`poisson_requests` -- memoryless traffic at a target rate
  (exponential inter-arrivals), the MLPerf-Inference server-scenario
  arrival model;
* :func:`bursty_requests` -- closed bursts separated by idle gaps, the
  adversarial case for a micro-batcher (a burst should coalesce into
  few waves; the idle gap exercises the max-wait flush).

Both draw every random quantity -- inter-arrival gaps, pair planes,
repeat choices, per-request precisions -- from one
``numpy.random.default_rng(seed)`` stream plus the seeded pair recipe
of :func:`repro.bench.workloads.planted_request_pairs`, so a trace is a
pure function of its arguments and the service's latency ledger replays
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.workloads import planted_request_pairs


@dataclass(frozen=True, eq=False)
class Request:
    """One online explanation request.

    ``granularity`` / ``block_shape`` / ``precision`` default to
    ``None`` = "use the service's configured default"; a request that
    sets them explicitly is routed to its own batch key (requests with
    different keys never share a wave -- notably mixed precisions).
    Compared by identity (``eq=False``): the payload is ndarrays.
    """

    request_id: int
    arrival_time: float
    x: np.ndarray
    y: np.ndarray
    granularity: str | None = None
    block_shape: tuple[int, int] | None = None
    precision: object = None  # a name, a PrecisionSpec, or None

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(
                f"request {self.request_id} arrives before time zero "
                f"({self.arrival_time})"
            )
        object.__setattr__(self, "x", np.asarray(self.x))
        object.__setattr__(self, "y", np.asarray(self.y))


def _requests_from_arrivals(
    arrivals,
    rng: np.random.Generator,
    shape: tuple[int, int],
    seed: int,
    repeat_fraction: float,
    granularity: str | None,
    block_shape: tuple[int, int] | None,
    precision,
    precisions,
) -> list[Request]:
    """Attach planted pairs (and optional per-request precisions) to times."""
    arrivals = list(arrivals)
    pairs = planted_request_pairs(
        len(arrivals), shape=shape, seed=seed, repeat_fraction=repeat_fraction
    )
    if precisions is not None:
        precisions = list(precisions)
        if not precisions:
            raise ValueError("precisions must name at least one mode")
    requests = []
    for index, ((x, y), arrival) in enumerate(zip(pairs, arrivals)):
        chosen = precision
        if precisions is not None:
            chosen = precisions[int(rng.integers(len(precisions)))]
        requests.append(
            Request(
                request_id=index,
                arrival_time=float(arrival),
                x=x,
                y=y,
                granularity=granularity,
                block_shape=block_shape,
                precision=chosen,
            )
        )
    return requests


def poisson_requests(
    count: int,
    rate: float,
    seed: int = 0,
    shape: tuple[int, int] = (16, 16),
    repeat_fraction: float = 0.0,
    granularity: str | None = None,
    block_shape: tuple[int, int] | None = None,
    precision=None,
    precisions=None,
) -> list[Request]:
    """A seeded Poisson request trace at ``rate`` requests/simulated-second.

    Inter-arrival gaps are exponential with mean ``1/rate``;
    ``repeat_fraction`` of the requests repeat an earlier pair's exact
    arrays (cache-hit traffic); ``precisions`` optionally draws each
    request's precision uniformly from the given modes (requests of
    different precisions never share a wave).  ``count=0`` is a legal
    idle trace.
    """
    if count < 0:
        raise ValueError(f"count cannot be negative, got {count}")
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return _requests_from_arrivals(
        arrivals, rng, shape, seed, repeat_fraction,
        granularity, block_shape, precision, precisions,
    )


def bursty_requests(
    count: int,
    burst_size: int,
    burst_gap: float,
    seed: int = 0,
    shape: tuple[int, int] = (16, 16),
    repeat_fraction: float = 0.0,
    granularity: str | None = None,
    block_shape: tuple[int, int] | None = None,
    precision=None,
    precisions=None,
    jitter: float = 0.0,
) -> list[Request]:
    """A bursty trace: closed bursts of ``burst_size`` simultaneous
    requests, one burst every ``burst_gap`` simulated seconds.

    Every request of burst ``k`` arrives at exactly ``k * burst_gap`` --
    the micro-batcher should coalesce each burst into few waves, and the
    idle gap between bursts exercises the max-wait flush path.
    ``jitter > 0`` smears each arrival uniformly over ``[0, jitter)``
    seconds after its burst instant (seeded, then re-sorted), turning
    the perfectly-closed bursts into ragged ones -- the adaptive
    controller's harder case.  ``jitter=0`` draws nothing and is
    bit-identical to the pre-jitter trace.
    """
    if count < 0:
        raise ValueError(f"count cannot be negative, got {count}")
    if burst_size <= 0:
        raise ValueError(f"burst size must be positive, got {burst_size}")
    if burst_gap < 0:
        raise ValueError(f"burst gap cannot be negative, got {burst_gap}")
    if jitter < 0:
        raise ValueError(f"jitter cannot be negative, got {jitter}")
    rng = np.random.default_rng(seed)
    arrivals = [(index // burst_size) * burst_gap for index in range(count)]
    if jitter > 0:
        offsets = rng.uniform(0.0, jitter, size=count)
        arrivals = sorted(a + o for a, o in zip(arrivals, offsets))
    return _requests_from_arrivals(
        arrivals, rng, shape, seed, repeat_fraction,
        granularity, block_shape, precision, precisions,
    )
