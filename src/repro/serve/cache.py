"""Content-addressed explanation cache: byte-budgeted LRU over digests.

The serving-layer analogue of Clipper's prediction cache: an
explanation is a pure function of ``(x, y, granularity, block_shape,
precision, eps, reduction, fill_value)``, so a repeated request can be
answered from memory without re-distilling the kernel or re-scoring the
mask plan -- zero device dispatches, zero kernel-spectrum batches, and
a response **bit-identical** to the cold one (the cache stores the
exact arrays the fleet executor produced; nothing is recomputed or
re-rounded on the hit path).

Keys are content digests (:func:`explanation_digest`): SHA-256 over the
*value bytes* of both planes plus the scoring configuration.  Two
requests hit the same entry iff their inputs are byte-equal (padding
bytes of ``longdouble`` elements aside) under the same config --
content addressing, not object identity, so replayed traffic
(the common case for monitoring dashboards re-explaining the same
flagged inputs) hits regardless of which array objects carry it.

Eviction is least-recently-used under a byte budget priced by the
stored artifacts (kernel + score planes + the residual scalar); an
entry larger than the whole budget is simply not cached.

:class:`DigestMemo` rides alongside: warm replay traffic tends to carry
the *same array objects* repeatedly, and re-hashing megabytes of plane
bytes per request dominates the served-from-memory path -- the memo
short-circuits :func:`explanation_digest` by object identity (weakly
referenced, so recycled ids never alias) while content addressing stays
authoritative for distinct objects.

:class:`SpeculativeWarmer` closes the loop between eviction and idle
time: it tracks how often each digest recurs, and when the LRU evicts a
*recurring* entry (one the trace has asked for at least twice) it keeps
that request's planes as a warming candidate.  During idle drain gaps
-- the event loop waiting on a distant next arrival with empty queues
-- the service re-distills queued candidates and re-inserts them,
converting drain time into cache hits instead of wasted simulated
seconds.  Warming never changes *what* an explanation is (the recompute
runs the same executor path), only when the work happens.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
from collections import OrderedDict

import numpy as np

from repro.core.fleet import PairResult
from repro.fft.spectra import value_buffer

#: Default cache budget: plenty for benches, small enough that the
#: eviction path is exercised by modest traffic at image-plane sizes.
DEFAULT_CACHE_BYTES = 64 * 1024**2

_RESIDUAL_BYTES = 8  # the cached residual scalar (a python float)


@functools.lru_cache(maxsize=256)
def _plane_tag(dtype: np.dtype, shape: tuple) -> bytes:
    """The dtype and shape text a digest hashes ahead of a plane's bytes."""
    return str(dtype).encode() + str(shape).encode()


def explanation_digest(
    x: np.ndarray,
    y: np.ndarray,
    granularity: str,
    block_shape: tuple[int, int] | None,
    precision_name: str | None,
    eps: float,
    reduction: str,
    fill_value: float,
    embedding_strategy: str = "identity",
) -> str:
    """Content digest of one explanation request.

    SHA-256 over both planes' dtype, shape and value bytes
    (:func:`~repro.fft.spectra.value_buffer`: a ``longdouble`` plane's
    padding bytes are left out, so equal planes collide) plus the
    scoring configuration -- everything the explanation is a function
    of, including the output-embedding strategy (it changes how vector
    outputs lift onto the plane, so services sharing one cache with
    different embeddings must not collide).  Byte-equal inputs under
    the same config collide by construction; anything else (a different
    fill value, a different precision, one flipped input bit) lands
    elsewhere.
    """
    digest = hashlib.sha256()
    for plane in (x, y):
        plane = np.ascontiguousarray(np.asarray(plane))
        digest.update(_plane_tag(plane.dtype, plane.shape))
        digest.update(value_buffer(plane))  # no copy unless longdouble padding
    digest.update(
        repr(
            (
                granularity,
                None if block_shape is None else tuple(block_shape),
                precision_name,
                float(eps),
                reduction,
                float(fill_value),
                embedding_strategy,
            )
        ).encode()
    )
    return digest.hexdigest()


class DigestMemo:
    """Identity-keyed memo of :func:`explanation_digest` values.

    The serve-replay hot path: hashing both planes dominates warm
    request handling once the explanation itself is cached, and
    replayed traffic (monitoring dashboards re-explaining the same
    flagged inputs) typically carries the *same array objects* through
    every replay.  The memo keys on the planes' object identity plus
    the config tuple and holds weak references, so a recycled ``id()``
    after garbage collection can never alias a stale digest and the
    memo never keeps request arrays alive.

    The immutability contract: a caller that mutates a request plane
    in place after submitting it gets the old digest for the same
    object, exactly as it would get a stale cached explanation -- the
    service already freezes cached results for the same reason, and
    content addressing stays authoritative for distinct objects.
    """

    def __init__(self) -> None:
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self._memo)

    def lookup(self, x, y, config, compute):
        """The digest of ``(x, y, config)``, computing once per identity."""
        token = (id(x), id(y), config)
        hit = self._memo.get(token)
        if hit is not None:
            ref_x, ref_y, value = hit
            if ref_x() is x and ref_y() is y:
                return value
        value = compute()
        try:
            drop = lambda _, token=token: self._memo.pop(token, None)
            self._memo[token] = (
                weakref.ref(x, drop), weakref.ref(y, drop), value,
            )
        except TypeError:
            pass  # non-weakref-able planes: memoization is best-effort
        return value


def result_nbytes(result: PairResult) -> int:
    """Bytes one cached explanation occupies (kernel + scores + residual)."""
    return int(result.kernel.nbytes) + int(result.scores.nbytes) + _RESIDUAL_BYTES


class ExplanationCache:
    """Byte-budgeted LRU of :class:`~repro.core.fleet.PairResult`\\ s."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"cache budget must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, PairResult]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional ``callable(digest)`` invoked on every LRU eviction
        #: (the :class:`SpeculativeWarmer` wiring point).
        self.on_evict = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def get(self, digest: str) -> PairResult | None:
        """The cached explanation, or ``None`` (counted as a miss)."""
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)  # most recently used
        self.hits += 1
        return entry

    def put(self, digest: str, result: PairResult) -> bool:
        """Store an explanation; returns whether it was cached.

        An entry bigger than the whole budget is not cached (returns
        ``False``); otherwise least-recently-used entries are evicted
        until the new entry fits.  The entry's arrays are frozen
        read-only: the same objects are handed to clients, and a
        client mutating its response in place must get a loud
        ``ValueError``, not silently poison every later hit.
        """
        nbytes = result_nbytes(result)
        if nbytes > self.max_bytes:
            return False
        result.kernel.setflags(write=False)
        result.scores.setflags(write=False)
        if digest in self._entries:
            # Same content, same artifacts: refresh recency only.
            self._entries.move_to_end(digest)
            return True
        while self.current_bytes + nbytes > self.max_bytes:
            evicted_digest, evicted = self._entries.popitem(last=False)
            self.current_bytes -= result_nbytes(evicted)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_digest)
        self._entries[digest] = result
        self.current_bytes += nbytes
        return True

    def __repr__(self) -> str:
        return (
            f"<ExplanationCache {len(self._entries)} entries, "
            f"{self.current_bytes}/{self.max_bytes} bytes, "
            f"{self.hits} hits / {self.misses} misses / "
            f"{self.evictions} evictions>"
        )


class SpeculativeWarmer:
    """Track recurring evicted digests and stage them for idle warming.

    The warmer is pure bookkeeping -- the service decides *when* to
    warm (idle drain gaps) and does the recompute itself; the warmer
    decides *what* is worth warming:

    * :meth:`note_request` counts how often each digest arrives and
      remembers the most recent request planes/plan for it (a bounded
      LRU of ``max_tracked`` digests -- warming needs the inputs to
      recompute from);
    * :meth:`note_eviction` (wired to :attr:`ExplanationCache
      .on_evict`) stages an evicted digest as a warming candidate iff
      it has recurred at least ``min_recurrences`` times -- a
      one-shot digest will likely never be asked again, so re-warming
      it would waste idle device time;
    * :meth:`pop_candidates` hands back up to ``limit`` staged
      candidates that are still absent from the cache, oldest eviction
      first, each at most once.

    Everything is insertion-ordered plain dicts: given the same trace,
    the same candidates stage in the same order -- warming is as
    replayable as the rest of the event loop.
    """

    def __init__(
        self, max_tracked: int = 64, min_recurrences: int = 2
    ) -> None:
        if max_tracked <= 0:
            raise ValueError(
                f"max_tracked must be positive, got {max_tracked}"
            )
        if min_recurrences < 2:
            raise ValueError(
                "min_recurrences below 2 would warm one-shot digests, "
                f"got {min_recurrences}"
            )
        self.max_tracked = int(max_tracked)
        self.min_recurrences = int(min_recurrences)
        self._counts: dict[str, int] = {}
        #: digest -> (x, y, batch key, plan): the inputs a recompute needs.
        self._planes: "OrderedDict[str, tuple]" = OrderedDict()
        self._staged: "OrderedDict[str, None]" = OrderedDict()
        self.warmed = 0  # incremented by the service per warmed entry

    def note_request(self, digest: str, x, y, key, plan) -> None:
        """Record one arrival of ``digest`` (hit or miss alike)."""
        self._counts[digest] = self._counts.get(digest, 0) + 1
        if digest in self._planes:
            self._planes.move_to_end(digest)
        self._planes[digest] = (x, y, key, plan)
        while len(self._planes) > self.max_tracked:
            dropped, _ = self._planes.popitem(last=False)
            self._staged.pop(dropped, None)

    def note_eviction(self, digest: str) -> None:
        """Stage an evicted digest for warming if it recurs."""
        if (
            self._counts.get(digest, 0) >= self.min_recurrences
            and digest in self._planes
        ):
            self._staged[digest] = None

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    def pop_candidates(self, cache: ExplanationCache, limit: int) -> list:
        """Up to ``limit`` staged ``(digest, x, y, key, plan)`` tuples.

        Skips digests the cache re-acquired since staging (a later
        miss already refilled them); popped candidates are consumed --
        re-staging requires another eviction.
        """
        candidates = []
        while self._staged and len(candidates) < limit:
            digest, _ = self._staged.popitem(last=False)
            if digest in cache:
                continue
            planes = self._planes.get(digest)
            if planes is not None:
                candidates.append((digest, *planes))
        return candidates

    def __repr__(self) -> str:
        return (
            f"<SpeculativeWarmer {len(self._counts)} digests tracked, "
            f"{len(self._staged)} staged, {self.warmed} warmed>"
        )
