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
    elsewhere.  The same as :func:`planes_digest` of the planes and
    :func:`explanation_config`'s bytes.
    """
    return planes_digest(
        x, y,
        explanation_config(
            granularity, block_shape, precision_name, eps, reduction, fill_value,
            embedding_strategy,
        ),
    )


def explanation_config(
    granularity: str,
    block_shape: tuple[int, int] | None,
    precision_name: str | None,
    eps: float,
    reduction: str,
    fill_value: float,
    embedding_strategy: str = "identity",
) -> bytes:
    """The scoring configuration's bytes, which a digest hashes after the
    planes: the ``repr`` of the configuration tuple.  A service builds
    them once per batch key."""
    return repr(
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


def planes_digest(x: np.ndarray, y: np.ndarray, config: bytes) -> str:
    """SHA-256 over ``x``'s and ``y``'s dtype, shape and value bytes, then
    ``config`` (:func:`explanation_config`): the recipe of
    :func:`explanation_digest`."""
    digest = hashlib.sha256()
    for plane in (x, y):
        plane = np.ascontiguousarray(np.asarray(plane))
        digest.update(_plane_tag(plane.dtype, plane.shape))
        digest.update(value_buffer(plane))  # no copy unless longdouble padding
    digest.update(config)
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
            _, evicted = self._entries.popitem(last=False)
            self.current_bytes -= result_nbytes(evicted)
            self.evictions += 1
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
