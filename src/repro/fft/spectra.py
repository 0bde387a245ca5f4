"""Process-level kernel-spectrum cache: content-addressed, byte-budgeted.

Every FFT-form convolution transforms its kernel before the Hadamard
product.  The batched engine amortizes that transform *within* one call,
and the serve-layer :class:`~repro.serve.cache.ExplanationCache` catches
repeated *requests* -- but nothing below them caught repeated *kernels*:
a per-mask ``conv2d_circular`` sweep re-transforms the same kernel once
per mask.  This module closes that gap with one process-wide cache of
kernel spectra, keyed by **content digest + spectrum kind + precision**
(SHA-256 over the kernel's dtype, shape and raw bytes), so byte-equal
kernels share one transform however they arrive.

Its callers are the convolutions of :mod:`repro.fft.convolution`:
:func:`~repro.fft.convolution.fft_circular_convolve2d` (one plane: the
device's ``conv2d_circular``, the distiller's predictions, the looped
interpretation helpers) and
:func:`~repro.fft.convolution.fft_circular_convolve2d_chunks` (a stream
of planes: the device's batched convolutions, and the full spectrum of
a real kernel under complex planes).  Neither a fleet wave nor
:func:`~repro.core.masking.score_plan` looks up a real plane's kernel:
:func:`~repro.core.masking.convolve_windows` transforms its kernels
itself, once per call, and hands their half spectra to the stream as a
raw :class:`KernelSpectrum` (a wave's kernels are solved fresh and
never repeat, so digesting them would buy no hit).

Entries are raw (unquantized) spectra plus, per requested precision, the
quantized variant derived from the raw entry -- a quantized lookup never
re-runs the transform, only the cheap per-plane rounding, and the
``kernel_transforms`` counter counts *actual* FFT computations so
benchmarks can assert a warm cache performs zero kernel re-transforms.

The cache is thread-safe (one lock around the LRU book-keeping; a racing
miss may compute the same spectrum twice but never corrupts the cache),
evicts least-recently-used entries under a byte budget, and hands out
read-only arrays so a caller mutating a cached spectrum fails loudly.
It caches host-side work only: simulated-device ledgers are recorded by
the :mod:`repro.hw.device` layer independently of cache hits, so cost
models and dispatch audits are byte-identical whether a lookup hits or
misses.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.fft.fft2d import fft2_batch, rfft2_batch

#: Default budget: generous for benchmark fleets (a 64x64 half spectrum
#: is ~33 KB) while keeping eviction reachable by modest sweeps.
DEFAULT_SPECTRUM_CACHE_BYTES = 32 * 1024**2

_KINDS = ("half", "full")


#: How many leading bytes of an 80-bit extended ``longdouble`` slot
#: (16 bytes on x86-64, 12 on x86) hold its value.
_EXTENDED_VALUE_BYTES = 10


def value_buffer(array: np.ndarray) -> np.ndarray:
    """A C-contiguous array whose buffer is ``array``'s value bytes.

    For every dtype but one that buffer is the array itself, the bytes
    ``tobytes()`` copies.  The exception is the 80-bit extended
    ``longdouble`` (x86), and ``clongdouble`` built from it: each value
    fills only the first 10 bytes of its slot, and the rest is padding
    whose content is arbitrary, so equal arrays can differ there.  Those
    give a ``uint8`` array of each component's 10 value bytes.  Content
    digests hash this buffer, so equal values always share a digest.
    """
    array = np.ascontiguousarray(array)
    kind = array.dtype.kind
    slot = array.dtype.itemsize // (2 if kind == "c" else 1)
    if (
        kind not in "fc"
        or slot <= _EXTENDED_VALUE_BYTES
        or np.finfo(array.dtype).nmant != 63
    ):
        return array
    slots = array.view(np.uint8).reshape(-1, slot)
    return np.ascontiguousarray(slots[:, :_EXTENDED_VALUE_BYTES])


def kernel_digest(kernel: np.ndarray) -> str:
    """SHA-256 content digest of a kernel plane or stack.

    Covers dtype, shape and value bytes (:func:`value_buffer`), so
    equal kernels collide by construction and anything else (one
    flipped bit, a reshaped stack) lands elsewhere -- the same content
    addressing as the serve cache.
    """
    kernel = np.ascontiguousarray(np.asarray(kernel))
    digest = hashlib.sha256()
    digest.update(str(kernel.dtype).encode())
    digest.update(str(kernel.shape).encode())
    digest.update(value_buffer(kernel))
    return digest.hexdigest()


@dataclass(frozen=True)
class KernelSpectrum:
    """A kernel spectrum plus the metadata needed to use it safely.

    ``kind`` is ``"half"`` (``(..., M, N//2+1)`` non-redundant bins of a
    real kernel, from :func:`~repro.fft.fft2d.rfft2_batch`) or
    ``"full"`` (``(..., M, N)`` complex spectrum).  ``plane_shape`` is
    the spatial ``(M, N)`` -- a half spectrum alone cannot distinguish
    even from odd ``N``.  ``precision_name`` is the name of the
    :class:`~repro.hw.quantize.PrecisionSpec` already applied to
    ``array``, or ``None`` for a raw spectrum.
    """

    array: np.ndarray
    kind: str
    plane_shape: tuple[int, int]
    precision_name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"spectrum kind must be one of {_KINDS}, got {self.kind!r}")
        m, n = self.plane_shape
        expected = (m, n // 2 + 1) if self.kind == "half" else (m, n)
        if self.array.shape[-2:] != expected:
            raise ValueError(
                f"{self.kind} spectrum of a {self.plane_shape} plane must have "
                f"trailing shape {expected}, got {self.array.shape[-2:]}"
            )


class KernelSpectrumCache:
    """Thread-safe byte-budgeted LRU of kernel spectra.

    Keys are ``(digest, kind, precision_name)`` tuples; values are
    read-only spectrum arrays.  ``hits`` / ``misses`` count lookups,
    ``stores`` / ``evictions`` count entry movement, and
    ``kernel_transforms`` counts actual forward FFTs performed on
    behalf of the cache (a warm cache performs none).
    """

    def __init__(self, max_bytes: int = DEFAULT_SPECTRUM_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"cache budget must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.kernel_transforms = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, array: np.ndarray) -> bool:
        """Store a spectrum; returns whether it was cached.

        Entries bigger than the whole budget are not cached; otherwise
        LRU entries are evicted until the new entry fits.  The array is
        frozen read-only -- the same object is handed to every hit, and
        a caller writing into it must get a loud ``ValueError``.
        """
        nbytes = int(array.nbytes)
        if nbytes > self.max_bytes:
            return False
        array.setflags(write=False)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            while self.current_bytes + nbytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.current_bytes -= int(evicted.nbytes)
                self.evictions += 1
            self._entries[key] = array
            self.current_bytes += nbytes
            self.stores += 1
            return True

    def count_transform(self) -> None:
        with self._lock:
            self.kernel_transforms += 1

    def info(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "kernel_transforms": self.kernel_transforms,
            }

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0
            self.hits = 0
            self.misses = 0
            self.stores = 0
            self.evictions = 0
            self.kernel_transforms = 0

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"<KernelSpectrumCache {info['entries']} entries, "
            f"{info['current_bytes']}/{info['max_bytes']} bytes, "
            f"{info['hits']} hits / {info['misses']} misses / "
            f"{info['kernel_transforms']} transforms>"
        )


#: The process-level cache instance used by the convolution hot paths.
_PROCESS_CACHE = KernelSpectrumCache()


def kernel_spectrum_cache() -> KernelSpectrumCache:
    """The process-level cache (for inspection and tests)."""
    return _PROCESS_CACHE


def kernel_spectrum_cache_info() -> dict[str, int]:
    """Counters of the process-level kernel-spectrum cache."""
    return _PROCESS_CACHE.info()


def clear_kernel_spectrum_cache() -> None:
    """Drop every cached kernel spectrum and reset the counters."""
    _PROCESS_CACHE.clear()


def _transform(kernel: np.ndarray, kind: str) -> np.ndarray:
    if kind == "half":
        return rfft2_batch(kernel)
    return fft2_batch(kernel)


def kernel_spectrum(kernel: np.ndarray, real: bool, precision=None) -> KernelSpectrum:
    """The (possibly cached) spectrum of a kernel plane or stack.

    ``kernel`` is one ``(M, N)`` plane or a ``(P, M, N)`` stack (a
    wave's per-pair kernels, digested and transformed as one unit).
    ``real=True`` returns the half spectrum (the real-input fast path);
    ``real=False`` the full complex spectrum.  ``precision`` (an
    optional duck-typed :class:`~repro.hw.quantize.PrecisionSpec`)
    returns the quantized spectrum -- derived from the cached raw entry,
    so a precision switch never re-runs the transform -- with results
    bit-identical to computing fresh either way.
    """
    kernel = np.asarray(kernel)
    kind = "half" if real else "full"
    plane_shape = (int(kernel.shape[-2]), int(kernel.shape[-1]))
    precision_name = None if precision is None else str(precision.name)
    cache = _PROCESS_CACHE
    digest = kernel_digest(kernel)
    key = (digest, kind, precision_name)
    array = cache.get(key)
    if array is None:
        if precision is None:
            cache.count_transform()
            array = _transform(kernel, kind)
        else:
            raw_key = (digest, kind, None)
            raw = cache.get(raw_key)
            if raw is None:
                cache.count_transform()
                raw = _transform(kernel, kind)
                cache.put(raw_key, raw)
            array = precision.apply(raw)
        cache.put(key, array)
    return KernelSpectrum(array, kind, plane_shape, precision_name)


def fft_plan_cache_info() -> dict[str, int]:
    """Entry count and lifetime counters of the host transforms' caches.

    ``numpy.fft`` plans its transforms internally, so the kernel-spectrum
    cache is the only cache behind the host transforms.  Its hits,
    misses, stores and evictions carry a ``kernel_spectrum_`` prefix,
    and ``kernel_transforms`` counts the whole transforms it performed.
    :func:`clear_kernel_spectrum_cache` zeroes them.
    """
    info = _PROCESS_CACHE.info()
    return {
        "kernel_spectra": info["entries"],
        "kernel_spectrum_hits": info["hits"],
        "kernel_spectrum_misses": info["misses"],
        "kernel_spectrum_stores": info["stores"],
        "kernel_spectrum_evictions": info["evictions"],
        "kernel_transforms": info["kernel_transforms"],
    }
