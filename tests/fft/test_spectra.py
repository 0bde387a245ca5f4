"""Tests for the process-level kernel-spectrum cache."""

import threading

import numpy as np
import pytest

from repro.fft import (
    KernelSpectrum,
    KernelSpectrumCache,
    clear_kernel_spectrum_cache,
    kernel_digest,
    kernel_spectrum,
    kernel_spectrum_cache,
    kernel_spectrum_cache_info,
)
from repro.fft.fft2d import fft2_batch, rfft2_batch


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_kernel_spectrum_cache()
    yield
    clear_kernel_spectrum_cache()


class FakePrecision:
    name = "fake3"

    def apply(self, array):
        array = np.asarray(array)
        if np.iscomplexobj(array):
            return np.round(array.real, 3) + 1j * np.round(array.imag, 3)
        return np.round(array, 3)


class TestKernelDigest:
    def test_equal_bytes_share_a_digest(self):
        a = np.arange(16.0).reshape(4, 4)
        assert kernel_digest(a) == kernel_digest(a.copy())

    def test_content_shape_and_dtype_all_distinguish(self):
        a = np.arange(16.0).reshape(4, 4)
        flipped = a.copy()
        flipped[0, 0] += 1e-12
        assert kernel_digest(a) != kernel_digest(flipped)
        assert kernel_digest(a) != kernel_digest(a.reshape(2, 8))
        assert kernel_digest(a) != kernel_digest(a.astype(np.float32))

    def test_non_contiguous_views_digest_by_content(self):
        a = np.arange(32.0).reshape(4, 8)
        view = a[:, ::2]
        assert kernel_digest(view) == kernel_digest(view.copy())

    def test_float64_digest_is_pinned(self):
        """Only padded dtypes changed how they hash."""
        assert kernel_digest(np.arange(16.0).reshape(4, 4)) == (
            "12cb3d0ee7d3fb4bfd5fbbebad94e61a7fecb3308d9a2ebf10aa0db2441044ff"
        )

    def test_longdouble_padding_bytes_do_not_split_a_digest(self, padded_twins):
        a, b = padded_twins
        assert kernel_digest(a) == kernel_digest(b)
        changed = b.copy()
        changed.flat[0] = np.nextafter(changed.real.flat[0], np.inf)
        assert kernel_digest(changed) != kernel_digest(a)


class TestKernelSpectrumRecord:
    def test_validates_kind(self):
        with pytest.raises(ValueError, match="kind"):
            KernelSpectrum(np.ones((4, 3), dtype=complex), "diagonal", (4, 4))

    def test_validates_trailing_shape(self):
        with pytest.raises(ValueError, match="trailing shape"):
            KernelSpectrum(np.ones((4, 4), dtype=complex), "half", (4, 4))
        # (4, 3) is the right half-spectrum shape for a (4, 4) plane.
        KernelSpectrum(np.ones((4, 3), dtype=complex), "half", (4, 4))
        KernelSpectrum(np.ones((4, 4), dtype=complex), "full", (4, 4))


class TestProcessCache:
    def test_hit_returns_same_transform_once(self):
        rng = np.random.default_rng(0)
        k = rng.standard_normal((8, 8))
        first = kernel_spectrum(k, real=True)
        second = kernel_spectrum(k.copy(), real=True)
        np.testing.assert_array_equal(first.array, second.array)
        info = kernel_spectrum_cache_info()
        assert info["kernel_transforms"] == 1
        assert info["hits"] >= 1

    def test_half_and_full_are_separate_entries(self):
        rng = np.random.default_rng(1)
        k = rng.standard_normal((8, 8))
        half = kernel_spectrum(k, real=True)
        full = kernel_spectrum(k, real=False)
        assert half.kind == "half" and full.kind == "full"
        assert half.array.shape == (8, 5)
        assert full.array.shape == (8, 8)
        assert kernel_spectrum_cache_info()["kernel_transforms"] == 2
        np.testing.assert_allclose(full.array[:, :5], half.array, atol=1e-12)

    def test_results_match_direct_transforms(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((3, 8, 8))
        np.testing.assert_array_equal(
            kernel_spectrum(stack, real=True).array, rfft2_batch(stack)
        )
        np.testing.assert_array_equal(
            kernel_spectrum(stack, real=False).array, fft2_batch(stack)
        )

    def test_quantized_entry_derives_without_retransform(self):
        rng = np.random.default_rng(3)
        k = rng.standard_normal((8, 8))
        spec = FakePrecision()
        raw = kernel_spectrum(k, real=True)
        assert kernel_spectrum_cache_info()["kernel_transforms"] == 1
        quantized = kernel_spectrum(k, real=True, precision=spec)
        # The quantized entry was derived from the cached raw spectrum:
        # no second transform, bit-identical to quantizing fresh.
        assert kernel_spectrum_cache_info()["kernel_transforms"] == 1
        assert quantized.precision_name == "fake3"
        np.testing.assert_array_equal(quantized.array, spec.apply(raw.array))
        # A repeat is a plain hit.
        kernel_spectrum(k, real=True, precision=spec)
        assert kernel_spectrum_cache_info()["kernel_transforms"] == 1

    def test_quantized_first_also_caches_raw(self):
        rng = np.random.default_rng(4)
        k = rng.standard_normal((8, 8))
        kernel_spectrum(k, real=True, precision=FakePrecision())
        assert kernel_spectrum_cache_info()["kernel_transforms"] == 1
        kernel_spectrum(k, real=True)  # raw entry already present
        assert kernel_spectrum_cache_info()["kernel_transforms"] == 1

    def test_cached_arrays_are_read_only(self):
        k = np.ones((4, 4))
        spectrum = kernel_spectrum(k, real=True)
        with pytest.raises(ValueError):
            spectrum.array[0, 0] = 0

    def test_cached_spectra_equal_fresh_transforms(self):
        rng = np.random.default_rng(5)
        k = rng.standard_normal((8, 8))
        for _ in range(2):  # the miss that transforms, then the hit
            half = kernel_spectrum(k, real=True)
            full = kernel_spectrum(k, real=False)
            np.testing.assert_array_equal(half.array, rfft2_batch(k))
            np.testing.assert_array_equal(full.array, fft2_batch(k))
        info = kernel_spectrum_cache_info()
        assert info["kernel_transforms"] == 2
        assert info["hits"] == 2

    def test_clear_resets_entries_and_counters(self):
        kernel_spectrum(np.ones((4, 4)), real=True)
        clear_kernel_spectrum_cache()
        info = kernel_spectrum_cache_info()
        assert info["entries"] == 0
        assert info["current_bytes"] == 0
        assert info["hits"] == info["misses"] == info["kernel_transforms"] == 0


class TestEviction:
    def test_lru_eviction_under_byte_budget(self):
        plane = np.zeros((8, 8))
        entry_bytes = rfft2_batch(plane).nbytes
        cache = KernelSpectrumCache(max_bytes=3 * entry_bytes)
        for i in range(5):
            cache.put((f"k{i}", "half", None), rfft2_batch(plane + i))
        info = cache.info()
        assert info["entries"] == 3
        assert info["evictions"] == 2
        assert info["current_bytes"] <= cache.max_bytes
        # Oldest entries went first.
        assert cache.get(("k0", "half", None)) is None
        assert cache.get(("k4", "half", None)) is not None

    def test_recently_used_entries_survive(self):
        plane = np.zeros((8, 8))
        entry_bytes = rfft2_batch(plane).nbytes
        cache = KernelSpectrumCache(max_bytes=2 * entry_bytes)
        cache.put(("a", "half", None), rfft2_batch(plane))
        cache.put(("b", "half", None), rfft2_batch(plane + 1))
        assert cache.get(("a", "half", None)) is not None  # refresh "a"
        cache.put(("c", "half", None), rfft2_batch(plane + 2))  # evicts "b"
        assert cache.get(("a", "half", None)) is not None
        assert cache.get(("b", "half", None)) is None

    def test_oversized_entry_is_not_cached(self):
        cache = KernelSpectrumCache(max_bytes=64)
        assert cache.put(("big", "full", None), np.zeros((8, 8), dtype=complex)) is False
        assert len(cache) == 0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            KernelSpectrumCache(max_bytes=0)


class TestThreadSafety:
    def test_concurrent_lookups_agree_and_stay_consistent(self):
        rng = np.random.default_rng(6)
        kernels = [rng.standard_normal((16, 16)) for _ in range(4)]
        expected = [rfft2_batch(k) for k in kernels]
        errors = []

        def hammer(seed):
            local = np.random.default_rng(seed)
            try:
                for _ in range(50):
                    i = int(local.integers(len(kernels)))
                    result = kernel_spectrum(kernels[i], real=True)
                    if not np.array_equal(result.array, expected[i]):
                        raise AssertionError(f"kernel {i} spectrum corrupted")
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        info = kernel_spectrum_cache_info()
        assert info["entries"] == len(kernels)
        # A racing miss may transform the same kernel twice (benign),
        # but never more than once per thread per kernel.
        assert len(kernels) <= info["kernel_transforms"] <= 8 * len(kernels)
        assert kernel_spectrum_cache() is not None
