"""The planted-pair generators against the per-pair recipe.

:func:`~repro.bench.workloads.planted_interpretation_pairs` and
:func:`~repro.bench.workloads.planted_request_pairs` convolve their
pairs in batched chunks; every plane must carry the bytes of
:func:`tests.reference.planted_pairs`, which convolves one pair at a
time, and repeats must stay the same objects.
"""

import numpy as np
import pytest

from repro.bench.workloads import (
    SYNTHESIS_CHUNK_ELEMENTS,
    planted_interpretation_pairs,
    planted_request_pairs,
)
from repro.fft import kernel_spectrum_cache_info
from repro.serve import bursty_requests, poisson_requests
from tests import reference

SHAPES = [(16, 16), (64, 64), (36, 36), (8, 12), (15, 9)]


def chunk_pairs(shape):
    """Pairs one batched transform convolves for ``shape`` planes."""
    return max(1, SYNTHESIS_CHUNK_ELEMENTS // (shape[0] * shape[1]))


def assert_same_bytes(pairs, expected):
    assert len(pairs) == len(expected)
    for (x, y), (want_x, want_y) in zip(pairs, expected):
        assert x.dtype == y.dtype == np.float64
        assert x.shape == y.shape == want_x.shape
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == want_y.tobytes()


def repeat_structure(pairs):
    """Each entry's first position holding the same tuple object."""
    first = {}
    return [first.setdefault(id(pair), index) for index, pair in enumerate(pairs)]


class TestRequestPairs:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("repeat_fraction", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_match_the_per_pair_recipe(self, shape, repeat_fraction, seed):
        pairs = planted_request_pairs(
            24, shape=shape, seed=seed, repeat_fraction=repeat_fraction
        )
        expected = reference.planted_pairs(24, shape, seed, repeat_fraction)
        assert_same_bytes(pairs, expected)
        assert repeat_structure(pairs) == repeat_structure(expected)

    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("repeat_fraction", [0.0, 0.3, 1.0])
    def test_smallest_counts(self, count, repeat_fraction):
        pairs = planted_request_pairs(
            count, shape=(15, 9), seed=3, repeat_fraction=repeat_fraction
        )
        assert_same_bytes(pairs, reference.planted_pairs(count, (15, 9), 3, repeat_fraction))

    @pytest.mark.parametrize("repeat_fraction", [0.0, 0.3])
    def test_count_above_the_chunk_size(self, repeat_fraction):
        """Chunk boundaries move no bits, and a repeat may reach back
        into an earlier chunk."""
        count = 2 * chunk_pairs((16, 16)) + 7
        pairs = planted_request_pairs(count, seed=4, repeat_fraction=repeat_fraction)
        expected = reference.planted_pairs(count, (16, 16), 4, repeat_fraction)
        assert_same_bytes(pairs, expected)
        assert repeat_structure(pairs) == repeat_structure(expected)

    def test_new_pairs_own_their_arrays(self):
        """No plane is a view into a batch, so none keeps a chunk alive."""
        pairs = planted_request_pairs(60, shape=(8, 12), seed=5, repeat_fraction=0.3)
        unique = list({id(pair): pair for pair in pairs}.values())
        assert len(unique) < len(pairs)
        planes = [plane for pair in unique for plane in pair]
        for plane in planes:
            assert plane.flags.c_contiguous and plane.flags.owndata
        for i, a in enumerate(planes):
            for b in planes[i + 1 :]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("repeat_fraction", [-0.1, 1.5, np.nan])
    def test_repeat_fraction_outside_the_unit_interval_raises(self, repeat_fraction):
        with pytest.raises(ValueError, match="repeat_fraction"):
            planted_request_pairs(4, repeat_fraction=repeat_fraction)


class TestInterpretationPairs:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_match_the_per_pair_recipe(self, shape, seed):
        pairs = planted_interpretation_pairs(12, shape=shape, seed=seed)
        assert_same_bytes(pairs, reference.planted_pairs(12, shape, seed))
        assert len({id(plane) for pair in pairs for plane in pair}) == 24

    @pytest.mark.parametrize("count", [0, 1])
    def test_smallest_counts(self, count):
        pairs = planted_interpretation_pairs(count, shape=(8, 12), seed=7)
        assert_same_bytes(pairs, reference.planted_pairs(count, (8, 12), 7))

    def test_count_above_the_chunk_size(self):
        count = chunk_pairs((36, 36)) + 3
        pairs = planted_interpretation_pairs(count, shape=(36, 36), seed=8)
        assert_same_bytes(pairs, reference.planted_pairs(count, (36, 36), 8))

    def test_spike_scales_the_planted_feature(self):
        pairs = planted_interpretation_pairs(2, shape=(15, 9), seed=9, spike=2.5)
        assert_same_bytes(pairs, reference.planted_pairs(2, (15, 9), 9, spike=2.5))


def assert_trace_matches(requests, expected):
    """A trace's planes match the recipe, and a repeated request carries
    the very arrays of the request it repeats."""
    assert_same_bytes([(r.x, r.y) for r in requests], expected)
    first = {}
    for request, index in zip(requests, repeat_structure(expected)):
        x, y = first.setdefault(index, (request.x, request.y))
        assert request.x is x and request.y is y
    assert len(first) < len(requests)


class TestTraces:
    def test_poisson_trace_matches_the_per_pair_recipe(self):
        requests = poisson_requests(
            50, rate=400.0, seed=10, shape=(16, 16), repeat_fraction=0.3
        )
        assert_trace_matches(requests, reference.planted_pairs(50, (16, 16), 10, 0.3))

    def test_bursty_trace_matches_the_per_pair_recipe(self):
        requests = bursty_requests(
            45, burst_size=20, burst_gap=0.05, jitter=0.02, seed=11,
            shape=(16, 16), repeat_fraction=0.3,
        )
        assert_trace_matches(requests, reference.planted_pairs(45, (16, 16), 11, 0.3))


def test_generation_leaves_the_kernel_spectrum_cache_alone():
    """Synthesis transforms its kernels itself: no lookup, no entry."""
    before = kernel_spectrum_cache_info()
    planted_interpretation_pairs(5, shape=(36, 36), seed=12)
    planted_request_pairs(40, seed=12, repeat_fraction=0.3)
    bursty_requests(30, burst_size=10, burst_gap=0.01, seed=12, repeat_fraction=0.3)
    assert kernel_spectrum_cache_info() == before
