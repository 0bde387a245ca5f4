"""The paper's interpretation step, written out literally.

The one reference every equivalence test compares the library against:

* per pair, :func:`solve` fits the kernel by Eq. 4, one device op at
  a time (two transforms, a conjugate and two Hadamard products per
  pair, then the regularizing add, the division and one inverse
  transform);
* then, for every feature, the feature is masked and the distilled
  model re-run -- one circular convolution per mask (Eq. 5) -- through
  :func:`repro.fft.fft_circular_convolve2d`, or, given a device, through
  ``device.conv2d_circular`` inside one ``device.program`` per pair;
* last, the pair's fit residual is one more convolution of the unmasked
  plane.

Kernels and residuals must match this loop bit for bit, and so must
scores, except where the fleet scores by linearity instead of one
convolution per mask (:func:`by_linearity`): there they must match
within :data:`SCORE_TOLERANCE` of the pair's largest score
(:func:`assert_matches`).

With a device this is exactly the execution
:func:`repro.bench.workloads.interpretation_seconds` models (the
paper's measured loop), so its ledger is what Table II prices.  Masks
are built one at a time from their definition, independently of
:class:`repro.core.masking.MaskSpec`.

:func:`planted_pairs` writes the planted-pair recipe out the same way,
one convolution per pair, for the generators in
:mod:`repro.bench.workloads` that batch it.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.distillation import ConvolutionDistiller
from repro.core.fleet import feed_bytes, wave_dtype_key
from repro.core.transform import OutputEmbedding
from repro.fft import fft_circular_convolve2d
from repro.hw.cpu import CpuDevice
from repro.hw.quantize import resolve_precision

#: Largest difference from this loop, as a share of the pair's largest
#: score, of scores the fleet computes by linearity.
SCORE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Explanation:
    kernel: np.ndarray
    scores: np.ndarray
    residual: float


def solve(xs, ys, eps, device):
    """Eq. 4 (Wiener form) for the kernel shared by pairs ``(xs[b], ys[b])``."""
    numerator = np.zeros(np.shape(xs)[-2:], dtype=np.complex128)
    denominator = np.zeros(np.shape(xs)[-2:], dtype=np.complex128)
    for x, y in zip(xs, ys):
        x_hat = device.fft2(x)
        y_hat = device.fft2(y)
        x_conj = device.conjugate(x_hat)
        numerator = numerator + device.hadamard(y_hat, x_conj, op="mul")
        denominator = denominator + device.hadamard(x_hat, x_conj, op="mul")
    eps_plane = np.full(denominator.shape, eps, dtype=np.complex128)
    regularized = device.hadamard(denominator, eps_plane, op="add")
    kernel = device.ifft2(device.hadamard(numerator, regularized, op="div"))
    if np.isrealobj(xs) and np.isrealobj(ys):
        return np.ascontiguousarray(kernel.real)
    return kernel


def masks(granularity, shape, block_shape=None):
    """Yield ``(label, mask)`` for every feature, in score order."""
    m, n = shape
    if granularity == "elements":
        cells = [((i, j), (slice(i, i + 1), slice(j, j + 1))) for i in range(m) for j in range(n)]
    elif granularity == "blocks":
        bh, bw = block_shape
        cells = [
            ((bi, bj), (slice(bi * bh, (bi + 1) * bh), slice(bj * bw, (bj + 1) * bw)))
            for bi in range(m // bh)
            for bj in range(n // bw)
        ]
    elif granularity == "columns":
        cells = [((j,), (slice(None), slice(j, j + 1))) for j in range(n)]
    elif granularity == "rows":
        cells = [((i,), (slice(i, i + 1), slice(None))) for i in range(m)]
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    for label, window in cells:
        mask = np.zeros(shape, dtype=bool)
        mask[window] = True
        yield label, mask


def score_shape(granularity, shape, block_shape=None):
    m, n = shape
    if granularity == "elements":
        return (m, n)
    if granularity == "blocks":
        return (m // block_shape[0], n // block_shape[1])
    return (n,) if granularity == "columns" else (m,)


def reduce(delta, reduction="l2"):
    """Eq. 5's scalar score of one residual plane."""
    magnitudes = np.abs(delta[np.newaxis])
    if reduction == "l2":
        return np.sqrt(np.sum(magnitudes**2, axis=(-2, -1)))[0]
    if reduction == "l1":
        return np.sum(magnitudes, axis=(-2, -1))[0]
    if reduction == "mean_abs":
        return np.mean(magnitudes, axis=(-2, -1))[0]
    if reduction == "max_abs":
        return np.max(magnitudes, axis=(-2, -1))[0]
    raise ValueError(f"unknown reduction {reduction!r}")


def occlusion_scores(
    x, kernel, y, granularity, block_shape=None, reduction="l2", fill_value=0.0,
    precision=None, device=None,
):
    """One masked re-convolution per feature, scored against ``y``."""
    x, kernel, y = np.asarray(x), np.asarray(kernel), np.asarray(y)
    spec = resolve_precision(precision)
    scores = np.empty(score_shape(granularity, x.shape, block_shape))
    for label, mask in masks(granularity, x.shape, block_shape):
        masked = np.where(mask, fill_value, x)
        if device is None:
            convolved = fft_circular_convolve2d(masked, kernel, precision=spec)
        else:
            convolved = device.conv2d_circular(masked, kernel, precision=spec)
        scores[label] = reduce(y - convolved, reduction)
    return scores


def explain(
    x, y, granularity="blocks", block_shape=None, eps=1e-6, reduction="l2",
    fill_value=0.0, precision=None, device=None,
):
    """Distill then interpret one pair (no program scoping).

    Without a device the solve runs on a throwaway :class:`CpuDevice`
    (same numbers, ledger discarded).
    """
    x, y = np.asarray(x), np.asarray(y)
    lifter = ConvolutionDistiller(embedding=OutputEmbedding("identity"))
    y_plane = lifter.lift_outputs(y, 1, x.shape)[0]
    kernel = solve([x], [y_plane], eps, device or CpuDevice())
    scores = occlusion_scores(
        x, kernel, y_plane, granularity, block_shape, reduction, fill_value,
        precision, device,
    )
    spec = resolve_precision(precision)
    if device is None:
        predicted = fft_circular_convolve2d(x, kernel, precision=spec)
    else:
        predicted = device.conv2d_circular(x, kernel, precision=spec)
    residual = float(np.sqrt(np.mean(np.abs(predicted - y_plane) ** 2)))
    return Explanation(kernel, scores, residual)


def explain_all(pairs, device=None, **options):
    """:func:`explain` for every pair; one ``device.program`` per pair."""
    explanations = []
    for x, y in pairs:
        x, y = np.asarray(x), np.asarray(y)
        if device is None:
            explanations.append(explain(x, y, **options))
            continue
        infeed = feed_bytes([x, y], resolve_precision(options.get("precision")))
        with device.program(infeed_bytes=infeed, outfeed_bytes=x.nbytes):
            explanations.append(explain(x, y, device=device, **options))
    return explanations


def by_linearity(x, y, granularity, reduction="l2", precision=None):
    """Whether the fleet scores ``(x, y)`` by linearity, not one convolution per mask.

    ``elements`` plans always are; other plans are at the ``l2``
    reduction and an exact precision when the pair keys as ``(float64,
    float64, float64)`` (:func:`repro.core.fleet.wave_dtype_key`).  (A
    plan too wide for the fleet's window memory is convolved anyway,
    which meets the tolerance trivially.)
    """
    if granularity == "elements":
        return True
    spec = resolve_precision(precision)
    return (
        reduction == "l2" and (spec is None or spec.is_exact)
        and wave_dtype_key(x, y) == (np.dtype(np.float64),) * 3
    )


def relative_error(actual, expected):
    """Largest difference as a share of the largest expected magnitude."""
    scale = np.max(np.abs(expected))
    return np.max(np.abs(actual - expected)) / scale if scale else np.max(np.abs(actual))


def assert_matches(
    results, expected, pairs, granularity, reduction="l2", precision=None, **_
):
    """Fleet ``results`` for ``pairs`` match this loop's ``expected``.

    Kernels and residuals bit for bit; scores bit for bit, or within
    :data:`SCORE_TOLERANCE` where :func:`by_linearity` holds.  Takes the
    options :func:`explain_all` took.
    """
    assert len(results) == len(expected) == len(pairs)
    for (x, y), result, want in zip(pairs, results, expected):
        np.testing.assert_array_equal(result.kernel, want.kernel)
        assert result.residual == want.residual
        assert result.scores.shape == want.scores.shape
        if by_linearity(np.asarray(x), np.asarray(y), granularity, reduction, precision):
            assert relative_error(result.scores, want.scores) <= SCORE_TOLERANCE
        else:
            np.testing.assert_array_equal(result.scores, want.scores)


def planted_pairs(count, shape, seed, repeat_fraction=None, spike=5.0):
    """The planted ``(x, y)`` recipe, one pair and one convolution at a time.

    With ``repeat_fraction=None`` this is the stream of
    :func:`repro.bench.workloads.planted_interpretation_pairs`: per
    pair, ``x`` and then its kernel.  With a fraction it is that of
    :func:`~repro.bench.workloads.planted_request_pairs`: every entry
    after the first draws ``random()``, and below the fraction it draws
    ``integers(index)`` and repeats that entry's tuple.  Each ``y`` is
    ``fft_circular_convolve2d(x, kernel)`` of its own pair; the
    generators batch those convolutions and must match this bit for bit.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for index in range(count):
        if repeat_fraction is not None and index and rng.random() < repeat_fraction:
            pairs.append(pairs[int(rng.integers(index))])
            continue
        x = rng.standard_normal(shape)
        x[0, 0] += spike * float(np.prod(shape)) ** 0.5
        kernel = rng.standard_normal(shape)
        pairs.append((x, fft_circular_convolve2d(x, kernel)))
    return pairs
