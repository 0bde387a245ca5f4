"""Outcome interpretation: contribution factors (paper Eq. 5).

Once the distilled kernel ``K`` is known, the contribution of input
feature ``x_i`` is measured by zeroing it and re-running the distilled
model:

    con(x_i) := Y - X' (*) K         where X' = X with x_i zeroed.

The paper reduces the resulting matrix to a scalar weight per feature
(Figure 5 colours blocks of an image; Figure 6 weights clock-cycle
columns of a trace table).  This module provides:

* :func:`feature_contributions` -- scalar scores for *every* element of
  one pair, with a fast path exploiting convolution linearity:
  ``Y - X'(*)K = (Y - X(*)K) + x_i * roll(K, i)``, so all features share
  one base residual and one kernel roll each -- no re-convolutions (the
  fleet executor scores elements as one-cell masks instead, like every
  other granularity);
* :func:`l2_scores_by_linearity` -- the same linearity for the l2 score
  of *any* mask plan, in closed form: each pair needs one correlation
  plane and one autocorrelation plane, and a mask of ``s`` cells
  ``O(s^2)`` arithmetic, with a guard that hands back every mask whose
  sum cancels (the fleet executor's l2 path);
* :func:`block_contributions` -- Figure 5's block occlusion on images;
* :func:`column_contributions` / :func:`row_contributions` -- Figure 6's
  per-clock-cycle weights on trace tables;
* :func:`top_k_features` -- ranked indices for report generation.

Every occlusion entry point routes through the batched engine of
:mod:`repro.core.masking`: the masks of one granularity form a lazy
:class:`~repro.core.masking.MaskSpec` scored as one conceptual
``(num_masks, M, N)`` batch with the kernel spectrum computed once --
generated, convolved and reduced ``chunk_rows`` planes at a time, so
peak memory is ``O(chunk_rows * M * N)`` on any plane size
(:func:`~repro.core.masking.score_plan`, one pair through the fleet's
windows).

The entry points compute on the host and price nothing: simulated
interpretation time (Table II) is the fleet's, through
:class:`~repro.core.pipeline.ExplanationPipeline` on a device.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.masking import REDUCTIONS, MaskSpec, reduce_batch, score_plan
from repro.fft.convolution import fft_circular_convolve2d
from repro.fft.fft2d import irfft2_batch, rfft2_batch

#: Relative error :func:`l2_scores_by_linearity` allows in a score's
#: square (so about half of it in the score) before it hands the mask
#: back to an exact convolution: a tenth of the 1e-9 relative bound its
#: scores are held to against the per-mask loop.
L2_SQUARE_TOLERANCE = 1e-10


def _reduce(matrix: np.ndarray, reduction: str) -> float:
    return float(reduce_batch(np.asarray(matrix)[np.newaxis], reduction)[0])


def _check_operands(x: np.ndarray, kernel: np.ndarray, y: np.ndarray) -> None:
    if x.shape != kernel.shape or x.shape != y.shape:
        raise ValueError(
            "input, kernel and output must share one shape, got "
            f"{x.shape}, {kernel.shape}, {y.shape}"
        )


def feature_contributions(
    x: np.ndarray,
    kernel: np.ndarray,
    y: np.ndarray,
    reduction: str = "l2",
) -> np.ndarray:
    """Scalar contribution score for every input element.

    Uses linearity of convolution: with base residual
    ``B = Y - X (*) K``, zeroing element ``(i, j)`` gives
    ``con(x_ij) = B + x_ij * roll(K, (i, j))`` -- one convolution total
    instead of one per feature (the literal per-feature Eq. 5 loop
    agrees to rounding, asserted by tests).
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_operands(x, kernel, y)
    if reduction not in REDUCTIONS:
        raise ValueError(
            f"unknown reduction {reduction!r}; expected one of {REDUCTIONS}"
        )
    m, n = x.shape
    base = y - fft_circular_convolve2d(x, kernel)
    scores = np.zeros((m, n))
    for i in range(m):
        rolled_rows = np.roll(kernel, i, axis=0)
        for j in range(n):
            scores[i, j] = _reduce(base + x[i, j] * np.roll(rolled_rows, j, axis=1), reduction)
    return scores


def l2_scores_by_linearity(
    sources: np.ndarray,
    fills: np.ndarray,
    residuals: np.ndarray,
    kernel_spectra: np.ndarray,
    plan: MaskSpec,
    max_floats: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 5's l2 score of every mask of a wave of pairs, by linearity.

    Pair ``p`` has the real input plane ``X = sources[p]``, the fill
    ``fills[p]``, the half spectrum ``kernel_spectra[p]`` of its real
    kernel ``K`` and the residual ``r = residuals[p] = Y - X (*) K``; every
    pair's masks are those of ``plan``.  Masking ``s`` cells subtracts
    ``D = X - fill`` on them (0 elsewhere), and convolution is linear,
    so the masked residual is ``r + D (*) K`` and its squared norm is

        score^2 = ||r||^2 + 2 c . d + d^T G d,

    with ``d`` the mask's ``s`` values of ``D``, ``c`` its values of the
    correlation plane ``r (*) K`` (``sum_t r[t] K[t - q]`` at cell
    ``q``), and ``G[a, b] = A[q_b - q_a]`` read from the autocorrelation
    ``A = K (*) K`` (``sum_t K[t] K[t + q]``) once per plan, since every
    mask of a plan is the first one moved
    (:meth:`~repro.core.masking.MaskSpec.cells_at`).  The wave pays two
    2-D transforms in all: one ``rfft2_batch`` of the residuals, and one
    ``irfft2_batch`` of every pair's ``F(r) conj(F(K))`` stacked on its
    ``|F(K)|^2``, which gives ``c`` and ``A`` at once (each line is
    transformed on its own, so stacking changes no bits).  A mask then
    costs ``O(s^2)`` operations instead of a convolution.

    **The guard.**  With ``u = 2**-53``, ``L = log2(M N)``, ``kappa =
    max |F(K)|`` (the norm of convolving by ``K``), ``||d||_1 = sum |d_a|``
    and ``S = (||r|| + kappa ||d||_1)^2``, the three terms are bounded by
    three parts of ``S``: ``||r||^2``; ``2 |c . d| <= 2 kappa ||r||
    ||d||_1`` (as ``|c_a| <= ||c|| <= kappa ||r||``); and ``|d|^T |G| |d|
    <= kappa^2 ||d||_1^2`` (as ``|A[q]| <= A[0] <= kappa^2``).  Their
    rounding, to first order: ``(L + 20) u`` on the pairwise sum
    ``||r||^2``; ``(s + 1) u`` on the dot product and ``2 s u`` on the
    quadratic form; ``u`` per value of ``d``; at most ``(10 L + 3) u`` of
    ``kappa ||r||`` in ``c`` and of ``kappa^2`` in ``A``, the normwise
    error of an FFT round trip; and ``2 u`` for the two final adds.  So
    the computed square is off by at most ``eps S`` with ``eps = u (2 s +
    10 L + 24)``.  Where the square is at least ``eps S /``
    :data:`L2_SQUARE_TOLERANCE`, that error is at most the tolerance
    times the square, and the score's relative error at most half of it.
    A mask below that threshold -- its terms cancelled -- is flagged in
    ``rescore`` for an exact convolution.  A NaN square never compares
    below it and is kept.  ``r`` carries its own convolution's rounding,
    as every exact masked residual does; that error is not amplified.

    The plan needs ``s * s <= max_floats``: the ``s x s`` matrices are
    gathered for batches of consecutive pairs holding at most
    ``max_floats`` values, each batch's ``d``, ``c`` and ``G`` through
    the plan's flat cell and offset indices, which are built once per
    plan (:func:`_linearity_geometry`).  A mask's score depends only on
    its own pair's planes (one matrix product per pair, elementwise
    products, sums along contiguous rows), so its bits do not depend on
    the other pairs of the wave or on ``max_floats``.

    Returns ``(scores, rescore)``: ``(pairs, masks)`` arrays of float64
    scores and bool flags, a row per pair in mask order.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    num_pairs, m, n = residuals.shape
    sources = np.asarray(sources, dtype=np.float64).reshape(num_pairs, -1)
    fills = np.asarray(fills, dtype=np.float64)
    magnitudes = np.abs(kernel_spectra)
    correlations, autocorrelations = irfft2_batch(
        np.concatenate([rfft2_batch(residuals) * np.conj(kernel_spectra), magnitudes**2]), n=n
    ).reshape(2, num_pairs, -1)
    energies = np.square(residuals).sum(axis=(-2, -1))
    norms = np.sqrt(energies)
    gains = magnitudes.max(axis=(-2, -1))
    scores = np.empty((num_pairs, plan.num_masks))
    rescore = np.empty(scores.shape, bool)
    cells, offsets, eps = _linearity_geometry(plan)
    size = cells.shape[1]
    step = max(1, max_floats // (size * size))
    for lo in range(0, num_pairs, step):
        batch = slice(lo, lo + step)
        d = np.take(sources[batch], cells, axis=1) - fills[batch, np.newaxis, np.newaxis]
        cross = (np.take(correlations[batch], cells, axis=1) * d).sum(axis=-1)
        quadratic = (
            np.matmul(d, np.take(autocorrelations[batch], offsets, axis=1)) * d
        ).sum(axis=-1)
        squares = energies[batch, np.newaxis] + 2.0 * cross + quadratic
        scale = (
            norms[batch, np.newaxis] + gains[batch, np.newaxis] * np.abs(d).sum(axis=-1)
        ) ** 2
        rescore[batch] = squares < eps / L2_SQUARE_TOLERANCE * scale
        scores[batch] = np.sqrt(np.maximum(squares, 0.0))
    return scores, rescore


@functools.lru_cache(maxsize=16)
def _linearity_geometry(plan: MaskSpec) -> tuple:
    """What :func:`l2_scores_by_linearity` reads of ``plan``, built once per plan.

    ``(cells, offsets, eps)``: every mask's flat cell indices
    (:meth:`~repro.core.masking.MaskSpec.cells_at`, ``(num_masks, s)``),
    the ``(s, s)`` flat offsets ``q_b - q_a`` between the first mask's
    cells, wrapped on the plane, at which ``G`` reads the
    autocorrelation, and the guard's ``eps``.  The arrays are read-only:
    every wave of the plan shares them.
    """
    m, n = plan.plane_shape
    cells = plan.cells_at(np.arange(plan.num_masks))
    size = cells.shape[1]
    row, col = np.divmod(cells[0], n)
    offsets = (row - row[:, np.newaxis]) % m * n + (col - col[:, np.newaxis]) % n
    eps = np.finfo(np.float64).eps / 2 * (2 * size + 10 * np.log2(m * n) + 24)
    cells.setflags(write=False)
    offsets.setflags(write=False)
    return cells, offsets, eps


def block_contributions(
    x: np.ndarray,
    kernel: np.ndarray,
    y: np.ndarray,
    block_shape: tuple[int, int],
    reduction: str = "l2",
    fill_value: float = 0.0,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Figure 5: contribution of each square sub-block of an image.

    The input is segmented into a grid of ``block_shape`` tiles; each
    tile is zeroed and scored through the distilled model -- all tiles
    in one batched program, streamed ``chunk_rows`` masked
    planes at a time from a lazy spec.  Returns the grid of scores with
    shape ``(M // bh, N // bw)`` (input dimensions must tile evenly).
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    y = np.asarray(y)
    _check_operands(x, kernel, y)
    plan = MaskSpec.blocks(x.shape, block_shape)
    return score_plan(
        x, kernel, y, plan,
        reduction=reduction, fill_value=fill_value, chunk_rows=chunk_rows,
    )


def column_contributions(
    x: np.ndarray,
    kernel: np.ndarray,
    y: np.ndarray,
    reduction: str = "l2",
    fill_value: float = 0.0,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Figure 6: contribution of each column (clock cycle of a trace table)."""
    x = np.asarray(x)
    _check_operands(x, np.asarray(kernel), np.asarray(y))
    plan = MaskSpec.columns(x.shape)
    return score_plan(
        x, np.asarray(kernel), np.asarray(y), plan,
        reduction=reduction, fill_value=fill_value, chunk_rows=chunk_rows,
    )


def row_contributions(
    x: np.ndarray,
    kernel: np.ndarray,
    y: np.ndarray,
    reduction: str = "l2",
    fill_value: float = 0.0,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Per-row contributions (registers of a trace table)."""
    x = np.asarray(x)
    _check_operands(x, np.asarray(kernel), np.asarray(y))
    plan = MaskSpec.rows(x.shape)
    return score_plan(
        x, np.asarray(kernel), np.asarray(y), plan,
        reduction=reduction, fill_value=fill_value, chunk_rows=chunk_rows,
    )


def top_k_features(scores: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Indices of the ``k`` highest-scoring features, descending.

    Ties are broken deterministically by *ascending* flat index (stable
    descending sort), so equal scores rank in reading order.  Works for
    element grids (2-D) and column/row score vectors (1-D).
    """
    scores = np.asarray(scores)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, scores.size)
    # Cast before negating: unary minus wraps unsigned dtypes and is
    # unsupported for bool, both of which would corrupt the ranking.
    flat = scores.reshape(-1).astype(np.float64)
    flat_order = np.argsort(-flat, kind="stable")[:k]
    if scores.ndim == 1:
        return [(int(i),) for i in flat_order]
    return [tuple(int(v) for v in np.unravel_index(i, scores.shape)) for i in flat_order]


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Scale scores to [0, 1] for display (heatmaps, report weights)."""
    scores = np.asarray(scores, dtype=np.float64)
    low = scores.min()
    span = scores.max() - low
    if span == 0:
        return np.zeros_like(scores)
    return (scores - low) / span
