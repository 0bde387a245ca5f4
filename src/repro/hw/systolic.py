"""Cycle-level simulation of a weight-stationary systolic array.

This is the paper's Figure 1: the Matrix Multiply Unit is a grid of
``rows x cols`` multiply-accumulate cells.  "Each cell receives a weight
parameter along with an input signal at a time, and performs accumulation
of their products" -- weights stay resident (weight-stationary dataflow),
activations stream in from the left edge one diagonal per cycle, partial
sums flow downward, and finished dot products drain out of the bottom
edge.

The simulator advances the grid one cycle at a time with explicit
activation and partial-sum registers, so the *schedule* (which value is
where on which cycle) is modelled, not just the result.  Exactness is the
contract: for any operand matrices the drained output equals the
mathematical product, which unit and property tests assert against numpy.

Timing facts the rest of the stack relies on (all asserted in tests):

* streaming an ``m``-row activation matrix through an ``R x C`` array
  takes ``m + R + C - 2`` cycles from first feed to last drain;
* loading a weight tile takes ``R`` cycles (one row per cycle);
* utilization approaches 100% as ``m`` grows -- the data-reuse argument
  behind the paper's "higher throughput while consuming less memory
  bandwidth" claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.mxu import streaming_cycles


@dataclass(frozen=True)
class SystolicResult:
    """Output of one streaming pass through the array."""

    output: np.ndarray
    cycles: int
    weight_load_cycles: int
    active_pe_cycles: int
    total_pe_cycles: int

    @property
    def total_cycles(self) -> int:
        """Weight load plus streaming."""
        return self.cycles + self.weight_load_cycles

    @property
    def utilization(self) -> float:
        """Fraction of PE-cycles that performed a useful MAC."""
        if self.total_pe_cycles == 0:
            return 0.0
        return self.active_pe_cycles / self.total_pe_cycles


@dataclass
class SystolicArray:
    """A ``rows x cols`` weight-stationary multiply-accumulate grid.

    ``rows`` is the reduction (dot-product) dimension; ``cols`` is the
    number of independent output columns.  One pass computes
    ``activations (m x rows) @ weights (rows x cols)``.
    """

    rows: int
    cols: int
    _weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(
                f"array dimensions must be positive, got {self.rows}x{self.cols}"
            )

    @property
    def num_pes(self) -> int:
        """Number of multiply-accumulate cells (65,536 for the paper's MXU)."""
        return self.rows * self.cols

    def load_weights(self, weights: np.ndarray) -> int:
        """Install a weight tile; returns the load cost in cycles.

        Weights shift in row-by-row from the top, so a full tile costs
        ``rows`` cycles regardless of content.
        """
        weights = np.asarray(weights)
        if weights.shape != (self.rows, self.cols):
            raise ValueError(
                f"weight tile must be {self.rows}x{self.cols}, got {weights.shape}"
            )
        self._weights = weights
        return self.rows

    def stream(self, activations: np.ndarray) -> SystolicResult:
        """Stream activation rows through the loaded weights, cycle by cycle.

        ``activations`` has shape ``(m, rows)``; the result is the exact
        matrix product ``activations @ weights`` with shape ``(m, cols)``.
        """
        if self._weights is None:
            raise RuntimeError("no weights loaded; call load_weights() first")
        activations = np.asarray(activations)
        if activations.ndim != 2 or activations.shape[1] != self.rows:
            raise ValueError(
                f"activations must be (m, {self.rows}), got {activations.shape}"
            )
        m = activations.shape[0]
        if m == 0:
            raise ValueError("cannot stream an empty activation matrix")

        weights = self._weights
        accumulate_dtype = np.result_type(activations.dtype, weights.dtype)
        if np.issubdtype(accumulate_dtype, np.integer):
            # Model the TPU's widened accumulators (int8 MACs -> int32).
            accumulate_dtype = np.int64

        total_cycles = streaming_cycles(m, self.rows, self.cols)
        x_reg = np.zeros((self.rows, self.cols), dtype=accumulate_dtype)
        ps_reg = np.zeros((self.rows, self.cols), dtype=accumulate_dtype)
        output = np.zeros((m, self.cols), dtype=accumulate_dtype)
        active_pe_cycles = 0

        for cycle in range(total_cycles):
            # Left-edge feed: element A[i, r] enters row r at cycle i + r,
            # skewing the matrix along the diagonal wavefront.
            feed = np.zeros(self.rows, dtype=accumulate_dtype)
            row_indices = cycle - np.arange(self.rows)
            valid = (row_indices >= 0) & (row_indices < m)
            feed[valid] = activations[row_indices[valid], np.arange(self.rows)[valid]]

            # Combinational step for every PE simultaneously:
            #   x_in  <- left neighbour's register (or the edge feed)
            #   ps_in <- upper neighbour's register (or zero at the top)
            #   ps_out = ps_in + w * x_in
            x_in = np.empty_like(x_reg)
            x_in[:, 0] = feed
            x_in[:, 1:] = x_reg[:, :-1]
            ps_in = np.empty_like(ps_reg)
            ps_in[0, :] = 0
            ps_in[1:, :] = ps_reg[:-1, :]
            ps_out = ps_in + weights * x_in

            active_pe_cycles += int(np.count_nonzero(x_in))

            x_reg = x_in
            ps_reg = ps_out

            # Bottom-edge drain: output row i leaves column c at cycle
            # i + (rows - 1) + c.
            col_indices = np.arange(self.cols)
            out_rows = cycle - (self.rows - 1) - col_indices
            drained = (out_rows >= 0) & (out_rows < m)
            output[out_rows[drained], col_indices[drained]] = ps_reg[
                self.rows - 1, col_indices[drained]
            ]

        return SystolicResult(
            output=output,
            cycles=total_cycles,
            weight_load_cycles=self.rows,
            active_pe_cycles=active_pe_cycles,
            total_pe_cycles=total_cycles * self.num_pes,
        )

    def matmul(self, activations: np.ndarray, weights: np.ndarray) -> SystolicResult:
        """Convenience wrapper: load ``weights`` then stream ``activations``."""
        self.load_weights(weights)
        return self.stream(activations)
