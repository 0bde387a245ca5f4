"""End-to-end explanation pipeline: the workload Table II times.

For every input-output pair the paper's interpretation step is:

1. **distill**: solve ``X (*) K = Y`` in the Fourier domain (one
   closed-form pass -- Section III-B);
2. **interpret**: compute contribution factors by re-running the
   distilled model with features masked (Eq. 5), at the granularity the
   scenario calls for (blocks for images, columns for trace tables).

:class:`ExplanationPipeline` executes exactly that against any
:class:`~repro.hw.device.Device` and reports *simulated seconds*, the
quantity Table II compares across CPU/GPU/TPU.  It hands the batch to
the :class:`~repro.core.fleet.FleetExecutor`: pairs of equal plane
shape fuse into scheduler waves, each wave scored -- mask rows *and*
the per-pair unmasked residual planes -- by one cross-pair batched
convolution inside one ``device.program`` scope, i.e. one dispatch per
wave.  Each wave's mask stack is generated lazily and convolved in
``chunk_rows``-bounded chunks (peak memory ``O(chunk_rows * M * N)``
however many masks the fleet fuses), and waves run double-buffered:
wave ``i+1``'s dispatch + infeed overlaps wave ``i``'s compute, the
hidden host-link time credited back as a negative ``infeed_overlap``
ledger row.

``precision`` selects the numeric mode of the interpretation
convolutions (``"fp64"``/``"fp32"`` exact, ``"bf16"`` rounding,
``"int8"`` per-plane symmetric quantization -- parsed by the single
:func:`repro.hw.quantize.precision_spec` entry point): masked planes
and residual rows quantize spatially, kernel spectra per complex
component, the distillation solve stays exact.  Because the rounding is
strictly per-plane, scores and residuals equal one masked convolution
per feature bit for bit *at the same precision*, while the TPU cost
model prices the batched transforms with the MXU cycle hooks at the
spec's rate and the infeed at its storage width -- the paper's
accuracy-vs-precision trade-off at fleet scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fleet import (
    GRANULARITIES,
    PLACEMENTS,
    FleetExecutor,
    check_eps,
    check_precision_granularity,
)
from repro.core.masking import DEFAULT_STACK_BUDGET_BYTES
from repro.core.transform import OutputEmbedding
from repro.hw.device import Device, DeviceStats
from repro.hw.pod import TpuPod
from repro.hw.quantize import resolve_precision


@dataclass(frozen=True)
class PairExplanation:
    """Explanation artifacts for one input-output pair."""

    kernel: np.ndarray
    scores: np.ndarray
    residual: float


@dataclass(frozen=True)
class InterpretationRun:
    """Outcome of interpreting a batch of pairs on one device."""

    device_name: str
    explanations: list[PairExplanation]
    simulated_seconds: float
    stats: DeviceStats
    num_programs: int = 0  # program scopes opened (one per wave)

    @property
    def seconds_per_pair(self) -> float:
        return self.simulated_seconds / max(1, len(self.explanations))


class ExplanationPipeline:
    """Distill-then-interpret, timed on a device.

    Parameters
    ----------
    device:
        Any backend implementing the device interface.
    granularity:
        ``blocks`` (Figure 5 images), ``columns`` (Figure 6 trace
        tables), ``rows``, or ``elements``.
    block_shape:
        Tile size for ``blocks`` granularity.
    eps, embedding:
        Forwarded to the distillation solve; a negative or non-finite
        ``eps`` raises here, not on the first run.
    max_stack_bytes:
        Memory budget for the streamed float chunks: it bounds the
        per-chunk working set, not the plan size -- only a plane too
        large for the budget to hold one ``M x N`` float row raises
        :class:`~repro.core.masking.MaskStackBudgetError`.  ``None``
        disables the guard.
    chunk_rows:
        Masked planes generated/convolved per streamed chunk (default
        :data:`~repro.core.masking.DEFAULT_CHUNK_ROWS`, clamped to the
        budget); peak streaming memory is ``O(chunk_rows * M * N)``.
    max_pairs_per_wave:
        Optional cap on pairs fused per wave -- the lever benchmarks use
        to trade per-wave batch width against cross-wave infeed overlap.
    precision:
        Numeric mode of the interpretation convolutions: ``"fp64"`` /
        ``"fp32"`` (exact), ``"bf16"`` or ``"int8"`` -- any name
        :func:`repro.hw.quantize.precision_spec` accepts, or a
        :class:`~repro.hw.quantize.PrecisionSpec`.  ``None`` (default)
        is the exact legacy execution with legacy cost accounting.
        Masked planes quantize per plane and kernel spectra per
        component inside the batched convolution; scores match one
        masked convolution per feature at the same precision bit for
        bit.  Quantizing precisions reject the ``elements``
        granularity (its linearity fast path assumes exact arithmetic).
    num_chips, placement, interconnect, hbm_bytes:
        Pod scaling: ``num_chips=K > 1`` replicates
        ``device`` into a :class:`~repro.hw.pod.TpuPod` of K clones
        (handing a ``TpuPod`` in as ``device`` works too), each with
        its own sharded :class:`~repro.hw.pod.HostLink`, and shards
        every wave across the chips along the ``placement`` axis --
        ``"data"`` splits a wave's pairs, ``"chunk"`` its row space
        (root solve overlapped), ``"wave"`` pins whole waves to chips
        round-robin (see :mod:`repro.core.fleet`).  Remaining
        collectives are priced on ``interconnect`` (default ring) and
        scores stay bit-identical to single-chip execution.
        ``hbm_bytes`` overrides each chip's modeled HBM capacity; wave
        budgeting clamps to the capacity either way.
    """

    def __init__(
        self,
        device: Device,
        granularity: str = "blocks",
        block_shape: tuple[int, int] | None = None,
        eps: float = 1e-6,
        embedding: OutputEmbedding | None = None,
        max_stack_bytes: int | None = DEFAULT_STACK_BUDGET_BYTES,
        chunk_rows: int | None = None,
        max_pairs_per_wave: int | None = None,
        precision=None,
        num_chips: int | None = None,
        placement: str = "data",
        interconnect=None,
        hbm_bytes: int | None = None,
    ) -> None:
        if granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {granularity!r}; expected one of {GRANULARITIES}"
            )
        if granularity == "blocks" and block_shape is None:
            raise ValueError("blocks granularity requires a block_shape")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
            )
        self.precision = resolve_precision(precision)
        check_precision_granularity(self.precision, granularity)
        check_eps(eps)
        # Pod resolution happens here (once) so self.device is the pod
        # and its ledger is the run's ledger; the fleet executor then
        # recognizes the pod and shards along self.placement.
        if num_chips is not None and int(num_chips) > 1 and not isinstance(device, TpuPod):
            device = TpuPod.like(
                device, int(num_chips), interconnect=interconnect,
                hbm_bytes=hbm_bytes,
            )
        if isinstance(device, TpuPod):
            if num_chips is not None and int(num_chips) != device.num_chips:
                raise ValueError(
                    f"num_chips={num_chips} disagrees with the supplied "
                    f"{device.num_chips}-chip pod"
                )
        self.placement = placement
        self.device = device
        self.granularity = granularity
        self.block_shape = block_shape
        self.eps = eps
        self.embedding = embedding or OutputEmbedding("identity")
        self.max_stack_bytes = max_stack_bytes
        self.chunk_rows = chunk_rows
        self.max_pairs_per_wave = max_pairs_per_wave
        self.hbm_bytes = None if hbm_bytes is None else int(hbm_bytes)

    def run(self, pairs) -> InterpretationRun:
        """Interpret a batch of ``(x, y)`` pairs; returns simulated timing.

        Equal-shape pairs fuse into scheduler waves, each executing as
        one ``device.program`` scope whose single batched convolution
        scores every fused pair's mask plan and residual plane at once.
        """
        pairs = list(pairs)
        self.device.reset_stats()
        if not pairs:
            # Empty runs cost nothing: zero programs, zero simulated
            # seconds -- the serving layer's idle drain path.
            return InterpretationRun(
                device_name=self.device.name,
                explanations=[],
                simulated_seconds=0.0,
                stats=self.device.take_stats(),
                num_programs=0,
            )
        executor = FleetExecutor(
            self.device,
            granularity=self.granularity,
            block_shape=self.block_shape,
            eps=self.eps,
            embedding=self.embedding,
            max_stack_bytes=self.max_stack_bytes,
            max_pairs_per_wave=self.max_pairs_per_wave,
            chunk_rows=self.chunk_rows,
            precision=self.precision,
            placement=self.placement,
            hbm_bytes=self.hbm_bytes,
        )
        fleet = executor.run(pairs)
        stats = self.device.take_stats()
        explanations = [
            PairExplanation(
                kernel=result.kernel, scores=result.scores, residual=result.residual
            )
            for result in fleet.results
        ]
        return InterpretationRun(
            device_name=self.device.name,
            explanations=explanations,
            simulated_seconds=stats.seconds,
            stats=stats,
            num_programs=fleet.num_waves,
        )

    def service(self, **service_kwargs):
        """An online :class:`~repro.serve.loop.ExplanationService` sharing
        this pipeline's configuration.

        The serving-layer constructor: the returned service runs on the
        same device with the pipeline's granularity, block shape,
        precision, solve parameters and wave/streaming knobs as its
        request defaults, so an offline pipeline and its online
        counterpart produce bit-identical explanations for the same
        inputs.  ``service_kwargs`` override any of those and add the
        serving-only knobs: the static micro-batching pair
        (``max_wait_seconds``, ``max_batch_pairs``), the autopilot that
        replaces it (``controller=BatchController(...)``), dispatch
        fairness (``dispatch_policy``, ``key_weights``), caching
        (``cache_max_bytes``) and speculative warming (``warm_cache``,
        ``warm_min_gap_seconds``, ``warm_max_per_gap``), and admission
        control (``admission``, with global and per-key budgets) -- see
        :class:`repro.serve.loop.ExplanationService`.
        """
        from repro.serve.loop import ExplanationService

        config = dict(
            granularity=self.granularity,
            block_shape=self.block_shape,
            precision=self.precision,
            eps=self.eps,
            embedding=self.embedding,
            max_stack_bytes=self.max_stack_bytes,
            chunk_rows=self.chunk_rows,
            max_pairs_per_wave=self.max_pairs_per_wave,
            placement=self.placement,
            hbm_bytes=self.hbm_bytes,
        )
        config.update(service_kwargs)
        return ExplanationService(self.device, **config)
