"""End-to-end explanation pipeline: the workload Table II times.

For every input-output pair the paper's interpretation step is:

1. **distill**: solve ``X (*) K = Y`` in the Fourier domain (one
   closed-form pass -- Section III-B);
2. **interpret**: compute contribution factors by re-running the
   distilled model with features masked (Eq. 5), at the granularity the
   scenario calls for (blocks for images, columns for trace tables).

:class:`ExplanationPipeline` executes exactly that against any
:class:`~repro.hw.device.Device` and reports *simulated seconds*, the
quantity Table II compares across CPU/GPU/TPU.  It builds one
:class:`~repro.core.fleet.FleetExecutor` -- which checks the options
and resolves ``num_chips`` to a pod -- and hands it every batch: pairs
of equal plane shape fuse into scheduler waves, each wave scored --
mask rows *and* the per-pair unmasked residual planes -- by one
cross-pair batched convolution inside one ``device.program`` scope,
i.e. one dispatch per wave.  Each wave's mask stack is generated
lazily and convolved in ``chunk_rows``-bounded chunks (peak memory
``O(chunk_rows * M * N)`` however many masks the fleet fuses), and
waves run double-buffered: wave ``i+1``'s dispatch + infeed overlaps
wave ``i``'s compute, the hidden host-link time credited back as a
negative ``infeed_overlap`` ledger row.

``precision`` selects the numeric mode of the interpretation
convolutions (``"fp64"``/``"fp32"`` exact, ``"bf16"`` rounding,
``"int8"`` per-plane symmetric quantization -- parsed by the single
:func:`repro.hw.quantize.precision_spec` entry point): masked planes
and residual rows quantize spatially, kernel spectra per complex
component, the distillation solve stays exact.  Because the rounding is
strictly per-plane, scores and residuals equal one masked convolution
per feature with the run's kernel bit for bit *at the same precision*
(at an exact precision the host scores ``l2`` masks of float64 pairs by
linearity instead, within 1e-9 of a pair's largest score; see
:mod:`repro.core.fleet`),
while the TPU cost model prices the batched transforms with the MXU
cycle hooks at the spec's rate and the infeed at its storage width --
the paper's accuracy-vs-precision trade-off at fleet scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fleet import FleetExecutor, PairResult
from repro.core.masking import DEFAULT_STACK_BUDGET_BYTES
from repro.core.transform import OutputEmbedding
from repro.hw.device import Device, DeviceStats


@dataclass(frozen=True)
class InterpretationRun:
    """Outcome of interpreting a batch of pairs on one device."""

    device_name: str
    explanations: list[PairResult]
    simulated_seconds: float
    stats: DeviceStats
    num_programs: int = 0  # program scopes opened (one per wave)

    @property
    def seconds_per_pair(self) -> float:
        return self.simulated_seconds / max(1, len(self.explanations))


class ExplanationPipeline:
    """Distill-then-interpret, timed on a device.

    The pipeline's :attr:`executor` is built once, at construction, so
    a bad option raises here rather than at the first run, and
    :attr:`device` is the executor's (the pod when ``num_chips > 1``).

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
        bit.  Every granularity runs at every precision.
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
        self.executor = FleetExecutor(
            device,
            granularity=granularity,
            block_shape=block_shape,
            eps=eps,
            embedding=embedding,
            max_stack_bytes=max_stack_bytes,
            max_pairs_per_wave=max_pairs_per_wave,
            chunk_rows=chunk_rows,
            precision=precision,
            num_chips=num_chips,
            placement=placement,
            interconnect=interconnect,
            hbm_bytes=hbm_bytes,
        )
        self.device = self.executor.device

    def run(self, pairs) -> InterpretationRun:
        """Interpret a batch of ``(x, y)`` pairs; returns simulated timing.

        Equal-shape pairs fuse into scheduler waves, each executing as
        one ``device.program`` scope whose single batched convolution
        scores every fused pair's mask plan and residual plane at once.
        An empty batch is a zero-cost run -- the serving layer's idle
        drain path.  A pair the executor refuses, or whose explanation
        is not finite, raises ``ValueError`` naming the first such pair.
        """
        self.device.reset_stats()
        fleet = self.executor.run(pairs)
        stats = self.device.take_stats()
        if fleet.problems:
            index, problem = next(iter(fleet.problems.items()))
            raise ValueError(f"pair {index}: {problem}")
        return InterpretationRun(
            device_name=self.device.name,
            explanations=list(fleet.results),
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
        replaces it (``controller=BatchController(...)``), per-key
        dispatch weights (``key_weights``), caching
        (``cache_max_bytes``) and admission control (``admission``,
        with global and per-key budgets) -- see
        :class:`repro.serve.loop.ExplanationService`.
        """
        from repro.serve.loop import ExplanationService

        executor = self.executor
        config = dict(
            granularity=executor.granularity,
            block_shape=executor.block_shape,
            precision=executor.precision,
            eps=executor.eps,
            embedding=executor.embedding,
            max_stack_bytes=executor.max_stack_bytes,
            chunk_rows=executor.chunk_rows,
            max_pairs_per_wave=executor.max_pairs_per_wave,
            placement=executor.placement,
            hbm_bytes=executor.hbm_bytes,
        )
        config.update(service_kwargs)
        return ExplanationService(self.device, **config)
