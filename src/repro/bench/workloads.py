"""Canonical experiment workloads (Section IV of the paper).

Defines, as data plus cost arithmetic, the three timed experiments:

* **Table I** -- classification: training/testing time per 10 epochs for
  VGG19 (CIFAR-100-scale) and ResNet50 (MIRAI-scale) on CPU / GPU / TPU;
* **Table II** -- interpretation: average time to distill and compute
  contribution factors for every 10 input-output pairs;
* **Figure 4** -- scalability: one 2-D Fourier transform at growing
  matrix sizes on all three devices.

Time semantics: all numbers are *simulated seconds* from the device
cost models.

Execution-model assumptions, mirroring the paper's setup:

* CPU and GPU run eagerly: one kernel per layer per batch, each paying
  that device's per-op overhead; data is host-resident (CPU) or moved
  over PCIe per batch (GPU).
* The TPU runs compiled programs: one dispatch round trip per training
  step / interpretation pair, int8 MXU arithmetic for classification,
  bf16 for the Fourier solve, batch sharded over the chip's cores with
  a gradient cross-replica sum per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.backend import TpuBackend, make_tpu_chip
from repro.fft.fft2d import irfft2_batch, rfft2_batch
from repro.hw.quantize import infeed_bytes_per_element, resolve_precision

# The Table I model builders and the CPU/GPU comparators are imported by
# the functions that use them, so the planted-pair generators below load
# no neural-network code.
if TYPE_CHECKING:
    from repro.hw.cpu import CpuDevice
    from repro.hw.gpu import GpuDevice
    from repro.nn.flops import ModelCensus


@dataclass(frozen=True)
class ClassificationWorkload:
    """Everything Table I needs to cost one benchmark row."""

    name: str
    census: ModelCensus
    train_samples: int
    test_samples: int
    batch_size: int = 128
    epochs_per_report: int = 10  # the paper reports per-10-epoch times
    bytes_per_value: int = 4  # fp32 host data
    backward_multiplier: float = 2.0

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(self.train_samples / self.batch_size)

    @property
    def test_steps(self) -> int:
        return math.ceil(self.test_samples / self.batch_size)

    @property
    def sample_bytes(self) -> int:
        channels, height, width = self.census.input_shape
        return channels * height * width * self.bytes_per_value


def vgg19_workload() -> ClassificationWorkload:
    """Benchmark 1: VGG19 on CIFAR-100 (50k train / 10k test images)."""
    from repro.nn.flops import model_census
    from repro.nn.vgg import vgg19

    census = model_census(vgg19(num_classes=100), (3, 32, 32), name="VGG19")
    return ClassificationWorkload(
        name="VGG19", census=census, train_samples=50_000, test_samples=10_000
    )


def resnet50_workload() -> ClassificationWorkload:
    """Benchmark 2: ResNet50 on MIRAI trace tables (32x32 windows)."""
    from repro.nn.flops import model_census
    from repro.nn.resnet import resnet50

    census = model_census(
        resnet50(num_classes=2, in_channels=1), (1, 32, 32), name="ResNet50"
    )
    return ClassificationWorkload(
        name="ResNet50", census=census, train_samples=50_000, test_samples=10_000
    )


@dataclass(frozen=True)
class TrainTestSeconds:
    """One Table I cell pair."""

    train_seconds: float
    test_seconds: float


def _eager_step_seconds(device, census: ModelCensus, batch: int, passes: float) -> float:
    """One eager-mode step: every layer launches its own kernel.

    ``passes`` = 1 for inference, ``1 + backward_multiplier`` for
    training (forward, grad-input, grad-weight sweeps share shapes).
    """
    seconds = 0.0
    for shape in census.matmuls:
        seconds += passes * device.matmul_seconds(batch * shape.m, shape.k, shape.n)
    seconds += passes * device.elementwise_seconds(batch * census.elementwise_elements)
    return seconds


def cpu_classification_times(
    workload: ClassificationWorkload, device: CpuDevice | None = None
) -> TrainTestSeconds:
    """Table I baseline column: host-resident eager execution."""
    from repro.hw.cpu import CpuDevice

    device = device or CpuDevice()
    passes_train = 1.0 + workload.backward_multiplier
    step = _eager_step_seconds(device, workload.census, workload.batch_size, passes_train)
    train = step * workload.steps_per_epoch * workload.epochs_per_report
    test_step = _eager_step_seconds(device, workload.census, workload.batch_size, 1.0)
    test = test_step * workload.test_steps
    return TrainTestSeconds(train_seconds=train, test_seconds=test)


def gpu_classification_times(
    workload: ClassificationWorkload, device: GpuDevice | None = None
) -> TrainTestSeconds:
    """Table I GPU column: eager kernels plus per-batch PCIe transfers."""
    from repro.hw.gpu import GpuDevice

    device = device or GpuDevice()
    passes_train = 1.0 + workload.backward_multiplier
    batch_bytes = workload.batch_size * workload.sample_bytes
    step = (
        _eager_step_seconds(device, workload.census, workload.batch_size, passes_train)
        + device.transfer_seconds(batch_bytes)
    )
    train = step * workload.steps_per_epoch * workload.epochs_per_report
    test_step = (
        _eager_step_seconds(device, workload.census, workload.batch_size, 1.0)
        + device.transfer_seconds(batch_bytes)
    )
    test = test_step * workload.test_steps
    return TrainTestSeconds(train_seconds=train, test_seconds=test)


def tpu_classification_times(
    workload: ClassificationWorkload, backend: TpuBackend | None = None
) -> TrainTestSeconds:
    """Table I proposed-approach column.

    Per training step: one dispatch, int8 infeed of the batch, the
    compiled per-core forward+backward (batch sharded across cores), and
    one gradient cross-replica sum.  Per test step: dispatch + infeed +
    per-core forward.
    """
    backend = backend or TpuBackend(make_tpu_chip(precision="int8"))
    chip = backend.chip
    core = chip.config.core
    cores = chip.num_cores

    per_core_batch = max(1, math.ceil(workload.batch_size / cores))
    passes_train = 1.0 + workload.backward_multiplier

    def compiled_pass(passes: float) -> float:
        seconds = 0.0
        for shape in workload.census.matmuls:
            seconds += passes * core.matmul_seconds(
                per_core_batch * shape.m, shape.k, shape.n
            )
        seconds += passes * core.elementwise_seconds(
            per_core_batch * workload.census.elementwise_elements
        )
        return seconds

    # int8 infeed: quantized samples are 1 byte per value.
    batch_bytes_int8 = workload.batch_size * workload.sample_bytes // workload.bytes_per_value
    host_bw = chip.config.host_bandwidth_bytes_per_sec
    dispatch = chip.config.dispatch_latency_sec
    infeed = batch_bytes_int8 / host_bw
    # Gradient reassembly: bf16 gradients for every parameter.
    grad_bytes = workload.census.parameter_count * 2
    allreduce = chip.interconnect.all_reduce_seconds(grad_bytes, cores)
    # Host-side optimizer round trip (the paper's 2020-era PyTorch/XLA
    # Colab stack keeps optimizer state on the host): bf16 gradients
    # stream out, updated bf16 weights stream back, every step.
    optimizer_round_trip = 2 * workload.census.parameter_count * 2 / host_bw

    train_step = (
        dispatch
        + infeed
        + compiled_pass(passes_train)
        + allreduce
        + optimizer_round_trip
    )
    train = train_step * workload.steps_per_epoch * workload.epochs_per_report
    test_step = dispatch + infeed + compiled_pass(1.0)
    test = test_step * workload.test_steps
    return TrainTestSeconds(train_seconds=train, test_seconds=test)


# ----------------------------------------------------------------------
# Table II: interpretation cost
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InterpretationWorkload:
    """Everything Table II needs to cost one benchmark row.

    ``plane`` is the feature-plane size the distillation operates on
    (the embedded model-I/O matrix); ``num_features`` the count of
    maskable features (blocks for images, clock-cycle columns for trace
    tables); ``pairs`` the batch the paper averages over (10).
    """

    name: str
    plane: tuple[int, int]
    num_features: int
    pairs: int = 10

    def __post_init__(self) -> None:
        if self.plane[0] <= 0 or self.plane[1] <= 0:
            raise ValueError(f"invalid plane {self.plane}")
        if self.num_features <= 0 or self.pairs <= 0:
            raise ValueError("features and pairs must be positive")


def vgg19_interpretation_workload(pairs: int = 10) -> InterpretationWorkload:
    """VGG19 row: 1024x1024 embedded plane, 64 occluded image blocks."""
    return InterpretationWorkload(
        name="VGG19", plane=(1024, 1024), num_features=64, pairs=pairs
    )


def resnet50_interpretation_workload(pairs: int = 10) -> InterpretationWorkload:
    """ResNet50 row: 1024x1024 trace window, 160 clock-cycle columns.

    More maskable features than the image row -- the reason the paper's
    ResNet50 interpretation times are uniformly larger.
    """
    return InterpretationWorkload(
        name="ResNet50", plane=(1024, 1024), num_features=160, pairs=pairs
    )


#: Plane elements one batched transform convolves when planting pairs:
#: a chunk holds ``max(1, SYNTHESIS_CHUNK_ELEMENTS // (M * N))`` pairs
#: (256 of 16x16), so synthesis holds a few MB of stacks whatever the
#: count.  Chunk boundaries move no bits.
SYNTHESIS_CHUNK_ELEMENTS = 1 << 16


def _planted_pairs(count, shape, seed, spike, repeat_fraction=None):
    """Both generators' recipe; ``repeat_fraction=None`` never draws ``random()``.

    New pairs are drawn into chunk stacks in stream order and each full
    chunk is convolved at once (:func:`_convolve_planted`); a repeat
    reuses the tuple of the entry it repeats.
    """
    if count <= 0:
        return []
    rng = np.random.default_rng(seed)
    m, n = shape
    spike_term = spike * float(np.prod(shape)) ** 0.5
    width = min(count, max(1, SYNTHESIS_CHUNK_ELEMENTS // (m * n)))
    xs = np.empty((width, m, n))
    kernels = np.empty((width, m, n))
    pairs = []  # the new pairs, in draw order
    sources = []  # each entry's index into ``pairs``
    drawn = 0
    for index in range(count):
        if (
            repeat_fraction is not None and index
            and rng.random() < repeat_fraction
        ):
            sources.append(sources[int(rng.integers(index))])
            continue
        rng.standard_normal(out=xs[drawn])
        rng.standard_normal(out=kernels[drawn])
        sources.append(len(pairs) + drawn)
        drawn += 1
        if drawn == width:
            pairs += _convolve_planted(xs, kernels, spike_term)
            drawn = 0
    if drawn:
        pairs += _convolve_planted(xs[:drawn], kernels[:drawn], spike_term)
    return [pairs[source] for source in sources]


def _convolve_planted(xs, kernels, spike_term):
    """Spike ``xs`` and return each ``(x, x (*) kernel)`` as fresh arrays."""
    xs[:, 0, 0] += spike_term
    spectra = rfft2_batch(xs)
    np.multiply(spectra, rfft2_batch(kernels), out=spectra)
    ys = irfft2_batch(spectra, n=xs.shape[-1])
    return [(x.copy(), y.copy()) for x, y in zip(xs, ys)]


def planted_interpretation_pairs(
    count: int,
    shape: tuple[int, int] = (16, 16),
    seed: int = 0,
    spike: float = 5.0,
):
    """Planted ``(x, y)`` fleets for *executed* interpretation benches.

    Each pair is a standard-normal plane with a ``spike * sqrt(M*N)``
    feature planted at ``[0, 0]`` (so occlusion scoring has an
    unambiguous top feature and int8 quantization error stays
    meaningful relative to the signal), convolved against a random
    kernel for the exact target.  The single recipe shared by the fleet
    benchmark and the quantized-batch ablation, so their contracts
    exercise the same data distribution.

    ``numpy.random.default_rng(seed)`` draws each pair's ``x`` and then
    its kernel, pair by pair.  The pairs are convolved in chunks of
    :data:`SYNTHESIS_CHUNK_ELEMENTS` plane elements, one batched
    half-spectrum transform each, and every ``y`` is bit-identical to
    ``fft_circular_convolve2d(x, kernel)`` of its own pair.  Every
    ``x`` and ``y`` is its own C-contiguous float64 array.
    """
    return _planted_pairs(count, shape, seed, spike)


def planted_request_pairs(
    count: int,
    shape: tuple[int, int] = (16, 16),
    seed: int = 0,
    repeat_fraction: float = 0.0,
    spike: float = 5.0,
):
    """Planted pairs for *serving* benches: repeated-input traffic.

    Like :func:`planted_interpretation_pairs`, but a seeded fraction of
    entries repeat an earlier pair's exact arrays -- the
    duplicate-request traffic a content-addressed explanation cache
    monetizes (repeated inputs share a digest, so a warm service
    answers them without touching the device).  ``repeat_fraction=0``
    degenerates to all-unique pairs; the repeats are drawn from the
    same seeded generator, so a trace is fully determined by
    ``(count, shape, seed, repeat_fraction)``.

    The stream, entry by entry: every entry after the first draws
    ``random()`` (at ``repeat_fraction=0`` too); a repeat then draws
    ``integers(index)`` and reuses that entry's tuple, so its arrays
    are the same objects; a new pair draws its ``x``, then its kernel.
    New pairs are convolved in batched chunks as in
    :func:`planted_interpretation_pairs`, bit-identical to convolving
    each pair alone.
    """
    if not 0.0 <= repeat_fraction <= 1.0:
        raise ValueError(
            f"repeat_fraction must lie in [0, 1], got {repeat_fraction}"
        )
    return _planted_pairs(count, shape, seed, spike, repeat_fraction)


def _solve_seconds(device, m: int, n: int) -> float:
    """One Eq. 4 distillation solve on an ``m x n`` plane.

    Three 2-D transforms plus the Hadamard stages: conjugate, two
    complex multiplies, the eps regularizer add, and the Hadamard
    division.  Shared by every interpretation cost model so the solve
    arithmetic cannot drift between the interpretation and Figure 4
    cost models.
    """
    elements = m * n
    seconds = 3 * device.fft2_seconds(m, n)
    seconds += device.elementwise_seconds(elements, 0.5)  # conjugate
    seconds += 3 * device.elementwise_seconds(elements, 4.0)  # complex mul/mul/div
    seconds += device.elementwise_seconds(elements, 2.0)  # eps regularizer add
    return seconds


def interpretation_seconds(
    device, workload: InterpretationWorkload, precision=None,
) -> float:
    """Cost of the full distill-and-interpret batch on one device.

    Models the *paper's measured* execution -- host-side masking, one
    launch per masked feature -- so Table II regenerates faithfully.  It
    mirrors, operation for operation, the literal reference loop the
    test suite keeps (one ``device.program`` per pair, one
    ``device.conv2d_circular`` per masked feature; asserted by a
    benchmark contract), for the mask-plan granularities the workloads
    describe -- ``num_features`` counts occlusion masks (image blocks,
    trace columns/rows)::

        per pair = program overhead
                 + solve:   2 fft2 + 1 ifft2 + 1 conjugate + 4 hadamard
                 + residual + per-feature masked re-run:
                   (features + 1) x (2 fft2 + 1 ifft2 + 1 hadamard)

    ``precision`` prices each pair's x/y and every masked plane's infeed
    at that numeric mode's storage width.  ``None`` (default) keeps the
    legacy arithmetic, so Table II regenerates unchanged.
    """
    spec = resolve_precision(precision)
    m, n = workload.plane
    elements = m * n
    transform = device.fft2_seconds(m, n)
    solve = _solve_seconds(device, m, n)
    conv = 3 * transform + device.elementwise_seconds(elements, 4.0)
    per_pair = solve + (workload.num_features + 1) * conv
    stream_width = infeed_bytes_per_element(spec)

    if isinstance(device, TpuBackend):
        # One fused program per pair (dispatch; x/y stream in at the
        # precision's storage width, the fp64 kernel streams back), and
        # every masked convolution adds a host round trip: the feature
        # mask is applied host-side, so the masked plane streams in and
        # the fp64 Eq. 5 residual streams back on every feature -- see
        # TpuBackend.conv2d_circular.
        dispatch = device.chip.config.dispatch_latency_sec
        program = dispatch + device.transfer_seconds(
            elements * (stream_width + stream_width + 8)
        )
        conv_round_trip = dispatch + device.transfer_seconds(
            elements * (stream_width + 8)
        )
        overhead = program + (workload.num_features + 1) * conv_round_trip
    else:
        overhead = device.transfer_seconds(elements * (stream_width + stream_width + 8))
    return workload.pairs * (per_pair + overhead)


# ----------------------------------------------------------------------
# Figure 4: scalability of one 2-D transform
# ----------------------------------------------------------------------

FIGURE4_SIZES = (64, 128, 256, 512, 1024)


def figure4_solve_seconds(device, size: int) -> float:
    """One distillation solve on a ``size x size`` matrix (Figure 4).

    The paper's scalability figure times its interpretation operation on
    "randomly selected matrices with varying sizes": one task-transformed
    solve = three 2-D transforms plus the Hadamard stages (Eq. 4),
    end-to-end including the host round trip.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    elements = size * size
    # x and y stream in as fp32, the solved fp64 kernel streams back.
    feed_bytes = elements * (4 + 4 + 8)
    compute = _solve_seconds(device, size, size)
    if isinstance(device, TpuBackend):
        return (
            device.chip.config.dispatch_latency_sec
            + device.transfer_seconds(feed_bytes)
            + compute
        )
    return device.transfer_seconds(feed_bytes) + compute


def default_devices() -> dict[str, object]:
    """The paper's three hardware configurations with default calibration."""
    from repro.hw.cpu import CpuDevice
    from repro.hw.gpu import GpuDevice

    return {
        "CPU": CpuDevice(),
        "GPU": GpuDevice(),
        "TPU": TpuBackend(make_tpu_chip(num_cores=128, precision="bf16")),
    }
