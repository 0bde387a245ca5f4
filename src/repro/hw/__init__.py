"""Hardware substrate: simulated TPU, and CPU/GPU comparator models.

The paper's evaluation compares three hardware configurations running
the same algorithm (Section IV-A).  This package provides all three:

* :class:`~repro.hw.tpu.TpuChip` -- the TPU chip, priced from its
  configuration: the closed-form MXU cycle model of
  :mod:`repro.hw.mxu` on :class:`~repro.hw.tpu.TpuCoreConfig`, int8/bf16
  quantization (:mod:`repro.hw.quantize`) and a ring interconnect
  (:mod:`repro.hw.interconnect`); an Algorithm 1 stage has one price,
  :func:`~repro.hw.tpu.fourier_stage_seconds`;
* :class:`~repro.hw.tpu_core.TpuCore` -- one core, built when a caller
  reads :attr:`TpuChip.cores <repro.hw.tpu.TpuChip.cores>`: its own
  :class:`~repro.hw.mxu.Mxu` (whose exact path drives the
  weight-stationary systolic array of :mod:`repro.hw.systolic`) and the
  capacity and bandwidth specs of its memories (:mod:`repro.hw.memory`),
  priced by the same configuration formulas;
* a small ISA with an overlap-aware scheduler (:mod:`repro.hw.isa`) and
  a graph compiler that lowers onto it (:mod:`repro.hw.compiler`): the
  instruction-level view the fused-versus-eager ablation and the
  hardware inspection example price; no device prices through it;
* :class:`~repro.hw.cpu.CpuDevice` -- the paper's baseline host CPU;
* :class:`~repro.hw.gpu.GpuDevice` -- the paper's GTX 1080 comparator.

All three expose the common :class:`~repro.hw.device.Device` interface:
functional numpy execution plus *simulated seconds*, which is what every
table and figure in the paper reports.
"""

from repro import lazy_exports

# Bound eagerly: the function shares its name with its submodule, which
# the first import of repro.hw.quantize would otherwise set here.
from repro.hw.quantize import quantize  # noqa: F401

EXPORTS = {
    "compiler": (
        "Op",
        "OpGraph",
        "compiled_seconds",
        "eager_seconds",
        "lower",
        "solve_graph",
    ),
    "cpu": ("CpuConfig", "CpuDevice"),
    "device": ("Device", "DeviceStats", "PipelineStage", "pipelined_elapsed_seconds"),
    "gpu": ("GpuConfig", "GpuDevice"),
    "interconnect": ("Interconnect", "InterconnectConfig"),
    "isa": ("Instruction", "Opcode", "Program", "ScheduleResult", "Scheduler"),
    "memory": (
        "MemoryCapacityError",
        "MemorySpec",
        "accumulator_spec",
        "hbm_spec",
        "host_link_spec",
        "unified_buffer_spec",
    ),
    "mxu": ("Mxu", "MxuConfig", "MxuStats", "matmul_cycles", "streaming_cycles"),
    "pod": ("PodWaveStats", "TpuPod", "clone_device"),
    "quantize": (
        "BF16",
        "FP32",
        "FP64",
        "INT8",
        "PrecisionSpec",
        "QuantizedTensor",
        "dequantize",
        "infeed_bytes_per_element",
        "precision_spec",
        "quantization_error_bound",
        "quantization_scale",
        "quantize",
        "quantize_dequantize",
        "quantized_complex_matmul",
        "quantized_conv_error_bound",
        "quantized_matmul",
        "quantized_score_error_bound",
        "resolve_precision",
        "to_bfloat16",
    ),
    "systolic": ("SystolicArray", "SystolicResult"),
    "tpu": ("TpuChip", "TpuChipConfig", "TpuCoreConfig", "fourier_stage_seconds"),
    "tpu_core": ("TpuCore",),
    "trace": (
        "SystolicTrace",
        "trace_matmul",
        "trace_pass",
        "utilization_ascii",
        "write_vcd",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
