"""Analytic GPU execution model (the paper's state-of-the-art comparator).

Models the paper's external NVIDIA GTX 1080 driven by PyTorch: massive
fp32 throughput (2560 CUDA cores), GDDR5X bandwidth, but a *per-kernel
launch overhead* on every operation and PCIe transfers for host data.
Those overheads -- absent on the TPU once a program is dispatched, and
tiny on the CPU -- are what keeps the GPU only a small factor ahead of
the CPU at the paper's workload sizes (Table I shows CPU/GPU of only
2-3x), while the TPU's systolic pipeline pulls an order of magnitude
further ahead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.device import Device


@dataclass(frozen=True)
class GpuConfig:
    """Parameters of the modelled discrete GPU."""

    name: str = "GTX1080"
    clock_hz: float = 1.607e9
    cuda_cores: int = 2560
    flops_per_cycle_per_core: float = 2.0  # one FMA per core per cycle
    # Sustained fraction of peak under eager-mode fp32 PyTorch (~76
    # GFLOP/s effective, i.e. ~2.7x the CPU -- the paper's own Table I
    # shows CPU/GPU of only 2-3x at these workload sizes).  Calibrated
    # jointly with the CPU/TPU defaults.
    efficiency: float = 0.0092
    memory_bandwidth_bytes_per_sec: float = 320e9
    kernel_launch_sec: float = 1.0e-5
    pcie_bandwidth_bytes_per_sec: float = 12e9
    pcie_latency_sec: float = 1e-5
    tdp_watts: float = 180.0
    # Price 2-D transforms as a cuFFT-style O(n log n) library call
    # instead of the paper's matmul-form deployment (ablation knob).
    use_library_fft: bool = False

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.cuda_cores <= 0:
            raise ValueError("clock and core count must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.memory_bandwidth_bytes_per_sec <= 0:
            raise ValueError("memory bandwidth must be positive")
        if self.kernel_launch_sec < 0 or self.pcie_latency_sec < 0:
            raise ValueError("overheads cannot be negative")

    @property
    def peak_flops(self) -> float:
        return self.clock_hz * self.cuda_cores * self.flops_per_cycle_per_core

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.efficiency


class GpuDevice(Device):
    """fp32 roofline with kernel-launch overhead and PCIe transfers."""

    def __init__(self, config: GpuConfig | None = None) -> None:
        self.config = config or GpuConfig()
        super().__init__(name=self.config.name)

    def matmul_seconds(self, m: int, k: int, n: int) -> float:
        flops = 2.0 * m * k * n
        compute = flops / self.config.effective_flops
        operand_bytes = 4 * (m * k + k * n + m * n)
        memory = operand_bytes / self.config.memory_bandwidth_bytes_per_sec
        return max(compute, memory) + self.config.kernel_launch_sec

    def elementwise_seconds(self, elements: int, flops_per_element: float = 1.0) -> float:
        flops = elements * flops_per_element
        compute = flops / self.config.effective_flops
        memory = 8.0 * elements / self.config.memory_bandwidth_bytes_per_sec
        return max(compute, memory) + self.config.kernel_launch_sec

    def transfer_seconds(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return (
            self.config.pcie_latency_sec
            + nbytes / self.config.pcie_bandwidth_bytes_per_sec
        )

    def fft2_seconds(self, m: int, n: int) -> float:
        if not self.config.use_library_fft:
            return super().fft2_seconds(m, n)
        from repro.hw.cpu import _library_fft_seconds

        return _library_fft_seconds(
            m,
            n,
            self.config.effective_flops,
            self.config.memory_bandwidth_bytes_per_sec,
            self.config.kernel_launch_sec,
        )

    def energy_joules(self, seconds: float) -> float:
        """Crude energy estimate at TDP for the elapsed simulated time."""
        return seconds * self.config.tdp_watts
