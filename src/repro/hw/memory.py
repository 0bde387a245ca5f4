"""Memory hierarchy models: HBM, unified buffer, accumulators, host link.

The TPU timing model needs three things from a memory: *capacity* (does
the working set fit -- the paper's 64 GB HBM), *bandwidth* (how many
cycles a transfer occupies) and *latency*.  Each region is one
:class:`MemorySpec`; a core whose matmul working set exceeds its HBM
slice raises :class:`MemoryCapacityError` rather than pricing
optimistic timing.
"""

from __future__ import annotations

from dataclasses import dataclass


class MemoryCapacityError(Exception):
    """Raised when a working set exceeds a memory region's capacity."""


@dataclass(frozen=True)
class MemorySpec:
    """Static description of one memory region."""

    name: str
    capacity_bytes: int
    bandwidth_bytes_per_sec: float
    latency_sec: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.latency_sec < 0:
            raise ValueError(f"{self.name}: latency cannot be negative")

    def transfer_seconds(self, nbytes: int) -> float:
        """Time to move ``nbytes`` through this region once."""
        if nbytes < 0:
            raise ValueError(f"cannot transfer a negative byte count ({nbytes})")
        if nbytes == 0:
            return 0.0
        return self.latency_sec + nbytes / self.bandwidth_bytes_per_sec


GIB = 1024**3
MIB = 1024**2


def hbm_spec(capacity_bytes: int = 8 * GIB, bandwidth: float = 300e9) -> MemorySpec:
    """Per-core HBM slice.

    The paper's TPUv2 setup exposes 64 GB HBM across the pod slice; per
    core that is 8 GiB at roughly 300 GB/s (one core's share of the
    600 GB/s chip bandwidth).
    """
    return MemorySpec(
        name="hbm",
        capacity_bytes=capacity_bytes,
        bandwidth_bytes_per_sec=bandwidth,
        latency_sec=5e-7,
    )


def unified_buffer_spec(capacity_bytes: int = 24 * MIB) -> MemorySpec:
    """On-chip unified buffer (activation storage feeding the MXU)."""
    return MemorySpec(
        name="unified_buffer",
        capacity_bytes=capacity_bytes,
        bandwidth_bytes_per_sec=4e12,
        latency_sec=0.0,
    )


def accumulator_spec(capacity_bytes: int = 4 * MIB) -> MemorySpec:
    """32-bit accumulator banks collecting MXU partial sums."""
    return MemorySpec(
        name="accumulators",
        capacity_bytes=capacity_bytes,
        bandwidth_bytes_per_sec=4e12,
        latency_sec=0.0,
    )


def host_link_spec(bandwidth: float = 12e9) -> MemorySpec:
    """Host-to-device link (PCIe-class), used by READ_HOST/WRITE_HOST."""
    return MemorySpec(
        name="host_link",
        capacity_bytes=64 * GIB,
        bandwidth_bytes_per_sec=bandwidth,
        latency_sec=2e-6,
    )
