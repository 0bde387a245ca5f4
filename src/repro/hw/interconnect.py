"""Inter-core communication model (ring all-reduce).

The paper implements reassembly with ``tf.cross_replica_sum``, "required
at every iteration of reassembly process to compute the summation of the
partial matrices across the cores", and argues the decomposition needs
*minimal communication time*.  We model the standard bandwidth-optimal
ring all-reduce: each of ``p`` cores sends ``2*(p-1)/p`` of the payload
over its link, plus per-hop latency.
"""

from __future__ import annotations

from dataclasses import dataclass


def _near_square_side(p: int) -> int:
    """Largest divisor of ``p`` not exceeding ``sqrt(p)`` (grid width)."""
    side = int(p**0.5)
    while side > 1 and p % side:
        side -= 1
    return max(1, side)


@dataclass(frozen=True)
class InterconnectConfig:
    """Link parameters of the inter-core network."""

    link_bandwidth_bytes_per_sec: float = 496e9
    link_latency_sec: float = 1e-6
    topology: str = "ring"

    def __post_init__(self) -> None:
        if self.link_bandwidth_bytes_per_sec <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.link_latency_sec < 0:
            raise ValueError("link latency cannot be negative")
        if self.topology not in ("ring", "all-to-all", "torus2d"):
            raise ValueError(f"unsupported topology {self.topology!r}")


@dataclass(frozen=True)
class Interconnect:
    """Collective-communication cost model over ``InterconnectConfig``."""

    config: InterconnectConfig = InterconnectConfig()

    def _check(self, nbytes: int, num_cores: int) -> None:
        if nbytes < 0:
            raise ValueError(f"payload cannot be negative ({nbytes})")
        if num_cores < 1:
            raise ValueError(f"need at least one core, got {num_cores}")

    def all_reduce_seconds(self, nbytes: int, num_cores: int) -> float:
        """Cost of summing an ``nbytes`` payload across ``num_cores``.

        ``ring``: the bandwidth-optimal single ring -- ``2*(p-1)`` steps
        of ``nbytes/p`` each, all links concurrent.

        ``torus2d``: TPU pods are wired as a 2-D torus; the all-reduce
        runs as two concurrent-ring phases, one along each dimension of
        a near-square core grid.  Per-link traffic matches the ring's
        asymptotics but the latency term scales with ``2*sqrt(p)``
        rather than ``2*p`` hops -- the reason large slices prefer it
        (at ``p=16`` the latency term is ``12`` hops against the ring's
        ``30``).  A *prime* core count has no 2-D grid at all
        (``_near_square_side`` returns 1, which would degenerate to a
        zero-cost phase plus one full single ring); that case falls
        back to the ``ring`` formula explicitly -- same seconds the
        degenerate grid would produce, but as a documented fallback
        rather than a silent accident.

        ``all-to-all``: idealized two-step exchange (lower bound).
        """
        self._check(nbytes, num_cores)
        if num_cores == 1 or nbytes == 0:
            return 0.0
        p = num_cores
        if self.config.topology == "torus2d":
            side_x = _near_square_side(p)
            if side_x > 1:
                side_y = p // side_x
                return self._ring_phase(nbytes, side_x) + self._ring_phase(
                    nbytes / side_x, side_y
                )
            # Prime p: no non-trivial grid exists; use the single ring.
        steps = 2 * (p - 1)
        if self.config.topology == "all-to-all":
            steps = 2  # one scatter + one gather exchange, idealized
        chunk = nbytes / p
        transfer = steps * chunk / self.config.link_bandwidth_bytes_per_sec
        return transfer + steps * self.config.link_latency_sec

    def _ring_phase(self, nbytes: float, cores: int) -> float:
        """One ring all-reduce phase among ``cores`` peers."""
        steps = 2 * (cores - 1)
        transfer = steps * (nbytes / cores) / self.config.link_bandwidth_bytes_per_sec
        return transfer + steps * self.config.link_latency_sec

    def all_gather_seconds(self, nbytes_per_core: int, num_cores: int) -> float:
        """Cost of concatenating per-core shards onto every core.

        ``p-1`` ring steps, each moving one shard per link.
        """
        self._check(nbytes_per_core, num_cores)
        if num_cores == 1 or nbytes_per_core == 0:
            return 0.0
        steps = num_cores - 1
        transfer = steps * nbytes_per_core / self.config.link_bandwidth_bytes_per_sec
        return transfer + steps * self.config.link_latency_sec

    def broadcast_stream_seconds(
        self, nbytes_each: int, num_messages: int, num_cores: int
    ) -> float:
        """Cost of ``num_messages`` back-to-back root broadcasts.

        The streamed-spectra pattern of the pod's overlapped chunk
        placement: the root emits one small payload per solved kernel
        and the messages ride the same pipelined ring, so the
        ``(p-1)``-hop pipeline fill is paid once for the whole stream
        while every message still pays its bandwidth term.  A single
        message is one pipelined-ring broadcast: its bytes over the link
        bandwidth plus ``p-1`` hop latencies.
        """
        self._check(nbytes_each, num_cores)
        if num_messages < 0:
            raise ValueError(f"message count cannot be negative ({num_messages})")
        if num_cores == 1 or nbytes_each == 0 or num_messages == 0:
            return 0.0
        transfer = (
            num_messages * nbytes_each / self.config.link_bandwidth_bytes_per_sec
        )
        return transfer + (num_cores - 1) * self.config.link_latency_sec
