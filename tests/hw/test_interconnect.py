"""Ring all-reduce cost model (the paper's tf.cross_replica_sum)."""

import pytest

from repro.hw import Interconnect, InterconnectConfig


def fabric(bandwidth=100.0, latency=0.0, topology="ring"):
    return Interconnect(
        InterconnectConfig(
            link_bandwidth_bytes_per_sec=bandwidth,
            link_latency_sec=latency,
            topology=topology,
        )
    )


class TestAllReduce:
    def test_single_core_is_free(self):
        assert fabric().all_reduce_seconds(1000, 1) == 0.0

    def test_zero_bytes_is_free(self):
        assert fabric().all_reduce_seconds(0, 8) == 0.0

    def test_two_core_formula(self):
        # p=2: 2*(p-1)=2 steps of nbytes/2 each -> nbytes/bw total.
        assert fabric(bandwidth=100.0).all_reduce_seconds(100, 2) == pytest.approx(1.0)

    def test_bandwidth_term_saturates_with_cores(self):
        """Ring all-reduce moves 2*(p-1)/p * nbytes per link: the per-core
        traffic approaches 2x payload as p grows, it does not diverge."""
        t8 = fabric(bandwidth=100.0).all_reduce_seconds(100, 8)
        t128 = fabric(bandwidth=100.0).all_reduce_seconds(100, 128)
        assert t8 < t128 < 2.0 * 100 / 100.0 + 1e-9

    def test_latency_term_grows_linearly_with_cores(self):
        no_latency = fabric(latency=0.0).all_reduce_seconds(100, 16)
        with_latency = fabric(latency=0.01).all_reduce_seconds(100, 16)
        assert with_latency == pytest.approx(no_latency + 2 * 15 * 0.01)

    def test_all_to_all_faster_than_ring(self):
        ring = fabric(latency=1e-3).all_reduce_seconds(1000, 16)
        direct = fabric(latency=1e-3, topology="all-to-all").all_reduce_seconds(1000, 16)
        assert direct < ring

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fabric().all_reduce_seconds(-1, 4)
        with pytest.raises(ValueError):
            fabric().all_reduce_seconds(10, 0)

    @pytest.mark.parametrize("topology", ["ring", "torus2d", "all-to-all"])
    def test_monotone_in_bytes(self, topology):
        f = fabric(latency=1e-4, topology=topology)
        times = [f.all_reduce_seconds(nbytes, 16) for nbytes in (0, 100, 1000, 10_000)]
        assert times == sorted(times)
        assert times[0] == 0.0 and times[-1] > times[1]

    def test_latency_ordering_at_p16(self):
        """At fixed payload: all-to-all <= torus2d <= ring latency terms.

        The bandwidth term is held at ~0 (huge links), isolating the hop
        counts: 2 vs 2*(4-1)*2=12 vs 2*(16-1)=30 latency steps at p=16.
        """
        kwargs = dict(bandwidth=1e18, latency=1e-3)
        direct = fabric(topology="all-to-all", **kwargs).all_reduce_seconds(1 << 20, 16)
        torus = fabric(topology="torus2d", **kwargs).all_reduce_seconds(1 << 20, 16)
        ring = fabric(topology="ring", **kwargs).all_reduce_seconds(1 << 20, 16)
        assert direct == pytest.approx(2 * 1e-3)
        assert torus == pytest.approx(12 * 1e-3)
        assert ring == pytest.approx(30 * 1e-3)
        assert direct < torus < ring

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_torus2d_prime_cores_fall_back_to_ring(self, p):
        """A prime core count has no 2-D grid; torus2d must price as ring
        rather than degenerate through a 1-wide phase."""
        torus = fabric(latency=1e-3, topology="torus2d").all_reduce_seconds(999, p)
        ring = fabric(latency=1e-3, topology="ring").all_reduce_seconds(999, p)
        assert torus == ring
        assert torus > 0.0

    @pytest.mark.parametrize("topology", ["ring", "torus2d", "all-to-all"])
    def test_zero_and_one_core_edges(self, topology):
        f = fabric(latency=1e-3, topology=topology)
        assert f.all_reduce_seconds(0, 16) == 0.0
        assert f.all_reduce_seconds(1 << 20, 1) == 0.0


class TestOtherCollectives:
    def test_all_gather_zero_cases(self):
        assert fabric().all_gather_seconds(0, 8) == 0.0
        assert fabric().all_gather_seconds(100, 1) == 0.0

    def test_all_gather_scales_with_shards(self):
        t4 = fabric(bandwidth=10.0).all_gather_seconds(10, 4)
        t8 = fabric(bandwidth=10.0).all_gather_seconds(10, 8)
        assert t8 > t4

    def test_all_gather_monotone_in_bytes(self):
        f = fabric(bandwidth=10.0, latency=1e-4)
        times = [f.all_gather_seconds(nbytes, 8) for nbytes in (0, 10, 100, 1000)]
        assert times == sorted(times) and times[-1] > times[0]

    def test_broadcast_stream_monotone_in_bytes_and_cores(self):
        f = fabric(bandwidth=10.0, latency=1e-4)
        assert f.broadcast_stream_seconds(100, 1, 8) > f.broadcast_stream_seconds(10, 1, 8)
        assert f.broadcast_stream_seconds(100, 1, 8) > f.broadcast_stream_seconds(100, 1, 4)
        assert f.broadcast_stream_seconds(100, 1, 1) == 0.0
        assert f.broadcast_stream_seconds(0, 1, 8) == 0.0
        assert f.broadcast_stream_seconds(100, 0, 8) == 0.0

    def test_broadcast_stream_pays_the_pipeline_fill_once(self):
        f = fabric(bandwidth=100.0, latency=0.01)
        assert f.broadcast_stream_seconds(200, 1, 4) == pytest.approx(2.0 + 3 * 0.01)
        assert f.broadcast_stream_seconds(200, 3, 4) == pytest.approx(6.0 + 3 * 0.01)

    def test_broadcast_stream_rejects_negative_counts(self):
        f = fabric()
        with pytest.raises(ValueError, match="message count cannot be negative"):
            f.broadcast_stream_seconds(100, -1, 4)
        with pytest.raises(ValueError, match="payload cannot be negative"):
            f.broadcast_stream_seconds(-1, 1, 4)
        with pytest.raises(ValueError, match="need at least one core"):
            f.broadcast_stream_seconds(100, 1, 0)


class TestConfigValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            InterconnectConfig(link_bandwidth_bytes_per_sec=0)

    def test_bad_latency(self):
        with pytest.raises(ValueError):
            InterconnectConfig(link_latency_sec=-1)

    def test_bad_topology(self):
        with pytest.raises(ValueError):
            InterconnectConfig(topology="torus")
