"""Ledger templates and plan layouts keep every bit of the per-row arithmetic.

Pricing builds each multi-row ledger template once per device and plane
shape (:meth:`repro.hw.device.Device.ledger_template`) and replays it
(:meth:`repro.hw.device.DeviceStats.record_rows`); a fleet executor
builds each plan's wave layout once (:class:`repro.core.fleet._PlanLayout`).
The property test runs fleets of several pair counts through one
executor (templates and layouts warm), through a fresh executor per
fleet (cold), and through a fresh executor whose templates are priced
afresh for every call and replayed one ``record`` call per row -- the
arithmetic before templates.  All three must agree bit for bit: results,
every ``DeviceStats`` field, and on a pod its ``chip_stats``,
``collective_log`` and ``commit_log``.

Tier-1 runs Hypothesis's default example count; CI also runs this file
under the ``deep`` profile (``tests/conftest.py``).
"""

import contextlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import planted_interpretation_pairs
from repro.core import FleetExecutor, TpuBackend, make_tpu_chip
from repro.core.fleet import wave_row_map
from repro.core.interpretation import _linearity_geometry
from repro.core.masking import MaskSpec
from repro.hw.cpu import CpuDevice
from repro.hw.device import (
    _REPLAY_BLOCK_ROWS, _REPLAY_LOOP_ROWS, Device, DeviceStats, LedgerTemplate,
)
from repro.hw.pod import TpuPod

SHAPES = [(4, 4), (8, 8), (8, 4), (6, 6), (5, 7)]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@contextlib.contextmanager
def per_row_pricing():
    """Price every template afresh and record it one row at a time."""

    def record_rows(self, template, times):
        for _ in range(times):
            for row in template.rows:
                self.record(*row)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeviceStats, "record_rows", record_rows)
        patch.setattr(Device, "ledger_template", lambda self, key, rows: LedgerTemplate(rows()))
        yield


def stats_bits(stats):
    return (
        stats.seconds.hex(), stats.macs, stats.bytes_moved,
        list(stats.op_counts.items()),
        [(op, seconds.hex()) for op, seconds in stats.op_seconds.items()],
    )


def ledger_bits(device):
    """Every ledger bit of ``device``, a pod's per-chip and per-wave logs too."""
    bits = [stats_bits(device.stats)]
    if isinstance(device, TpuPod):
        bits += [stats_bits(stats) for stats in device.chip_stats]
        bits += [repr(device.collective_log), repr(device.commit_log)]
    return bits


def result_bits(run):
    return [sorted(run.problems.items())] + [
        (result.kernel.tobytes(), np.asarray(result.scores).tobytes(),
         float(result.residual).hex())
        for result in run.results
    ]


@st.composite
def configurations(draw):
    shape = draw(st.sampled_from(SHAPES))
    granularity = draw(st.sampled_from(["blocks", "columns", "rows", "elements"]))
    block_shape = None
    if granularity == "blocks":
        block_shape = (
            draw(st.sampled_from(divisors(shape[0]))),
            draw(st.sampled_from(divisors(shape[1]))),
        )
    exact = [None, "fp32"]
    return dict(
        shape=shape,
        device=draw(st.sampled_from(["tpu", "cpu"])),
        num_chips=draw(st.sampled_from([1, 2, 4])),
        placement=draw(st.sampled_from(["data", "chunk", "wave"])),
        granularity=granularity,
        block_shape=block_shape,
        precision=draw(st.sampled_from(exact + ["int8", "bf16"])),
        reduction=draw(st.sampled_from(["l1", "l2"])),
        complex_y=draw(st.booleans()),
        max_pairs_per_wave=draw(st.sampled_from([None, 1, 2, 3])),
        counts=draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)),
        seed=draw(st.integers(0, 2**16)),
    )


def fleets(config):
    """One fleet per drawn pair count; odd pairs get a complex ``y`` on request."""
    out = []
    for number, count in enumerate(config["counts"]):
        pairs = planted_interpretation_pairs(
            count, shape=config["shape"], seed=config["seed"] + number
        )
        if config["complex_y"]:
            pairs = [
                (x, y + 0.5j * np.roll(y, 1) if index % 2 else y)
                for index, (x, y) in enumerate(pairs)
            ]
        out.append(pairs)
    return out


def executor(config):
    if config["device"] == "cpu":
        device = CpuDevice()
    else:
        device = TpuBackend(make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=8, mxu_cols=8))
    return FleetExecutor(
        device, granularity=config["granularity"], block_shape=config["block_shape"],
        eps=1e-6, precision=config["precision"], reduction=config["reduction"],
        num_chips=config["num_chips"], placement=config["placement"],
        max_pairs_per_wave=config["max_pairs_per_wave"],
    )


def run_bits(run, device):
    return result_bits(run), ledger_bits(device)


@settings(deadline=None)
@given(configurations())
def test_warm_cold_and_per_row_pricing_agree_bit_for_bit(config):
    warm = executor(config)
    warm_bits = []
    for pairs in fleets(config):
        warm.device.reset_stats()
        warm_bits.append(run_bits(warm.run(pairs), warm.device))
    cold_bits = []
    for pairs in fleets(config):
        cold = executor(config)
        cold_bits.append(run_bits(cold.run(pairs), cold.device))
    with per_row_pricing():
        reference_bits = []
        for pairs in fleets(config):
            fresh = executor(config)
            reference_bits.append(run_bits(fresh.run(pairs), fresh.device))
    assert warm_bits == cold_bits == reference_bits


def replay_equals_loop(template, times):
    """``record_rows`` and a ``record`` call per row leave equal ledgers,
    starting from one that already holds some of the template's ops."""
    looped, replayed = DeviceStats(), DeviceStats()
    for stats in (looped, replayed):
        stats.record("a", 0.25, macs=3)
        stats.record("infeed", 1e-3, bytes_moved=64)
    for _ in range(times):
        for row in template:
            looped.record(*row)
    replayed.record_rows(LedgerTemplate(template), times)
    assert stats_bits(replayed) == stats_bits(looped)


class TestRecordRows:
    def test_equals_one_record_call_per_row(self):
        """300 random templates of 1-8 rows, replayed 1-3,000 times."""
        rng = random.Random(0)
        for _ in range(300):
            template = tuple(
                (rng.choice("abcd"), rng.choice([0.0, rng.random() * 10.0 ** rng.randint(-12, 2)]),
                 rng.randint(0, 10**6), rng.randint(0, 10**4))
                for _ in range(rng.randint(1, 8))
            )
            replay_equals_loop(template, rng.randint(1, rng.choice([20, 3000])))

    @pytest.mark.parametrize("width", [1, 3, 7, _REPLAY_BLOCK_ROWS + 5])
    def test_a_replay_spanning_several_blocks_equals_the_loop(self, width):
        """Blocks of at most ``_REPLAY_BLOCK_ROWS`` rows bound the scratch
        memory; each starts from the last one's running values."""
        rng = random.Random(width)
        template = tuple(
            (rng.choice("abc"), rng.random() * 10.0 ** rng.randint(-9, 0), rng.randint(0, 99), 1)
            for _ in range(width)
        )
        per_block = max(1, _REPLAY_BLOCK_ROWS // width)
        replay_equals_loop(template, 3 * per_block + 2)

    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_short_replays_record_row_by_row(self, times):
        """Up to ``_REPLAY_LOOP_ROWS`` rows, a replay is a ``record`` call
        per row and derives no layout; past it, the accumulate."""
        rows = tuple((op, 0.1 * (index + 1), index, 2) for index, op in enumerate("abcdabca"))
        replay_equals_loop(rows, times)
        template = LedgerTemplate(rows)
        DeviceStats().record_rows(template, times)
        assert ("replay" in vars(template)) == (times * len(rows) > _REPLAY_LOOP_ROWS)

    def test_zero_times_records_nothing_and_negative_times_raise(self):
        stats = DeviceStats()
        template = LedgerTemplate((("fft2", 1.0, 4, 0),))
        stats.record_rows(template, 0)
        assert stats_bits(stats) == stats_bits(DeviceStats())
        with pytest.raises(ValueError, match="-1 times"):
            stats.record_rows(template, -1)

    def test_a_negative_row_raises_before_anything_is_recorded(self):
        device = CpuDevice()
        with pytest.raises(ValueError, match="negative simulated time for 'bad'"):
            device.ledger_template(("probe",), lambda: [("fft2", 1.0, 4, 0), ("bad", -1.0, 0, 0)])
        assert stats_bits(device.stats) == stats_bits(DeviceStats())

    def test_a_template_is_priced_once_per_device_and_key(self):
        device = CpuDevice()
        built = []

        def rows():
            built.append(1)
            return [("fft2", device.fft2_seconds(4, 4), 1, 0)]

        first = device.ledger_template(("probe", 4, 4), rows)
        assert device.ledger_template(("probe", 4, 4), rows) is first
        assert len(built) == 1
        assert CpuDevice().ledger_template(("probe", 4, 4), rows).rows == first.rows
        assert len(built) == 2


class TestReadOnlyCaches:
    """Every array a template, geometry or layout shares raises on write."""

    def test_template_seconds(self):
        _, _, seconds, _, _ = LedgerTemplate((("fft2", 1.0, 4, 0), ("conjugate", 0.5, 0, 0))).replay
        with pytest.raises(ValueError, match="read-only"):
            seconds[0, 0] = 2.0

    def test_linearity_geometry(self):
        cells, offsets, _ = _linearity_geometry(MaskSpec.blocks((8, 8), (2, 2)))
        for array in (cells, offsets):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    @pytest.mark.parametrize("granularity,block_shape", [
        ("blocks", (2, 2)), ("columns", None), ("elements", None),
    ])
    def test_plan_layout_rows(self, granularity, block_shape):
        pairs = planted_interpretation_pairs(3, shape=(4, 4), seed=1)
        executor = FleetExecutor(CpuDevice(), granularity=granularity, block_shape=block_shape)
        executor.run(pairs)
        for array in executor._layout((4, 4)).rows(3):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestPlanLayoutRows:
    @pytest.mark.parametrize("num_masks", [0, 1, 4, 16])
    def test_prefix_of_a_wider_map_is_the_narrower_map(self, num_masks):
        widest = wave_row_map([num_masks] * 9)
        for pairs in range(1, 10):
            size = pairs * (num_masks + 1)
            for got, want in zip(widest, wave_row_map([num_masks] * pairs)):
                np.testing.assert_array_equal(got[:size], want)

    @pytest.mark.parametrize("granularity,block_shape", [
        ("blocks", (2, 2)), ("rows", None), ("elements", None),
    ])
    def test_rows_equal_wave_row_map_at_every_width_in_any_order(self, granularity, block_shape):
        pairs = planted_interpretation_pairs(1, shape=(4, 4), seed=2)
        executor = FleetExecutor(CpuDevice(), granularity=granularity, block_shape=block_shape)
        executor.run(pairs)
        layout = executor._layout((4, 4))
        for count in (3, 1, 6, 2, 6, 5):
            rows = layout.rows(count)
            expected = wave_row_map([layout.num_masks] * count)
            assert len(rows) == len(expected) == 3
            for got, want in zip(rows, expected):
                np.testing.assert_array_equal(got, want)
            pair_base = layout.pair_base(count)
            assert pair_base == [index * (layout.num_masks + 1) for index in range(count)]
