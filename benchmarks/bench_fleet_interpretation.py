"""Fleet-scale interpretation: wave-fused vs per-pair execution.

Reports executed, Table II-style ledgers at fleet scale (1 / 10 / 100
planted 16x16 pairs) for block and column occlusion, in four execution
modes, every one of them run on the simulated device:

* ``loop``  -- the paper's measured per-feature execution: the literal
  reference in ``tests/reference.py``, one program per pair and one
  masked convolution per feature (what Table II's loop model prices);
* ``pair``  -- the fleet executor with one-pair waves: one batched
  program per pair;
* ``wave``  -- the fleet executor, one batched program for the whole
  fleet (one dispatch on the TPU);
* ``wave-pip`` -- the fleet split into 10-pair waves, double-buffered:
  wave ``i+1``'s dispatch + infeed overlaps wave ``i``'s compute, the
  hidden host-link time (the negative ``infeed_overlap`` ledger row)
  reported as the *overlap* column.

A second report covers the **precision axis**
(``ExplanationPipeline(precision=...)``): for each fleet size it shows
the executed wave-pipelined seconds per precision on the full-size TPU,
the simulated speedup over fp64 waves, and the executed quantization
error of batched scores -- which is asserted equal to the looped
reference's at the same precision, run with the fleet's kernels, bit
for bit (batching adds no error) and within the documented
``quantized_conv_error_bound``.

Shape contracts asserted (also run by CI via the ``--quick`` smoke
mode, plus ``--pipelined`` for the overlap contract): wave-fused TPU
dispatch count strictly below the per-pair count, wave simulated
seconds below pair seconds, the wave gain growing with fleet size on
the TPU, wave scores bit-identical to one-pair waves and within
``tests.reference.SCORE_TOLERANCE`` (1e-9 of a pair's largest score) of
the looped reference, from which the fleet's l2 scorer departs only in
the last bits, the 100-pair
multi-wave run carrying a negative ``infeed_overlap`` row with its
elapsed equal to ``pipelined_elapsed_seconds`` of its stages and one
dispatch per wave, and -- in the quantized smoke, part of ``--quick``
-- int8 batched error within the documented bound with dispatch counts
matching the exact run.

A third mode, ``--scaling``, exercises the **pod axis**
(``ExplanationPipeline(num_chips=K)``): the same fleet sharded across
K simulated chips, each with its own asynchronous host link, so a wave
costs ``max(launch round trip, max per-chip infeed + compute +
outfeed)`` plus the remaining true collectives.  It emits
strong-scaling (fixed 100-pair fleet, 1/2/4/8 chips) and weak-scaling
(25 pairs per chip) curves with per-chip infeed/outfeed and
launch-exposure columns itemized from the pod's collective log, plus
overlapped-chunk and wave-placement rows, asserts pod scores
bit-identical to the single-chip run at every chip count, placement
and precision (fp64/bf16/int8), requires the strong-scaling simulated
speedup to clear ``2.5x`` at 4 chips and ``5.0x`` at 8, the
overlapped chunk placement to clear ``2.2x`` at 4 chips, and refuses
to regress any chip count below the committed
``BENCH_fleet_scaling.json`` before overwriting it.  ``--scaling
--quick`` is the CI variant: the same 100-pair fleet at 1/8 chips plus
the 4-chip chunk row, asserting both strictly improve the
pre-sharded-host-link committed baselines (3.44x and 1.78x), with a
``BENCH_fleet_scaling_quick.json`` artifact.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_fleet_interpretation.py \
        [--quick] [--pipelined] [--scaling] [--json PATH]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.bench.workloads import planted_interpretation_pairs  # noqa: E402
from repro.core.backend import TpuBackend, make_tpu_chip  # noqa: E402
from repro.core.pipeline import ExplanationPipeline  # noqa: E402
from repro.hw.cpu import CpuDevice  # noqa: E402
from repro.hw.device import PipelineStage, pipelined_elapsed_seconds  # noqa: E402
from repro.hw.gpu import GpuDevice  # noqa: E402
from repro.hw.pod import TpuPod  # noqa: E402
from repro.obs.tracer import tracer  # noqa: E402
from tests import reference  # noqa: E402

FLEET_SIZES = (1, 10, 100)
SHAPE = (16, 16)
BLOCK = (4, 4)
GRANULARITIES = (("blocks", BLOCK), ("columns", None))  # image / trace workloads
PAIRS_PER_WAVE = 10  # wave width for the pipelined columns/contracts
PRECISIONS = ("fp64", "bf16", "int8")  # the quantized-batch ladder

# --- pod scaling mode -------------------------------------------------
# Per-element masks on a 32x32 plane give each pair 1025 mask rows, so
# the 100-pair fleet's wave compute dwarfs the serial program overhead
# (dispatch + host infeed/outfeed on chip 0) that strong scaling cannot
# shard.  Plane stays a power of two: the host rFFT path prices (and
# runs) those sizes fastest.
SCALING_SHAPE = (32, 32)
SCALING_BLOCK = (1, 1)
SCALING_PAIRS = 100  # the strong-scaling fleet
SCALING_CHIPS = (1, 2, 4, 8)
WEAK_PAIRS_PER_CHIP = 25
IDENTITY_PAIRS = 20  # fleet size for the precision/chip-count identity matrix
STRONG_FLOOR_4_CHIPS = 2.5  # strong-scaling acceptance bars (full mode)
STRONG_FLOOR_8_CHIPS = 5.0
CHUNK_FLOOR_4_CHIPS = 2.2  # overlapped root solve must clear this
# The pre-sharded-host-link committed curve (chip-0 fabric scatter,
# serial per-chip launches).  The CI smoke asserts the async host-link
# model strictly improves both.
COMMITTED_STRONG_8_CHIPS = 3.44
COMMITTED_CHUNK_4_CHIPS = 1.78


def small_backend(num_cores=8):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


def planted_pairs(count, shape=SHAPE, seed=0):
    return planted_interpretation_pairs(count, shape=shape, seed=seed)


def _run(pairs, device=None, granularity="blocks", block_shape=BLOCK, **kwargs):
    """The fleet executor's run (``max_pairs_per_wave=1``: one-pair waves)."""
    pipeline = ExplanationPipeline(
        device or small_backend(), granularity=granularity,
        block_shape=block_shape, eps=1e-8, **kwargs,
    )
    return pipeline.run(pairs)


def _looped(
    pairs, device=None, granularity="blocks", block_shape=BLOCK, precision=None, kernels=None,
):
    """The looped reference on ``device``: ``(explanations, ledger)``.

    Given ``kernels`` (a fleet run's), each pair is interpreted with its
    kernel and not solved, so the ledger lacks the solves.
    """
    device = device or small_backend()
    explanations = reference.explain_all(
        pairs, device=device, granularity=granularity, block_shape=block_shape,
        eps=1e-8, precision=precision, kernels=kernels,
    )
    return explanations, device.take_stats()


def _kernels(run):
    """The kernels of a pipeline run, one per pair."""
    return [explanation.kernel for explanation in run.explanations]


def _traced_stages(run_fleet):
    """Run ``run_fleet()`` traced; returns its result and its program stages."""
    tracer.clear()
    with tracer.tracing():
        result = run_fleet()
    stages = [
        PipelineStage(e.args["prologue"], e.args["body"], e.args["epilogue"])
        for e in tracer.spans("device")
        if e.name == "program" and e.args["depth"] == 0
    ]
    tracer.clear()
    return result, stages


# ----------------------------------------------------------------------
# Executed-pipeline contracts
# ----------------------------------------------------------------------


def test_wave_dispatch_count_below_pair_dispatch_count():
    """The acceptance contract: a fused fleet costs one dispatch per
    wave where one-pair waves cost one program per pair."""
    pairs = planted_pairs(10)
    wave = _run(pairs)
    pair = _run(pairs, max_pairs_per_wave=1)
    assert wave.stats.op_counts["dispatch"] == 1
    assert pair.stats.op_counts["dispatch"] == 10
    assert wave.stats.op_counts["dispatch"] < pair.stats.op_counts["dispatch"]
    assert "conv_round_trip" not in wave.stats.op_counts
    assert wave.simulated_seconds < pair.simulated_seconds


def test_scores_bit_identical_across_fusion():
    pairs = planted_pairs(6, seed=1)
    wave, pair = _run(pairs), _run(pairs, max_pairs_per_wave=1)
    for a, b in zip(wave.explanations, pair.explanations):
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        assert a.residual == b.residual
    looped, _ = _looped(pairs)
    reference.assert_matches(
        wave.explanations, looped, pairs, granularity="blocks", block_shape=BLOCK, eps=1e-8
    )


def test_tpu_wave_gain_grows_with_fleet_size():
    def gain(n):
        pairs = planted_pairs(n)
        pair = _run(pairs, TpuBackend(make_tpu_chip()), max_pairs_per_wave=1)
        wave = _run(pairs, TpuBackend(make_tpu_chip()))
        return pair.simulated_seconds / wave.simulated_seconds

    gains = [gain(n) for n in FLEET_SIZES]
    assert gains == sorted(gains)
    assert gains[-1] > gains[0]


def test_pipelined_waves_beat_serial_waves():
    """The overlap contract at executed scale: a multi-wave fleet runs
    double-buffered -- elapsed equals ``pipelined_elapsed_seconds`` of
    its program stages, strictly below their serial sum -- with one
    dispatch per wave, scores bit-identical to one unpipelined wave and
    within the linearity bound of the looped reference."""
    pairs = planted_pairs(100)
    pipelined, stages = _traced_stages(
        lambda: _run(pairs, max_pairs_per_wave=PAIRS_PER_WAVE)
    )
    assert len(stages) == 100 // PAIRS_PER_WAVE
    assert pipelined.stats.op_counts["dispatch"] == len(stages)
    assert pipelined.stats.op_counts["infeed_overlap"] == 1
    assert pipelined.stats.op_seconds["infeed_overlap"] < 0
    assert pipelined.simulated_seconds == pytest.approx(
        pipelined_elapsed_seconds(stages), rel=1e-12
    )
    assert pipelined.simulated_seconds < sum(stage.total for stage in stages)
    single = _run(pairs)
    for a, b in zip(single.explanations, pipelined.explanations):
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.residual == b.residual
    looped, _ = _looped(pairs, device=CpuDevice())
    reference.assert_matches(
        pipelined.explanations, looped, pairs, granularity="blocks", block_shape=BLOCK,
        eps=1e-8,
    )


class TestQuantizedFleetContracts:
    """The precision-axis acceptance contracts at executed fleet scale."""

    def test_quantized_wave_matches_quantized_loop_bit_for_bit(self):
        pairs = planted_pairs(6, seed=5)
        for precision in ("int8", "bf16"):
            wave = _run(pairs, precision=precision)
            looped, _ = _looped(pairs, precision=precision, kernels=_kernels(wave))
            for a, b in zip(wave.explanations, looped):
                np.testing.assert_array_equal(a.scores, b.scores)
                assert a.residual == b.residual

    def test_quantized_dispatch_structure_matches_fp64(self):
        pairs = planted_pairs(10, seed=6)
        fp64 = _run(pairs, precision="fp64")
        int8 = _run(pairs, precision="int8")
        assert int8.stats.op_counts == fp64.stats.op_counts
        assert int8.simulated_seconds < fp64.simulated_seconds

    def test_quantized_cost_model_ordering_matches_executed(self):
        """The precision ladder's direction holds at every fleet size on
        the full-size chip."""
        for pairs_count in (1, 10):
            pairs = planted_pairs(pairs_count)
            executed = {
                name: _run(pairs, TpuBackend(make_tpu_chip()), precision=name).simulated_seconds
                for name in PRECISIONS
            }
            assert executed["int8"] < executed["bf16"] < executed["fp64"]


def _max_score_error(explanations, exact):
    """Executed error metric: max |score - reference score| over a fleet."""
    return max(
        float(np.max(np.abs(a.scores - b.scores)))
        for a, b in zip(explanations, exact)
    )


def _quantized_error(pairs, precision):
    """Max executed score error of a quantized wave fleet vs exact."""
    exact = _run(pairs)
    quantized = _run(pairs, precision=precision)
    return _max_score_error(quantized.explanations, exact.explanations), quantized, exact


# ----------------------------------------------------------------------
# Pod scaling mode (--scaling)
# ----------------------------------------------------------------------


def _scaling_run(pairs, num_chips, placement="data", precision=None, **kwargs):
    """Run the scaling fleet on K chips; returns (run, pod-or-None)."""
    pipeline = ExplanationPipeline(
        TpuBackend(make_tpu_chip()),
        granularity="blocks",
        block_shape=SCALING_BLOCK,
        eps=1e-8,
        precision=precision,
        num_chips=num_chips if num_chips > 1 else None,
        placement=placement,
        **kwargs,
    )
    run = pipeline.run(pairs)
    pod = pipeline.device if isinstance(pipeline.device, TpuPod) else None
    return run, pod


def _runs_identical(reference, run):
    return all(
        np.array_equal(a.scores, b.scores) and a.residual == b.residual
        for a, b in zip(reference.explanations, run.explanations)
    )


def _wave_records(pod):
    """Itemize the pod's collective log: one record per committed wave.

    The per-chip host-link columns (``infeed_seconds`` /
    ``outfeed_seconds``) and the launch-exposure split are the sharded
    infeed's audit trail: each chip's feed time over its own link, and
    how much of the per-chip launch latency the asynchronous enqueue
    actually hid behind the wave body.
    """
    return [
        {
            "wave_index": w.wave_index,
            "placement": w.placement,
            "num_pairs": w.num_pairs,
            "num_rows": w.num_rows,
            "active_chips": w.active_chips,
            "chip_index": w.chip_index,
            "chip_seconds": list(w.chip_seconds),
            "infeed_seconds": list(w.infeed_seconds),
            "outfeed_seconds": list(w.outfeed_seconds),
            "dispatch_seconds": w.dispatch_seconds,
            "launched_chips": w.launched_chips,
            "launch_exposed_seconds": w.launch_exposed_seconds,
            "launch_hidden_seconds": w.launch_hidden_seconds,
            "solve_seconds": w.solve_seconds,
            "gated_body_seconds": w.gated_body_seconds,
            "scatter_seconds": w.scatter_seconds,
            "scatter_bytes": w.scatter_bytes,
            "broadcast_seconds": w.broadcast_seconds,
            "broadcast_bytes": w.broadcast_bytes,
            "gather_seconds": w.gather_seconds,
            "gather_bytes": w.gather_bytes,
        }
        for w in pod.collective_log
    ]


def _scaling_entry(run, pod, baseline_seconds=None):
    entry = {
        "simulated_seconds": run.simulated_seconds,
        "num_waves": run.num_programs,
    }
    if pod is not None:
        waves = _wave_records(pod)
        entry["waves"] = waves
        entry["collective_seconds"] = sum(
            w["scatter_seconds"] + w["broadcast_seconds"] + w["gather_seconds"]
            for w in waves
        )
        entry["max_chip_infeed_seconds"] = max(
            (max(w["infeed_seconds"], default=0.0) for w in waves),
            default=0.0,
        )
        entry["launch_exposed_seconds"] = sum(
            w["launch_exposed_seconds"] for w in waves
        )
        entry["launch_hidden_seconds"] = sum(
            w["launch_hidden_seconds"] for w in waves
        )
    if baseline_seconds is not None:
        entry["speedup_vs_1chip"] = baseline_seconds / run.simulated_seconds
    return entry


def _committed_speedups(path="BENCH_fleet_scaling.json"):
    """Strong/chunk speedups from the committed artifact, if present."""
    try:
        with open(path) as handle:
            committed = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None, None
    strong = {
        k: entry["speedup_vs_1chip"]
        for k, entry in committed.get("strong", {}).get("runs", {}).items()
        if "speedup_vs_1chip" in entry
    }
    chunk = (committed.get("chunk_placement_4_chips") or {}).get(
        "speedup_vs_1chip"
    )
    return strong, chunk


def _scaling_mode(quick=False, json_path=None, timeline=False) -> int:
    """Strong/weak pod-scaling curves plus the bit-identity matrix.

    Exits non-zero unless every pod run's scores equal the single-chip
    run bit for bit (at every chip count, placement and, in full mode,
    every precision) and the speedups clear their bars.  Full mode:
    4-chip >= 2.5x, 8-chip >= 5.0x, overlapped chunk K=4 >= 2.2x, and
    no chip count may regress below the committed artifact.  Quick (CI
    smoke): the same 100-pair fleet at 1/8 chips plus the chunk row,
    both strictly above the pre-sharded-host-link committed baselines.
    """
    chip_counts = (1, 8) if quick else SCALING_CHIPS
    strong_fleet = SCALING_PAIRS
    placement = "data"
    failures = []
    committed_strong, committed_chunk = _committed_speedups()

    # Strong scaling: fixed fleet, growing chip count.
    pairs = planted_pairs(strong_fleet, shape=SCALING_SHAPE, seed=0)
    print(
        f"POD STRONG SCALING ({strong_fleet} pairs, {SCALING_SHAPE[0]}x"
        f"{SCALING_SHAPE[1]} planes, per-element masks, {placement} placement)"
    )
    strong = {}
    reference = None
    last_pod = None
    for k in chip_counts:
        run, pod = _scaling_run(pairs, k)
        if reference is None:
            reference = run
        entry = _scaling_entry(run, pod, reference.simulated_seconds)
        entry["bit_identical_to_1chip"] = _runs_identical(reference, run)
        if not entry["bit_identical_to_1chip"]:
            failures.append(f"strong scaling K={k}: scores diverge from 1 chip")
        strong[str(k)] = entry
        if pod is not None:
            last_pod = pod
        collective = entry.get("collective_seconds", 0.0)
        print(
            f"  chips={k}: seconds={run.simulated_seconds:.4f} "
            f"speedup={entry['speedup_vs_1chip']:.2f}x "
            f"max_chip_infeed={entry.get('max_chip_infeed_seconds', 0.0):.6f}s "
            f"launch_exposed={entry.get('launch_exposed_seconds', 0.0):.6f}s "
            f"collectives={collective:.6f}s "
            f"identical={entry['bit_identical_to_1chip']}"
        )
    if timeline and last_pod is not None:
        # The per-wave ASCII decomposition of the last (widest) strong
        # run: one =infeed/#compute/-outfeed bar per busy chip.
        from repro.obs.export import format_wave_timeline

        print(format_wave_timeline(last_pod.collective_log))
    if quick:
        strong_speedup = strong["8"]["speedup_vs_1chip"]
        if strong_speedup <= COMMITTED_STRONG_8_CHIPS:
            failures.append(
                f"strong scaling: 8-chip speedup {strong_speedup:.2f}x does "
                f"not improve the committed {COMMITTED_STRONG_8_CHIPS}x"
            )
    else:
        for k, floor in ((4, STRONG_FLOOR_4_CHIPS), (8, STRONG_FLOOR_8_CHIPS)):
            speedup = strong[str(k)]["speedup_vs_1chip"]
            if speedup < floor:
                failures.append(
                    f"strong scaling: {k}-chip speedup {speedup:.2f}x "
                    f"below the {floor}x floor"
                )
        strong_speedup = strong["4"]["speedup_vs_1chip"]
        if committed_strong:
            # Regression gate: the refreshed artifact must not fall
            # below the committed curve at any chip count it shares.
            for k, committed in sorted(committed_strong.items()):
                measured = strong.get(k, {}).get("speedup_vs_1chip")
                if measured is not None and measured < committed - 1e-9:
                    failures.append(
                        f"strong scaling regression: {k}-chip speedup "
                        f"{measured:.2f}x below committed {committed:.2f}x"
                    )

    # Chunk placement: same fleet, rows sharded instead of pairs, the
    # root's kernel solve overlapped against peer mask-row streaming.
    run, pod = _scaling_run(pairs, 4, placement="chunk")
    chunk = _scaling_entry(run, pod, reference.simulated_seconds)
    chunk["bit_identical_to_1chip"] = _runs_identical(reference, run)
    if not chunk["bit_identical_to_1chip"]:
        failures.append("chunk placement K=4: scores diverge from 1 chip")
    chunk_speedup = chunk["speedup_vs_1chip"]
    print(
        f"  chips=4 (chunk placement): seconds={run.simulated_seconds:.4f} "
        f"speedup={chunk_speedup:.2f}x "
        f"solve={sum(w['solve_seconds'] for w in chunk['waves']):.4f}s "
        f"collectives={chunk['collective_seconds']:.6f}s "
        f"identical={chunk['bit_identical_to_1chip']}"
    )
    if timeline and pod is not None:
        from repro.obs.export import format_wave_timeline

        print(format_wave_timeline(pod.collective_log))
    if quick:
        if chunk_speedup <= COMMITTED_CHUNK_4_CHIPS:
            failures.append(
                f"chunk placement: K=4 speedup {chunk_speedup:.2f}x does "
                f"not improve the committed {COMMITTED_CHUNK_4_CHIPS}x"
            )
    else:
        if chunk_speedup < CHUNK_FLOOR_4_CHIPS:
            failures.append(
                f"chunk placement: K=4 speedup {chunk_speedup:.2f}x below "
                f"the {CHUNK_FLOOR_4_CHIPS}x floor"
            )
        if committed_chunk is not None and chunk_speedup < committed_chunk - 1e-9:
            failures.append(
                f"chunk placement regression: K=4 speedup {chunk_speedup:.2f}x "
                f"below committed {committed_chunk:.2f}x"
            )

    # Wave placement: whole waves round-robined across chips.
    wave_entry = None
    if not quick:
        run, pod = _scaling_run(pairs, 4, placement="wave", max_pairs_per_wave=25)
        wave_entry = _scaling_entry(run, pod, reference.simulated_seconds)
        wave_entry["bit_identical_to_1chip"] = _runs_identical(reference, run)
        if not wave_entry["bit_identical_to_1chip"]:
            failures.append("wave placement K=4: scores diverge from 1 chip")
        print(
            f"  chips=4 (wave placement, 25-pair waves): "
            f"seconds={run.simulated_seconds:.4f} "
            f"speedup={wave_entry['speedup_vs_1chip']:.2f}x "
            f"identical={wave_entry['bit_identical_to_1chip']}"
        )

    # Weak scaling: fleet grows with the chip count.
    weak = None
    if not quick:
        print(f"POD WEAK SCALING ({WEAK_PAIRS_PER_CHIP} pairs per chip)")
        weak = {"pairs_per_chip": WEAK_PAIRS_PER_CHIP, "runs": {}}
        weak_baseline = None
        for k in SCALING_CHIPS:
            weak_pairs = planted_pairs(
                WEAK_PAIRS_PER_CHIP * k, shape=SCALING_SHAPE, seed=1
            )
            run, pod = _scaling_run(weak_pairs, k)
            if weak_baseline is None:
                weak_baseline = run.simulated_seconds
            entry = _scaling_entry(run, pod)
            entry["pairs"] = len(weak_pairs)
            entry["efficiency"] = weak_baseline / run.simulated_seconds
            weak["runs"][str(k)] = entry
            print(
                f"  chips={k}: pairs={len(weak_pairs)} "
                f"seconds={run.simulated_seconds:.4f} "
                f"efficiency={entry['efficiency']:.2f}"
            )

    # Bit-identity matrix across the precision ladder and every
    # placement axis (sharded-data, overlapped-chunk, wave).
    precisions = ("int8",) if quick else PRECISIONS
    identity_chips = [k for k in chip_counts if k > 1]
    identity_placements = ("data",) if quick else ("data", "chunk", "wave")
    identity = {
        "pairs": IDENTITY_PAIRS,
        "precisions": list(precisions),
        "chip_counts": identity_chips,
        "placements": list(identity_placements),
        "all_identical": True,
    }
    identity_pairs = planted_pairs(IDENTITY_PAIRS, shape=SCALING_SHAPE, seed=2)
    print(
        f"POD BIT-IDENTITY MATRIX ({IDENTITY_PAIRS} pairs; "
        f"precisions {'/'.join(precisions)} x chips "
        f"{'/'.join(str(k) for k in identity_chips)} x placements "
        f"{'/'.join(identity_placements)})"
    )
    for precision in precisions:
        single, _ = _scaling_run(identity_pairs, 1, precision=precision)
        for k in identity_chips:
            for identity_placement in identity_placements:
                sharded, _ = _scaling_run(
                    identity_pairs, k,
                    placement=identity_placement, precision=precision,
                )
                identical = _runs_identical(single, sharded)
                print(
                    f"  {precision} chips={k} {identity_placement}: "
                    f"identical={identical}"
                )
                if not identical:
                    identity["all_identical"] = False
                    failures.append(
                        f"identity: {precision} at {k} chips "
                        f"({identity_placement}) diverges from 1 chip"
                    )

    interconnect = last_pod.interconnect.config if last_pod else None
    payload = {
        "benchmark": "bench_fleet_scaling",
        "mode": "quick" if quick else "full",
        "clock": "simulated",
        "plane_shape": list(SCALING_SHAPE),
        "block_shape": list(SCALING_BLOCK),
        "rows_per_pair": SCALING_SHAPE[0] * SCALING_SHAPE[1] + 1,
        "placement": placement,
        "interconnect": {
            "topology": interconnect.topology,
            "link_bandwidth_bytes_per_sec": (
                interconnect.link_bandwidth_bytes_per_sec
            ),
            "link_latency_sec": interconnect.link_latency_sec,
        }
        if interconnect
        else None,
        "strong": {"pairs": strong_fleet, "runs": strong},
        "chunk_placement_4_chips": chunk,
        "wave_placement_4_chips": wave_entry,
        "weak": weak,
        "identity": identity,
        "contracts": {
            "strong_speedup_floor_4_chips": STRONG_FLOOR_4_CHIPS,
            "strong_speedup_floor_8_chips": STRONG_FLOOR_8_CHIPS,
            "chunk_speedup_floor_4_chips": CHUNK_FLOOR_4_CHIPS,
            "strong_speedup_measured_4_chips": strong.get("4", {}).get(
                "speedup_vs_1chip"
            ),
            "strong_speedup_measured_8_chips": strong.get("8", {}).get(
                "speedup_vs_1chip"
            ),
            "chunk_speedup_measured_4_chips": chunk_speedup,
            "committed_baseline_strong_8_chips": COMMITTED_STRONG_8_CHIPS,
            "committed_baseline_chunk_4_chips": COMMITTED_CHUNK_4_CHIPS,
            "bit_identity": "pod scores == single-chip scores at every "
            "chip count, placement and precision",
            "bit_identity_holds": identity["all_identical"]
            and not any("diverge" in f for f in failures),
        },
    }
    if json_path is None:
        json_path = (
            "BENCH_fleet_scaling_quick.json"
            if quick
            else "BENCH_fleet_scaling.json"
        )
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_pod_strong_scaling_direction_and_identity():
    """A 4-chip pod must beat one chip on a fleet whose wave compute
    exceeds the unshardable program overhead, without moving a bit."""
    pairs = planted_pairs(10, shape=SCALING_SHAPE, seed=0)
    single, no_pod = _scaling_run(pairs, 1)
    sharded, pod = _scaling_run(pairs, 4)
    assert no_pod is None and pod is not None
    assert sharded.simulated_seconds < single.simulated_seconds
    assert len(pod.collective_log) == 1
    wave = pod.collective_log[0]
    # Sharded host links: every active chip fed its own slice over its
    # own link (no fabric scatter/gather), and the asynchronous enqueue
    # hid some launch latency behind the wave body.
    assert wave.launched_chips == 4
    assert all(seconds > 0.0 for seconds in wave.infeed_seconds)
    assert wave.scatter_seconds == 0.0 and wave.gather_seconds == 0.0
    assert wave.launch_hidden_seconds > 0.0
    assert _runs_identical(single, sharded)


def test_pod_chunk_placement_matches_data_placement():
    pairs = planted_pairs(6, shape=SCALING_SHAPE, seed=4)
    data_run, _ = _scaling_run(pairs, 4, placement="data")
    chunk_run, chunk_pod = _scaling_run(pairs, 4, placement="chunk")
    assert _runs_identical(data_run, chunk_run)
    assert chunk_pod.collective_log[0].broadcast_seconds > 0.0


# ----------------------------------------------------------------------
# Report + CLI smoke mode
# ----------------------------------------------------------------------


def _report(fleet_sizes=FLEET_SIZES) -> str:
    lines = [
        "FLEET-SCALE INTERPRETATION (executed simulated seconds per fleet,",
        f"planted {SHAPE[0]}x{SHAPE[1]} pairs; wave-pip split into "
        f"{PAIRS_PER_WAVE}-pair waves; overlap = host-link time hidden by "
        "double-buffered infeed)",
        f"{'workload':10s} {'pairs':>5s} {'device':6s} "
        f"{'loop':>12s} {'pair':>12s} {'wave':>12s} {'wave-pip':>12s} "
        f"{'overlap':>10s} {'gain':>7s}",
    ]
    for granularity, block_shape in GRANULARITIES:
        options = dict(granularity=granularity, block_shape=block_shape)
        for count in fleet_sizes:
            pairs = planted_pairs(count)
            for name, factory in [
                ("CPU", CpuDevice),
                ("GPU", GpuDevice),
                ("TPU", lambda: TpuBackend(make_tpu_chip())),
            ]:
                _, looped = _looped(pairs, factory(), **options)
                pair = _run(pairs, factory(), max_pairs_per_wave=1, **options)
                wave = _run(pairs, factory(), **options)
                pipelined = _run(
                    pairs, factory(), max_pairs_per_wave=PAIRS_PER_WAVE, **options
                )
                overlap = abs(pipelined.stats.op_seconds.get("infeed_overlap", 0.0))
                lines.append(
                    f"{granularity:10s} {count:5d} {name:6s} "
                    f"{looped.seconds:12.6f} {pair.simulated_seconds:12.6f} "
                    f"{wave.simulated_seconds:12.6f} "
                    f"{pipelined.simulated_seconds:12.6f} {overlap:10.6f} "
                    f"{pair.simulated_seconds / pipelined.simulated_seconds:6.2f}x"
                )
    return "\n".join(lines)


def _precision_report(fleet_sizes=FLEET_SIZES) -> str:
    """The quantized-batch ablation table.

    Seconds columns are executed wave-pipelined fleets on the full-size
    TPU per precision; the error columns compare batched and looped
    reference scores against fp64 (equal by construction, both reported
    so the equality is visible).
    """
    lines = [
        "QUANTIZED BATCHED INTERPRETATION (executed wave-pipelined, simulated seconds)",
        "(speedup = fp64 wave seconds / this precision's wave seconds;",
        " err columns: max |score - fp64 score| over the first 10 pairs;",
        " fp64 is exact by construction)",
        f"{'workload':10s} {'pairs':>5s} {'precision':>9s} "
        f"{'wave-pip':>12s} {'speedup':>8s} {'batched-err':>12s} {'loop-err':>12s}",
    ]
    for granularity, block_shape in GRANULARITIES:
        options = dict(granularity=granularity, block_shape=block_shape)
        for count in fleet_sizes:
            pairs = planted_pairs(count, seed=count)
            seconds = {
                name: _run(
                    pairs, TpuBackend(make_tpu_chip()), precision=name,
                    max_pairs_per_wave=min(PAIRS_PER_WAVE, count), **options,
                ).simulated_seconds
                for name in PRECISIONS
            }
            error_pairs = pairs[:PAIRS_PER_WAVE]
            exact = _run(error_pairs, **options).explanations
            for name in PRECISIONS:
                batched_err = loop_err = 0.0
                if name not in ("fp64", "fp32"):
                    quantized = _run(error_pairs, precision=name, **options)
                    looped, _ = _looped(
                        error_pairs, precision=name, kernels=_kernels(quantized), **options
                    )
                    batched_err = _max_score_error(quantized.explanations, exact)
                    loop_err = _max_score_error(looped, exact)
                lines.append(
                    f"{granularity:10s} {count:5d} {name:>9s} "
                    f"{seconds[name]:12.6f} "
                    f"{seconds['fp64'] / seconds[name]:7.2f}x "
                    f"{batched_err:12.3e} {loop_err:12.3e}"
                )
    return "\n".join(lines)


def _quantized_smoke() -> int:
    """The quantized-batch ablation contract (part of ``--quick``).

    Executes a 10-pair fleet at int8 against the exact (unquantized
    legacy-priced) run and exits non-zero unless int8 batched scores
    equal the int8 looped reference, run with the fleet's kernels, bit
    for bit, the int8 batched error
    stays within the documented ``quantized_conv_error_bound``, and the
    dispatch/op structure matches the exact run exactly.
    """
    from repro.hw.quantize import quantized_score_error_bound

    pairs = planted_pairs(10, seed=3)
    error, int8, exact = _quantized_error(pairs, "int8")
    looped, _ = _looped(pairs, precision="int8", kernels=_kernels(int8))
    # The bound is per pair: each pair's error must respect *its own*
    # documented bound (a fleet-wide max-vs-max comparison could mask a
    # single pair's violation behind another pair's looser bound).
    violations = []
    for index, ((x, _), a, b) in enumerate(
        zip(pairs, int8.explanations, exact.explanations)
    ):
        pair_error = float(np.max(np.abs(a.scores - b.scores)))
        pair_bound = quantized_score_error_bound(x, b.kernel, bits=8)
        if pair_error > pair_bound:
            violations.append((index, pair_error, pair_bound))
    print(
        f"executed 10-pair quantized fleet: int8 batched err={error:.3e} "
        f"(per-pair documented bounds all hold: {not violations}), dispatches "
        f"int8={int8.stats.op_counts['dispatch']} "
        f"exact={exact.stats.op_counts['dispatch']}, seconds "
        f"int8={int8.simulated_seconds:.4f} exact={exact.simulated_seconds:.4f}"
    )
    for a, b in zip(int8.explanations, looped):
        if not np.array_equal(a.scores, b.scores):
            print(
                "FAIL: int8 batched scores must equal the int8 looped "
                "reference with the fleet's kernels bit for bit",
                file=sys.stderr,
            )
            return 1
    if violations:
        for index, err, pair_bound in violations:
            print(
                f"FAIL: pair {index} int8 batched error {err:.3e} exceeds "
                f"its documented bound {pair_bound:.3e}",
                file=sys.stderr,
            )
        return 1
    if int8.stats.op_counts != exact.stats.op_counts:
        print(
            "FAIL: quantization must not change the dispatch/op structure",
            file=sys.stderr,
        )
        return 1
    return 0


def _pipelined_smoke() -> int:
    """Executed overlap contract at 100 pairs (the CI pipelined smoke).

    Runs the 100-pair fleet in 10-pair waves and exits non-zero unless
    the run carries a negative ``infeed_overlap`` row, its elapsed
    equals ``pipelined_elapsed_seconds`` of its traced program stages,
    and it pays exactly one dispatch per wave.
    """
    pairs = planted_pairs(100)
    run, stages = _traced_stages(
        lambda: _run(pairs, max_pairs_per_wave=PAIRS_PER_WAVE)
    )
    overlap = run.stats.op_seconds.get("infeed_overlap", 0.0)
    modeled = pipelined_elapsed_seconds(stages)
    dispatches = run.stats.op_counts["dispatch"]
    print(
        f"executed 100-pair fleet in {PAIRS_PER_WAVE}-pair waves: "
        f"dispatches={dispatches} for {run.num_programs} waves, "
        f"seconds={run.simulated_seconds:.6f} (stage model {modeled:.6f}, "
        f"serial {sum(stage.total for stage in stages):.6f}, "
        f"infeed_overlap {overlap:.6f}s)"
    )
    if not overlap < 0:
        print("FAIL: the multi-wave run must carry a negative infeed_overlap row",
              file=sys.stderr)
        return 1
    if run.simulated_seconds != pytest.approx(modeled, rel=1e-12):
        print(
            "FAIL: elapsed must equal pipelined_elapsed_seconds of the run's stages",
            file=sys.stderr,
        )
        return 1
    if not dispatches == run.num_programs == len(stages) == 100 // PAIRS_PER_WAVE:
        print("FAIL: the run must pay exactly one dispatch per wave", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small fleet, executed-dispatch assertion only",
    )
    parser.add_argument(
        "--pipelined",
        action="store_true",
        help="also run the executed 100-pair multi-wave overlap contract "
        "(negative infeed_overlap row, elapsed = pipelined stage model, "
        "one dispatch per wave)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="pod-scaling mode: strong/weak curves across 1/2/4/8 chips "
        "with interconnect-priced collectives, bit-identity matrix, JSON "
        "artifact (combine with --quick for the CI direction-only smoke)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="output path for the --scaling JSON artifact "
        "(default: BENCH_fleet_scaling.json, or the _quick variant)",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="with --scaling: print the per-wave ASCII timeline "
        "(infeed/compute/outfeed bars per chip, collectives footer)",
    )
    args = parser.parse_args(argv)

    if args.scaling:
        return _scaling_mode(
            quick=args.quick, json_path=args.json, timeline=args.timeline
        )

    fleet = 10 if args.quick else 100
    pairs = planted_pairs(fleet)
    wave = _run(pairs)
    pair = _run(pairs, max_pairs_per_wave=1)
    wave_dispatches = wave.stats.op_counts["dispatch"]
    pair_dispatches = pair.stats.op_counts["dispatch"]
    print(
        f"executed {fleet}-pair fleet on {small_backend().name}: "
        f"dispatches pair={pair_dispatches} wave={wave_dispatches}, "
        f"seconds pair={pair.simulated_seconds:.4f} "
        f"wave={wave.simulated_seconds:.4f} "
        f"({pair.simulated_seconds / wave.simulated_seconds:.1f}x)"
    )
    if wave_dispatches >= pair_dispatches:
        print(
            "FAIL: wave-fused dispatch count must be below per-pair count",
            file=sys.stderr,
        )
        return 1
    for a, b in zip(pair.explanations, wave.explanations):
        if not np.array_equal(a.scores, b.scores):
            print("FAIL: wave scores diverge from one-pair waves", file=sys.stderr)
            return 1
    looped, _ = _looped(pairs, device=CpuDevice())
    for a, b in zip(looped, wave.explanations):
        if not reference.relative_error(b.scores, a.scores) <= reference.SCORE_TOLERANCE:
            print("FAIL: wave scores diverge from the looped reference", file=sys.stderr)
            return 1
    status = _quantized_smoke()
    if status:
        return status
    if args.pipelined:
        status = _pipelined_smoke()
        if status:
            return status
    print()
    print(_report(fleet_sizes=(1, 10) if args.quick else FLEET_SIZES))
    print()
    print(_precision_report(fleet_sizes=(1, 10) if args.quick else FLEET_SIZES))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
