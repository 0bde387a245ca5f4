"""Two-clock benchmark: host and simulated time, end to end and per layer.

Every workload, each in its own single-threaded subprocess, one line
per metric (``<workload> <metric> <value> <unit>``), and a record of
the run in ``<out>/record.json``::

    python benchmarks/perf/run.py --seed 0 --out benchmarks/perf/out

One workload, ending with one JSON line holding ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` lists --
its end-to-end metrics with ``--trace 0``, its per-layer metrics with
``--trace 1``::

    python benchmarks/perf/run.py --workload fleet-pow2 --seed 0 --seconds 12 --trace 0

The host clock is ``time.perf_counter``; the simulated clock is the
device ledger.  End-to-end host metrics come from untraced reps.
Per-layer metrics come from reps whose layer calls are wrapped (see
:mod:`layers`), and from reps with the ``repro.obs`` tracer on; both
must reproduce the untraced rep bit for bit.  The command exits
non-zero when any check fails.
"""

import os
import sys
import time
from pathlib import Path

START = time.perf_counter()  # set-up time counts from here: numpy and repro are not imported yet

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no repro package under {ROOT / 'src'}; run it inside the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.fft import clear_kernel_spectrum_cache  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.obs.tracer import tracer  # noqa: E402

MIN_REPS = 3
SETUP_RUNS = 5
SELF_TIME_TOLERANCE = 1e-9  # relative: layer self times must sum to the root duration
_CALIBRATION_DATA = np.random.default_rng(0)
CALIBRATION_ROWS = _CALIBRATION_DATA.standard_normal((256, 64))
CALIBRATION_BATCH = _CALIBRATION_DATA.standard_normal((2048, 64))
CALIBRATION_PLANES = _CALIBRATION_DATA.standard_normal((64, 64, 64))
#: The calibration kernel's median host seconds on the 2-core Xeon VM
#: the committed numbers come from: the reference machine speed.
CALIBRATION_REFERENCE_S = 0.25
#: Under contention the kernel slows by about 4/3 of what the workloads
#: do, so host times scale by this power of the speed ratio.  Fit on
#: interleaved kernel and workload reps over 15 minutes and on ten-run
#: sets of all four workloads; 1 over-corrects and 0.5 under-corrects.
CALIBRATION_EXPONENT = 0.75

#: The metrics ``BENCHMARK.json`` lists, in its order.
E2E_METRICS = ("host_s", "setup_s", "peak_rss_mb")
LAYER_METRICS = (
    "fft.self_s", "fft.calls", "fft.planes",
    "spectra.self_s", "spectra.transforms",
    "conv.self_s", "conv.rows",
    "masking.self_s", "masking.rows",
    "reduce.self_s",
    "solve.self_s", "solve.calls",
    "fleet.self_s", "fleet.plan_s", "fleet.waves",
    "device.self_s", "device.records",
    "sim.dispatches", "sim.macs", "sim.bytes_moved",
    "fft.plan_hit_ratio",
    "obs.trace_overhead_frac", "bench.wrap_overhead_frac",
)


def radix2_fft(x):
    """Iterative radix-2 FFT along the last axis, one numpy pass per stage."""
    n = x.shape[-1]
    bits = n.bit_length() - 1
    index = np.arange(n)
    y = x[..., sum(((index >> b) & 1) << (bits - 1 - b) for b in range(bits))].astype(complex)
    size = 2
    while size <= n:
        half = size // 2
        y = y.reshape(*x.shape[:-1], n // size, size)
        even, odd = y[..., :half], y[..., half:] * np.exp(-2j * np.pi * np.arange(half) / size)
        y = np.concatenate([even + odd, even - odd], axis=-1).reshape(x.shape)
        size *= 2
    return y


def calibration_seconds():
    """Host seconds of a fixed kernel: how fast the machine runs right now.

    On a shared machine host speed drifts by tens of percent over
    minutes, which no median over one run removes.  This kernel never
    changes: radix-2 FFTs driven from Python on a small and a large
    batch, like the program's own FFT, plus ``numpy.fft`` on a plane
    stack, the mix that tracked every workload's drift best.  It is
    timed before every timed rep and every set-up probe; host seconds
    are reported scaled by ``CALIBRATION_REFERENCE_S`` over its median,
    to the power ``CALIBRATION_EXPONENT``: as seconds at the reference
    machine speed.
    """
    start = time.perf_counter()
    for _ in range(120):
        radix2_fft(CALIBRATION_ROWS)
    for _ in range(10):
        radix2_fft(CALIBRATION_BATCH)
    for _ in range(14):
        np.fft.ifft2(np.fft.fft2(CALIBRATION_PLANES))
    return time.perf_counter() - start


@dataclass
class Rep:
    seconds: float
    end: float  # perf_counter when the timed call returned
    outcome: workloads.Outcome
    recorder: layers.SpanRecorder | None = None
    counters: dict = field(default_factory=dict)


def run_rep(workload, inputs, seed, mode="plain"):
    """One rep on fresh program objects; only ``workload.execute`` is timed.

    ``mode`` is ``"plain"`` (tracing off), ``"wrapped"`` (layer calls
    wrapped by :func:`layers.traced`) or ``"obs"`` (``repro.obs``
    tracer on).  The kernel-spectrum cache is cleared first, so inputs a
    benchmark repeats never turn into cache hits a user would not get.
    """
    state = workload.build()
    clear_kernel_spectrum_cache()
    gc.collect()
    recorder = layers.SpanRecorder() if mode == "wrapped" else None
    before = layers.cache_counters()
    try:
        with contextlib.ExitStack() as scope:
            if recorder is not None:
                scope.enter_context(layers.traced(recorder))
            if mode == "obs":
                scope.enter_context(tracer.tracing())
                scope.callback(tracer.clear)
            start = time.perf_counter()
            output = workload.execute(state, inputs)
            end = time.perf_counter()
        outcome = workload.outcome(state, inputs, output, seed)
    except Exception:  # one rep's failure must not stop the run
        traceback.print_exc()
        outcome = workloads.failed_outcome(workload.attempted(inputs), f"{mode} rep raised")
        return Rep(math.nan, math.nan, outcome)
    after = layers.cache_counters()
    counters = {key: after[key] - before[key] for key in after}
    return Rep(end - start, end, outcome, recorder, counters)


def _metric(value, unit, clock, samples=None):
    entry = {"value": value, "unit": unit, "clock": clock}
    if samples is not None:
        entry["samples"] = samples
    return entry


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def setup_seconds(workload, seed, smoke):
    """Set-up seconds of a fresh interpreter: import, inputs, build, cold rep."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload.name, "--seed", str(seed),
    ] + (["--smoke"] if smoke else [])
    completed = subprocess.run(command, capture_output=True, text=True, timeout=150, check=True)
    return float(completed.stdout.split()[-1])


class Measurement:
    """Everything one workload run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def count(self, rep, label):
        self.attempted += rep.outcome.attempted
        self.failed += rep.outcome.failed
        self.problems += [f"{label}: {problem}" for problem in rep.outcome.problems]

    def check_same(self, rep, reference, label):
        """A traced rep must reproduce the untraced rep bit for bit."""
        if rep.outcome.fingerprint and rep.outcome.fingerprint != reference.outcome.fingerprint:
            self.problems.append(f"{label}: scores, ledger or signature differ from the untraced rep")
            self.failed += rep.outcome.attempted - rep.outcome.failed


def measure(workload, seed, seconds, trace, out_dir, smoke=False):
    """Run one workload.  ``trace``: 0 end to end, 1 per layer, 2 both."""
    result = Measurement()
    warm = run_rep(workload, workload.inputs(seed), seed)
    result.count(warm, "warm-up")

    plain = {}
    if trace in (0, 2):
        # Set-up probes alternate with the timed reps, so both are scaled
        # by calibrations taken over the same minutes.
        calibrations, host, setup = [], [], []
        setup_runs = SETUP_RUNS
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_REPS or len(setup) < setup_runs or time.perf_counter() < deadline:
            r = len(plain)
            inputs = workload.inputs(seed + r)
            calibrations.append(calibration_seconds())
            plain[r] = run_rep(workload, inputs, seed + r)
            result.count(plain[r], f"rep {r}")
            if not math.isnan(plain[r].seconds):
                host.append(plain[r].seconds)
            if len(setup) < setup_runs:
                calibrations.append(calibration_seconds())
                try:
                    setup.append(setup_seconds(workload, seed, smoke))
                except (subprocess.SubprocessError, ValueError, IndexError) as error:
                    result.problems.append(f"set-up probe failed: {error!r}")
                    setup_runs = len(setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calibration = statistics.median(calibrations)
        scale = (CALIBRATION_REFERENCE_S / calibration) ** CALIBRATION_EXPONENT
        for name, wall in (("host_s", host), ("setup_s", setup)):
            if wall:
                scaled = [value * scale for value in wall]
                result.metrics[name] = _metric(statistics.median(scaled), "s", "host", scaled)
                result.metrics[name.replace("_s", "_wall_s")] = _metric(
                    statistics.median(wall), "s", "host", wall)
        result.metrics["host_s.reps"] = _metric(len(host), "count", "host")
        result.metrics["calibration_s"] = _metric(calibration, "s", "host", calibrations)
        result.metrics["peak_rss_mb"] = _metric(rss_mb, "MB", "host", [rss_mb])

    wrapped, observed = [], []
    if trace in (1, 2):
        deadline = time.perf_counter() + seconds
        r = 0
        while True:
            inputs = workload.inputs(seed + r)
            if r not in plain:
                plain[r] = run_rep(workload, inputs, seed + r)
                result.count(plain[r], f"rep {r}")
            for mode, reps in (("wrapped", wrapped), ("obs", observed)):
                rep = run_rep(workload, inputs, seed + r, mode)
                result.count(rep, f"{mode} rep {r}")
                result.check_same(rep, plain[r], f"{mode} rep {r}")
                reps.append(rep)
            r += 1
            if trace == 2 or time.perf_counter() >= deadline:
                break
        _layer_metrics(result, workload, wrapped, observed, list(plain.values()), out_dir)

    first = plain[0].outcome.metrics
    if workload.same_ledger_every_seed:
        for r, rep in plain.items():
            if rep.outcome.metrics and rep.outcome.metrics != first:
                result.problems.append(f"rep {r}: simulated metrics differ from rep 0")
    for name, (value, unit) in first.items():
        result.metrics[name] = _metric(value, unit, "sim")
    counters = plain[0].counters
    if "plan_hits" in counters:
        result.metrics["fft.plan_hit_ratio"] = _metric(_ratio(
            counters["plan_hits"], counters["plan_hits"] + counters["plan_misses"]), "ratio", "host")
    if "spectrum_hits" in counters:
        result.metrics["spectra.hit_ratio"] = _metric(_ratio(
            counters["spectrum_hits"], counters["spectrum_hits"] + counters["spectrum_misses"]),
            "ratio", "host")
        result.metrics["spectra.transforms"] = _metric(counters["spectrum_transforms"], "count", "host")
    result.metrics["error_rate"] = _metric(_ratio(result.failed, result.attempted), "ratio", "check")
    return result


def _layer_metrics(result, workload, wrapped, observed, plain, out_dir):
    """Per-layer medians over the wrapped reps, tracing costs, the span trace."""
    recorders = [rep.recorder for rep in wrapped if rep.recorder is not None]
    if not recorders:
        result.problems.append("no wrapped rep completed")
        return
    if recorders[0].missing:
        print(f"note: layer targets not found: {', '.join(recorders[0].missing)}", file=sys.stderr)
    for index, recorder in enumerate(recorders):
        total = sum(layers.self_seconds(recorder.spans).values())
        root = layers.root_seconds(recorder.spans)
        if not abs(total - root) <= SELF_TIME_TOLERANCE * root:
            result.problems.append(f"wrapped rep {index}: self times sum to {total}, root is {root}")
    per_rep = [layers.layer_metrics(recorder) for recorder in recorders]
    for name, (value, unit) in per_rep[0].items():
        if unit == "s":
            samples = [metrics[name][0] for metrics in per_rep]
            result.metrics[name] = _metric(statistics.median(samples), unit, "host", samples)
        else:
            result.metrics[name] = _metric(value, unit, "host")
    untraced = [rep.seconds for rep in plain if not math.isnan(rep.seconds)]
    for name, reps in (("bench.wrap_overhead_frac", wrapped), ("obs.trace_overhead_frac", observed)):
        samples = [rep.seconds for rep in reps if not math.isnan(rep.seconds)]
        if samples and untraced:
            frac = statistics.median(samples) / statistics.median(untraced) - 1
            result.metrics[name] = _metric(frac, "ratio", "host")

    document = layers.chrome_trace(recorders[0].spans)
    for problem in validate_chrome_trace(document):
        result.problems.append(f"host-span trace: {problem}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload.name}.host_spans.trace.json"
    path.write_text(json.dumps(document))
    print(f"wrote {path}", file=sys.stderr)


def _format(value):
    return repr(value) if isinstance(value, float) else str(value)


def print_lines(name, metrics):
    for metric, entry in metrics.items():
        print(f"{name} {metric} {_format(entry['value'])} {entry['unit']}")


def run_one(args):
    by_name = {w.name: w for w in (workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS)}
    workload = by_name[args.workload]
    if args.setup_probe:
        rep = run_rep(workload, workload.inputs(args.seed), args.seed)
        print(rep.end - START)
        return 1 if rep.outcome.failed else 0
    result = measure(workload, args.seed, args.seconds, args.trace, args.out, smoke=args.smoke)
    print_lines(workload.name, result.metrics)
    for problem in result.problems:
        print(f"FAIL {workload.name}: {problem}", file=sys.stderr)
    correct = not result.problems and result.failed == 0
    if args.trace == 2:
        metrics = result.metrics
    else:
        wanted = E2E_METRICS if args.trace == 0 else LAYER_METRICS
        metrics = {
            name: {"value": result.metrics[name]["value"], "unit": result.metrics[name]["unit"]}
            for name in wanted if name in result.metrics
        }
        correct = correct and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def git_commit():
    """The checkout's commit, or ``None`` outside a git repository."""
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=environment,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None if completed.returncode == 0 else None


def run_all(args):
    """Every workload in a fresh subprocess; writes ``<out>/record.json``."""
    record = {
        "commit": git_commit(), "seed": args.seed, "nproc": os.cpu_count(),
        "numpy": np.__version__, "python": platform.python_version(),
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    ok = True
    for workload in workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "2",
            "--out", str(args.out),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            outcome = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAIL {workload.name}: no result (exit code {completed.returncode})", file=sys.stderr)
            ok = False
            continue
        ok = ok and completed.returncode == 0 and outcome["correct"]
        record["workloads"][workload.name] = outcome
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "record.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS],
                        help="run only this workload and end with one JSON line")
    parser.add_argument("--seed", type=int, default=0, help="inputs of rep r use seed + r")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed reps (--trace 0) or traced reps (--trace 1) run")
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=2,
                        help="0: end-to-end metrics, 1: per-layer metrics, 2: both")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where host-span traces and record.json are written")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
