"""Sampling profile of one benchmark workload's timed call, on the host clock.

Runs a workload of ``benchmarks/perf/workloads.py`` the way the
benchmark times it -- fresh program objects per rep, the
kernel-spectrum cache cleared, only ``workload.execute`` profiled --
and samples the Python stack on ``SIGPROF`` (``signal.setitimer`` with
``ITIMER_PROF``, so samples follow the process's CPU time)::

    PYTHONPATH=src python benchmarks/profile_host.py --workload serve-ladder --reps 25

It prints the sample count; the share of samples whose innermost Python
frame lies in each package (``repro``, ``numpy.fft``, ``numpy``, ...;
time in C code counts to the Python function that called it); and each
``repro`` function's *self* share (samples whose innermost ``repro``
frame is it, so with the library code it calls directly) and
*cumulative* share (samples with it anywhere on the stack).  The timer
asks for a sample every millisecond of CPU time but fires on the
kernel's tick, so a coarser tick sets the rate; the printed mean
interval says what it was.  Rep ``r`` runs the inputs of seed ``r``.

Why sampling: a deterministic profiler (``cProfile``) charges every
Python call, which about doubles a serve-ladder rep and inflates
call-heavy code; a sampling thread is biased toward calls that release
the GIL (hashlib does for buffers of 2 KiB and more).  ``SIGPROF`` is
delivered between bytecodes of the main thread, unbiased by either.
"""

import argparse
import gc
import os
import signal
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
INTERVAL = 0.001  # requested seconds of CPU time between samples

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE / "perf")]
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"


class StackSampler:
    """Collects the main thread's Python stack on every ``SIGPROF``.

    Each sample is a tuple of ``(module, qualified name)`` frames,
    innermost first.  Use as a context manager around the code to
    profile; the timer and the handler are restored on exit.
    """

    def __init__(self) -> None:
        self.samples: list[tuple] = []
        self.cpu_seconds = 0.0

    def _handler(self, signum, frame) -> None:
        stack = []
        while frame is not None:
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)  # Python < 3.11
            stack.append((frame.f_globals.get("__name__", "?"), name))
            frame = frame.f_back
        self.samples.append(tuple(stack))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        self._start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_seconds += time.process_time() - self._start
        signal.signal(signal.SIGPROF, self._previous)


def label(frame) -> str | None:
    """A ``repro`` frame's ``module.function``, else ``None``."""
    module, name = frame
    return f"{module}.{name}" if module.startswith("repro") else None


def package(module: str) -> str:
    """The package a sample's innermost frame is folded into."""
    parts = module.split(".")
    if parts[0] == "numpy" and len(parts) > 1 and not parts[1].startswith("_"):
        return ".".join(parts[:2])
    return parts[0]


def shares(samples) -> tuple[Counter, Counter, Counter]:
    """``(leaf package, self, cumulative)`` sample counts.

    A sample's self function is its innermost ``repro`` frame, so the
    library code a function calls directly counts as its own time.
    """
    leaves, own, cumulative = Counter(), Counter(), Counter()
    for stack in samples:
        leaves[package(stack[0][0])] += 1
        names = [name for name in map(label, stack) if name is not None]
        if names:
            own[names[0]] += 1
        cumulative.update(set(names))
    return leaves, own, cumulative


def report(sampler, reps: int, top: int, out=sys.stdout) -> None:
    samples = sampler.samples
    total = len(samples)
    mean_ms = 1e3 * sampler.cpu_seconds / total if total else float("nan")
    print(
        f"{total} samples over {reps} reps, {sampler.cpu_seconds:.3f} CPU s "
        f"(one per {mean_ms:.2f} ms)", file=out,
    )
    if not total:
        return
    leaves, own, cumulative = shares(samples)
    print("\n  share  innermost frame's package", file=out)
    for name, count in leaves.most_common():
        print(f"{100 * count / total:6.1f}%  {name}", file=out)
    print("\n  self%    cum%  repro function", file=out)
    names = sorted(cumulative, key=lambda n: (-own[n], -cumulative[n], n))
    for name in names[:top]:
        print(
            f"{100 * own[name] / total:6.1f}% {100 * cumulative[name] / total:6.1f}%  {name}",
            file=out,
        )


def main(argv=None) -> int:
    import workloads
    from repro.fft import clear_kernel_spectrum_cache

    choices = [w.name for w in workloads.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=choices, required=True)
    parser.add_argument("--reps", type=int, default=25, help="profiled reps (after one warm-up)")
    parser.add_argument("--top", type=int, default=40, help="rows to print")
    parser.add_argument("--smoke", action="store_true", help="the workload's tiny configuration")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    by_name = {w.name: w for w in (workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS)}
    workload = by_name[args.workload]
    workload.execute(workload.build(), workload.inputs(0))  # warm-up, not sampled
    sampler = StackSampler()
    for rep in range(args.reps):
        inputs = workload.inputs(rep)
        state = workload.build()
        clear_kernel_spectrum_cache()
        gc.collect()
        with sampler:
            workload.execute(state, inputs)
    report(sampler, args.reps, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
