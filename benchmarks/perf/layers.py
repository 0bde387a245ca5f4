"""Host-clock spans around each layer's public functions.

``LAYERS`` maps the repo's modules to the benchmark's layers: each row
names a layer, the metric its self time is reported under, and the
dotted paths of the public functions and methods whose calls belong to
it.  :func:`traced` replaces every target -- in its defining module or
class, and in every ``repro.*`` module that imported it by name -- with
a wrapper that records a span per call, and restores the originals on
exit.  Nothing under ``src/`` is changed or needs to know.

Spans sit on a stack and are kept in memory.  A call that returns a
generator is timed once for the call and once per ``__next__`` step, so
a streaming stage's self time excludes the work it pulls from upstream
generators; a call that returns a context manager (``Device.program``)
is timed for its ``__enter__`` and ``__exit__``, not for the body.

A layer's self time is the summed duration of its spans minus the time
their direct child spans cover, so the self times of all layers add up
to the duration of the root calls.
"""

import contextlib
import functools
import importlib
import math
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

import repro.fft
from repro.obs.export import to_chrome_trace
from repro.obs.tracer import Tracer

#: (layer, self-time metric, targets).  A target the program no longer
#: has is skipped and reported in ``SpanRecorder.missing``.
LAYERS = (
    ("fft", "fft.self_s", (
        "repro.fft.fft2d.rfft2_batch",
        "repro.fft.fft2d.irfft2_batch",
        "repro.fft.fft2d.fft2_batch",
        "repro.fft.fft2d.ifft2_batch",
        "repro.fft.fft2d.fft2",
        "repro.fft.fft2d.ifft2",
    )),
    ("spectra", "spectra.self_s", ("repro.fft.spectra.kernel_spectrum",)),
    ("conv", "conv.self_s", ("repro.fft.convolution.fft_circular_convolve2d_chunks",)),
    ("masking", "masking.self_s", ("repro.core.masking.MaskSpec.apply_chunks",)),
    ("reduce", "reduce.self_s", ("repro.core.masking.reduce_batch",)),
    ("solve", "solve.self_s", ("repro.core.distillation.ConvolutionDistiller.fit",)),
    ("fleet", "fleet.self_s", ("repro.core.fleet.FleetExecutor.run",)),
    ("fleet.plan", "fleet.plan_s", ("repro.core.fleet.FleetSchedule.plan",)),
    ("device", "device.self_s", (
        "repro.hw.device.Device.conv2d_circular_batch_chunks",
        "repro.hw.device.Device.program",
        "repro.hw.device.DeviceStats.record",
        "repro.hw.device.DeviceStats.credit",
    )),
    ("pod", "pod.self_s", ("repro.hw.pod.TpuPod.commit_run",)),
    ("serve", "serve.self_s", ("repro.serve.loop.ExplanationService.process",)),
    ("serve.batcher", "serve.batcher_s", (
        "repro.serve.batcher.MicroBatcher.enqueue",
        "repro.serve.batcher.MicroBatcher.pop",
        "repro.serve.batcher.MicroBatcher.ripe_keys",
    )),
    ("serve.cache", "serve.cache_s", (
        "repro.serve.cache.ExplanationCache.get",
        "repro.serve.cache.ExplanationCache.put",
        "repro.serve.cache.DigestMemo.lookup",
    )),
    ("serve.controller", "serve.controller_s", (
        "repro.serve.controller.BatchController.observe",
    )),
    ("serve.admission", "serve.admission_s", (
        "repro.serve.admission.AdmissionController.admit",
    )),
)

#: Layers whose generator steps yield ``(chunk, row_range)`` items.
ROW_LAYERS = ("conv", "masking")

_MISSING = object()


class SpanRecorder:
    """An in-memory stack of host spans plus per-(layer, target) call counts.

    ``spans`` holds ``[layer, name, parent, start, end]`` lists in
    opening order; ``parent`` is the index of the enclosing span, or -1
    for a root call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.calls = Counter()
        self.planes = 0
        self.rows = Counter()
        self.missing = []
        self._stack = []

    def open(self, layer, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, parent, self.clock(), None])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][4] = self.clock()
        self._stack.pop()

    def wrap(self, layer, name, function):
        """``function`` with every call, generator step and scope timed."""

        @functools.wraps(function)
        def timed(*args, **kwargs):
            index = self.open(layer, name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            self.calls[layer, name] += 1
            if layer == "fft":
                self.planes += math.prod(np.shape(args[0])[:-2])
            if isinstance(result, types.GeneratorType):
                return self._steps(layer, name, result)
            if isinstance(result, contextlib.AbstractContextManager):
                return _TimedScope(self, layer, name, result)
            return result

        return timed

    def _steps(self, layer, name, generator):
        step = name + ".step"
        try:
            while True:
                index = self.open(layer, step)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                if layer in ROW_LAYERS:
                    self.rows[layer] += len(item[0])
                yield item
        finally:
            generator.close()


class _TimedScope:
    """A context manager whose enter and exit are timed as spans."""

    def __init__(self, recorder, layer, name, scope):
        self._recorder, self._layer, self._name = recorder, layer, name
        self._scope = scope

    def __enter__(self):
        index = self._recorder.open(self._layer, self._name + ".enter")
        try:
            return self._scope.__enter__()
        finally:
            self._recorder.close(index)

    def __exit__(self, *exc_info):
        index = self._recorder.open(self._layer, self._name + ".exit")
        try:
            return self._scope.__exit__(*exc_info)
        finally:
            self._recorder.close(index)


def _resolve(target):
    """``(owner, attribute)`` for a dotted path, or ``None`` if absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:-1]:
            owner = getattr(owner, attribute, None)
        if owner is None or not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextlib.contextmanager
def traced(recorder, table=LAYERS):
    """Wrap every target of ``table`` for the scope; restore on exit.

    Module-level functions are also restored in any ``repro`` module
    first imported inside the scope, which copied the wrapper by name.
    """
    restore = []  # (class, attribute, previous class-dict value)
    module_wrappers = []  # (wrapper, original) of module-level functions
    try:
        for layer, _, targets in table:
            for target in targets:
                found = _resolve(target)
                if found is None:
                    recorder.missing.append(target)
                    continue
                owner, attribute = found
                name = ".".join(target.split(".")[-2:])
                if isinstance(owner, types.ModuleType):
                    original = getattr(owner, attribute)
                    wrapper = recorder.wrap(layer, name, original)
                    module_wrappers.append((wrapper, original))
                    for module in _repro_modules():
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)
                    continue
                raw = vars(owner).get(attribute, _MISSING)
                restore.append((owner, attribute, raw))
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(recorder.wrap(layer, name, raw.__func__))
                else:
                    wrapper = recorder.wrap(layer, name, getattr(owner, attribute))
                setattr(owner, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, value in reversed(restore):
            if value is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, value)
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                for wrapper, original in module_wrappers:
                    if value is wrapper:
                        setattr(module, key, original)


# ----------------------------------------------------------------------
# Span arithmetic and export
# ----------------------------------------------------------------------
def span_self_seconds(spans):
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, _, start, end) in enumerate(spans)]


def self_seconds(spans):
    """Self seconds summed per layer."""
    totals = defaultdict(float)
    for span, own in zip(spans, span_self_seconds(spans)):
        totals[span[0]] += own
    return dict(totals)


def root_seconds(spans):
    """Summed duration of the spans no other span encloses."""
    return sum(end - start for _, _, parent, start, end in spans if parent < 0)


def layer_metrics(recorder):
    """Per-layer host metrics of one wrapped rep: ``name -> (value, unit)``."""
    own = self_seconds(recorder.spans)
    metrics = {metric: (own.get(layer, 0.0), "s") for layer, metric, _ in LAYERS}
    calls = recorder.calls
    metrics["fft.calls"] = (sum(n for (layer, _), n in calls.items() if layer == "fft"), "count")
    metrics["fft.planes"] = (recorder.planes, "count")
    metrics["conv.rows"] = (recorder.rows["conv"], "count")
    metrics["masking.rows"] = (recorder.rows["masking"], "count")
    metrics["solve.calls"] = (calls["solve", "ConvolutionDistiller.fit"], "count")
    metrics["device.records"] = (
        calls["device", "DeviceStats.record"] + calls["device", "DeviceStats.credit"], "count"
    )
    return metrics


def chrome_trace(spans):
    """The spans as a Chrome trace document (one host lane, seconds from the first span)."""
    trace = Tracer()
    trace.enable()
    trace.set_process_name(0, "host")
    trace.set_thread_name(0, 0, "benchmark")
    origin = spans[0][3] if spans else 0.0
    for (layer, name, _, start, end), own in zip(spans, span_self_seconds(spans)):
        trace.complete(name, layer, start - origin, end - start, 0, 0, {"self_us": own * 1e6})
    return to_chrome_trace(trace)


def cache_counters():
    """FFT plan-cache and kernel-spectrum-cache counters.

    A counter the program no longer has is omitted, so the benchmark
    outlives a change that removes a cache.
    """
    fft = repro.fft
    counters = {}
    if hasattr(fft, "fft_plan_cache_info"):
        info = fft.fft_plan_cache_info()
        plans = {k: v for k, v in info.items() if not k.startswith("kernel_spectrum")}
        counters["plan_hits"] = sum(v for k, v in plans.items() if k.endswith("_hits"))
        counters["plan_misses"] = sum(v for k, v in plans.items() if k.endswith("_misses"))
    if hasattr(fft, "kernel_spectrum_cache_info"):
        info = fft.kernel_spectrum_cache_info()
        counters["spectrum_hits"] = info["hits"]
        counters["spectrum_misses"] = info["misses"]
        counters["spectrum_transforms"] = info["kernel_transforms"]
    return counters
