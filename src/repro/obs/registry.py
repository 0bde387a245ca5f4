"""A process-wide metrics registry: every counter behind one snapshot.

The simulator accumulates counters in scattered places -- the
kernel-spectrum cache (:func:`repro.fft.kernel_spectrum_cache_info`),
the explanation cache, the micro-batcher, the admission controller.
This module unifies them: each *source*
registers a supplier callable returning a flat ``{counter: value}``
dict (and optionally a reset callable), and :func:`metrics_snapshot`
returns the whole picture as ``{source: {counter: value}}``.

Sources with bounded lifetimes (an :class:`~repro.serve.loop
.ExplanationService`, say) register **weakly**: the registry holds a
:class:`weakref.WeakMethod` to the supplier, and a snapshot silently
drops sources whose owner has been garbage-collected -- registering a
service never extends its lifetime.

:func:`reset_metrics` invokes every registered reset callable (the
reset-for-tests hook); sources without one are left alone.
"""

from __future__ import annotations

import weakref

__all__ = [
    "MetricsRegistry",
    "default_registry",
    "register_metrics_source",
    "unregister_metrics_source",
    "metrics_snapshot",
    "reset_metrics",
]


class MetricsRegistry:
    """Named counter sources behind one ``snapshot()`` / ``reset()``."""

    def __init__(self) -> None:
        self._sources: dict[str, tuple] = {}  # name -> (supplier, reset)

    def register(self, name, supplier, reset=None, weak: bool = False) -> None:
        """Register ``supplier`` (→ flat counter dict) under ``name``.

        ``weak=True`` stores :class:`weakref.WeakMethod` handles (the
        callables must be bound methods); a dead owner drops the source
        from future snapshots instead of raising.  Re-registering a
        name replaces the previous source (latest wins).
        """
        if weak:
            supplier = weakref.WeakMethod(supplier)
            reset = weakref.WeakMethod(reset) if reset is not None else None
        self._sources[str(name)] = (supplier, reset, weak)

    def unregister(self, name) -> None:
        self._sources.pop(str(name), None)

    def sources(self) -> list[str]:
        return sorted(self._sources)

    def _resolve(self, handle, weak: bool):
        if not weak or handle is None:
            return handle
        return handle()  # WeakMethod → bound method or None

    def snapshot(self) -> dict:
        """``{source: {counter: value}}`` across live sources."""
        out: dict = {}
        dead = []
        for name, (supplier, _reset, weak) in self._sources.items():
            fn = self._resolve(supplier, weak)
            if fn is None:
                dead.append(name)
                continue
            out[name] = dict(fn())
        for name in dead:
            del self._sources[name]
        return out

    def reset(self) -> None:
        """Invoke every live reset callable (sources without one skip)."""
        for _name, (_supplier, reset, weak) in list(self._sources.items()):
            fn = self._resolve(reset, weak)
            if fn is not None:
                fn()

    def __repr__(self) -> str:
        return f"<MetricsRegistry {self.sources()}>"


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry the module-level helpers act on."""
    return _DEFAULT


def register_metrics_source(name, supplier, reset=None, weak: bool = False) -> None:
    _DEFAULT.register(name, supplier, reset=reset, weak=weak)


def unregister_metrics_source(name) -> None:
    _DEFAULT.unregister(name)


def metrics_snapshot() -> dict:
    """One ``{source: {counter: value}}`` view of every live source."""
    return _DEFAULT.snapshot()


def reset_metrics() -> None:
    """Reset every source that registered a reset callable."""
    _DEFAULT.reset()


# ----------------------------------------------------------------------
# Built-in source: the FFT layer's process-wide kernel-spectrum cache.
# Importing it here is cycle-free (repro.fft does not import repro.obs);
# the serving layer registers itself at construction instead.
# ----------------------------------------------------------------------
from repro.fft.spectra import (  # noqa: E402
    clear_kernel_spectrum_cache,
    kernel_spectrum_cache_info,
)

register_metrics_source(
    "kernel_spectra", kernel_spectrum_cache_info, clear_kernel_spectrum_cache
)
