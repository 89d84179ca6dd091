"""Engine profiling: per-event-type handler timing and events/sec.

:class:`EngineProfiler` plugs into :attr:`repro.sim.engine.Simulator.
profiler`.  When attached, the engine hands it every agenda item to
fire (always a :class:`~repro.sim.engine.TimerHandle`); the profiler
times the callback with ``perf_counter`` and aggregates by its
``__qualname__`` (generator bodies all show as ``Process._step``).
Detached (the default), the engine's hot path pays one ``is None``
check.

Profiling output is wall-clock derived and therefore *never* part of
result rows, traces or anything else that must be deterministic; it is
surfaced through the ``python -m repro trace`` CLI report and sweep
telemetry only.
"""

from __future__ import annotations

import time
import tracemalloc
import typing

__all__ = ["EngineProfiler", "measure_allocations"]


def measure_allocations(fn: typing.Callable[[], typing.Any]) -> tuple:
    """Run ``fn()`` under ``tracemalloc``; return ``(result, peak_kib)``.

    Peak traced allocation is measured relative to the moment the call
    starts, so a warm interpreter does not inflate the number.  Tracing
    slows execution several-fold — callers must keep the allocation
    pass separate from any wall-clock timing pass (the perf gate does).
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, max(0.0, (peak - base) / 1024.0)


class EngineProfiler:
    """Times agenda-item handlers by type (see module docstring)."""

    def __init__(self) -> None:
        #: handler key -> [calls, total seconds]
        self._handlers: dict[str, list] = {}
        self.events = 0
        self._t0: float | None = None
        self._t1: float = 0.0

    # -- the engine-facing hook --------------------------------------------
    def fire(self, item: typing.Any) -> None:
        """Fire one agenda item (a ``TimerHandle``), timing its callback."""
        fn = item._fn
        key = getattr(fn, "__qualname__", None) or repr(fn)
        start = time.perf_counter()
        if self._t0 is None:
            self._t0 = start
        try:
            item._fire()
        finally:
            end = time.perf_counter()
            self._t1 = end
            self.events += 1
            entry = self._handlers.get(key)
            if entry is None:
                self._handlers[key] = [1, end - start]
            else:
                entry[0] += 1
                entry[1] += end - start

    # -- reporting ----------------------------------------------------------
    @property
    def wall_time(self) -> float:
        """Wall-clock span from the first to the last profiled event."""
        if self._t0 is None:
            return 0.0
        return self._t1 - self._t0

    @property
    def events_per_sec(self) -> float:
        wall = self.wall_time
        return self.events / wall if wall > 0 else 0.0

    def summary(self) -> dict[str, typing.Any]:
        """Aggregate view: per-handler timing plus overall throughput."""
        handlers = {
            key: {
                "calls": calls,
                "total_s": total,
                "mean_us": (total / calls) * 1e6 if calls else 0.0,
            }
            for key, (calls, total) in sorted(
                self._handlers.items(), key=lambda kv: -kv[1][1]
            )
        }
        return {
            "events": self.events,
            "wall_time_s": self.wall_time,
            "events_per_sec": self.events_per_sec,
            "handlers": handlers,
        }
