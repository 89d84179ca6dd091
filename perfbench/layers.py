"""Per-layer attribution from a cProfile run.

Self time (cProfile ``tottime``) is grouped by the ``repro`` package
that defines each function; everything outside ``src/repro`` (stdlib,
builtins, this harness) is ``other``.  Exact call counts for the few
functions the per-layer metrics name are read from the same profile.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
import typing

#: packages reported as ``<pkg>.self_ms_per_sim_s``; a repro package
#: not listed here is folded into ``other``
LAYERS = (
    "sim", "mac", "phy", "core", "baseline", "traffic", "metrics",
    "network", "obs", "exec",
)

#: the carrier-sense / frame fan-out callbacks of the DCF engine
#: (``mac/dcf.py``) counted per frame; the PCF coordinator's own
#: listener calls are left out
MAC_FANOUT = frozenset({"on_frame", "on_medium_idle", "on_medium_busy"})
DCF_FILE = os.path.join("mac", "dcf.py")


class Profile:
    """The grouped result of profiling one callable."""

    def __init__(self, src_dir: str) -> None:
        self.prefix = os.path.join(os.path.abspath(src_dir), "repro") + os.sep
        self.self_s: dict[str, float] = {name: 0.0 for name in LAYERS}
        self.self_s["other"] = 0.0
        self.frames = 0
        self.mac_fanout_calls = 0
        self.wall_s = 0.0

    def layer_of(self, filename: str) -> str:
        if not filename.startswith(self.prefix):
            return "other"
        package = filename[len(self.prefix):].split(os.sep, 1)[0]
        return package if package in LAYERS else "other"

    def run(self, fn: typing.Callable[[], typing.Any]) -> typing.Any:
        """Profile ``fn()`` and accumulate its grouped statistics."""
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
            self.wall_s += time.perf_counter() - start
        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        for (filename, _line, func), (_cc, calls, self_s, _cum, _callers) in stats.items():
            layer = self.layer_of(filename)
            self.self_s[layer] += self_s
            if layer == "phy" and func == "_finish" and filename.endswith("channel.py"):
                self.frames += calls
            elif layer == "mac" and func in MAC_FANOUT and filename.endswith(DCF_FILE):
                self.mac_fanout_calls += calls
        return result

    def metrics(self, sim_seconds: float) -> dict[str, float]:
        """Self ms per simulated second by layer, plus the exact counts."""
        out: dict[str, float] = {}
        for layer, self_s in self.self_s.items():
            out[f"{layer}.self_ms_per_sim_s"] = (
                self_s * 1e3 / sim_seconds if sim_seconds > 0 else 0.0
            )
        out["phy.frames_per_sim_s"] = (
            self.frames / sim_seconds if sim_seconds > 0 else 0.0
        )
        out["mac.calls_per_frame"] = (
            self.mac_fanout_calls / self.frames if self.frames else 0.0
        )
        return out
