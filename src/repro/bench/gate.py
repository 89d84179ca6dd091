"""The perf-regression gate: baseline compare + report plumbing.

``BENCH_KERNEL.json`` (repo root) is the committed baseline.  A gate
run re-measures every benchmark it lists and fails (exit 1) when

* a baselined benchmark is missing from the fresh run,
* the exact ``events`` count drifts — a **determinism** regression,
  failed regardless of tolerance (pinned workloads cannot legitimately
  change event counts without a deliberate baseline update); the same
  holds for the ``sim_events`` of both modes of a ``parallel_sweep``
  section measured with ``--with-sweep``, or
* throughput or peak allocation regress beyond the tolerance:
  ``events_per_sec < base * (1 - tol)`` or
  ``peak_kib > base * (1 + tol) + 64``  (the 64 KiB absolute slack
  absorbs interpreter-version noise in tiny workloads).

Wall-clock numbers are machine-relative; CI therefore runs the gate
with a generous tolerance (``--tolerance 0.25``) while the exact
``events`` check stays machine-independent.  ``--update`` rewrites the
baseline deliberately, preserving the ``pre_pr_baseline``,
``parallel_sweep``, ``serve_queries`` and ``accel`` sections it does
not re-measure (``--with-sweep`` / ``--with-serve`` / ``--with-accel``
re-measure the latter three).  ``--with-accel`` additionally enforces
the batched fast path's same-config speedup floor (see
``run_accel_section``).
"""

from __future__ import annotations

import json
import pathlib
import typing

from .micro import BENCHMARKS, run_benchmarks

__all__ = [
    "DEFAULT_BASELINE",
    "compare",
    "load_report",
    "merge_section",
    "write_report",
    "main",
]

#: committed baseline, relative to the repository root / current dir
DEFAULT_BASELINE = "BENCH_KERNEL.json"

#: absolute allocation slack (KiB) added on top of the relative tolerance
_ALLOC_SLACK_KIB = 64.0

_SCHEMA = 1


def load_report(path: str | pathlib.Path) -> dict[str, typing.Any]:
    """Read a bench report; raises ``FileNotFoundError``/``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or "benchmarks" not in report:
        raise ValueError(f"{path}: not a bench report (no 'benchmarks' key)")
    return report


def write_report(path: str | pathlib.Path, report: dict[str, typing.Any]) -> None:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def merge_section(
    path: str | pathlib.Path, section: str, payload: dict[str, typing.Any]
) -> dict[str, typing.Any]:
    """Merge ``payload`` under ``section`` of the report at ``path``.

    Creates a skeleton report when the file does not exist yet — this
    is how ``benchmarks/bench_parallel_sweep.py`` lands its numbers in
    the same JSON file the microbenchmark gate writes.
    """
    path = pathlib.Path(path)
    try:
        report = load_report(path)
    except (FileNotFoundError, ValueError):
        report = {"schema": _SCHEMA, "benchmarks": {}}
    report[section] = payload
    write_report(path, report)
    return report


def compare(
    fresh: dict[str, typing.Any],
    baseline: dict[str, typing.Any],
    tolerance: float,
) -> list[str]:
    """Regression messages (empty list == gate passes)."""
    problems: list[str] = []
    fresh_benches = fresh.get("benchmarks", {})
    for name, base in sorted(baseline.get("benchmarks", {}).items()):
        if not isinstance(base, dict):  # metadata keys (e.g. cpu_cores)
            continue
        got = fresh_benches.get(name)
        if got is None:
            problems.append(f"{name}: baselined benchmark missing from run")
            continue
        if got["events"] != base["events"]:
            problems.append(
                f"{name}: DETERMINISM — events {got['events']} != "
                f"baseline {base['events']} (tolerance does not apply)"
            )
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if got["events_per_sec"] < floor:
            problems.append(
                f"{name}: throughput {got['events_per_sec']:,.0f} ev/s < "
                f"{floor:,.0f} (baseline {base['events_per_sec']:,.0f} "
                f"- {tolerance:.0%})"
            )
        base_peak = base.get("peak_kib")
        got_peak = got.get("peak_kib")
        if base_peak is not None and got_peak is not None:
            ceiling = base_peak * (1.0 + tolerance) + _ALLOC_SLACK_KIB
            if got_peak > ceiling:
                problems.append(
                    f"{name}: peak allocation {got_peak:.0f} KiB > "
                    f"{ceiling:.0f} (baseline {base_peak:.0f} + {tolerance:.0%}"
                    f" + {_ALLOC_SLACK_KIB:.0f} KiB slack)"
                )
    fresh_sweep = fresh.get("parallel_sweep") or {}
    base_sweep = baseline.get("parallel_sweep") or {}
    for mode in ("serial", "parallel"):
        got = (fresh_sweep.get(mode) or {}).get("sim_events")
        want = (base_sweep.get(mode) or {}).get("sim_events")
        if got is not None and want is not None and got != want:
            problems.append(
                f"parallel_sweep.{mode}: DETERMINISM — sim_events {got} != "
                f"baseline {want} (tolerance does not apply)"
            )
    return problems


# -- parallel-sweep wiring ---------------------------------------------------

def run_parallel_sweep(
    workers: int = 4,
    sim_time: float = 20.0,
    warmup: float = 2.0,
    schedule: str = "cost",
) -> dict[str, typing.Any]:
    """Scaled-down serial-vs-pool sweep for the ``parallel_sweep`` section.

    Same grid shape as ``benchmarks/bench_parallel_sweep.py`` (schemes x
    loads x seeds through :class:`~repro.exec.SweepExecutor`), shrunk so
    a gate run stays interactive; rows must be byte-identical across
    the two modes.  ``cpu_cores`` is recorded alongside the timings
    because the speedup is only meaningful relative to the cores the
    machine actually has (a 1-core container cannot beat ~1.0x no
    matter how warm the pool is — the gate skips its speedup floor
    there, see ``--min-sweep-speedup``).
    """
    import os as _os
    import time as _time

    from ..exec import ExecutorConfig, SweepExecutor
    from ..experiments import sweep_grid

    grid = sweep_grid(("proposed", "conventional"), (0.5, 3.0), (1, 2),
                      sim_time, warmup)

    def timed(n: int) -> tuple:
        executor = SweepExecutor(ExecutorConfig(workers=n, schedule=schedule))
        start = _time.perf_counter()
        rows = executor.run(grid)
        wall = _time.perf_counter() - start
        return rows, executor.telemetry.bench_entry(wall)

    serial_rows, serial = timed(1)
    parallel_rows, parallel = timed(workers)
    canon = [json.dumps(r, sort_keys=True) for r in serial_rows]
    identical = canon == [json.dumps(r, sort_keys=True) for r in parallel_rows]
    return {
        "points": len(serial_rows),
        "schedule": schedule,
        "cpu_cores": _os.cpu_count() or 1,
        "rows_identical": identical,
        "serial": serial,
        "parallel": parallel,
        "speedup": (
            round(serial["wall_s"] / parallel["wall_s"], 2)
            if parallel["wall_s"] > 0 else 0.0
        ),
    }


# -- batched fast-path wiring -----------------------------------------------

def run_accel_section(repeats: int = 3) -> dict[str, typing.Any]:
    """Batched fast path against exact on the same config, same process.

    ``batched_speedup`` is the exact per-frame wall time of the
    :func:`~repro.bench.micro._accel_scenario` point over the batched
    fast path's wall time on that same point.  The two runs alternate
    ``repeats`` times and each side keeps its best wall, so shared
    machine noise hits both.
    """
    import time as _time

    from ..accel import run_batched
    from ..network.bss import BssScenario
    from .micro import _accel_scenario

    config = _accel_scenario()
    exact_wall = batched_wall = float("inf")
    for _ in range(max(1, repeats)):
        start = _time.perf_counter()
        BssScenario(config).run()
        exact_wall = min(exact_wall, _time.perf_counter() - start)
        start = _time.perf_counter()
        run_batched(config)
        batched_wall = min(batched_wall, _time.perf_counter() - start)
    return {
        "exact_wall_s": round(exact_wall, 4),
        "batched_wall_s": round(batched_wall, 4),
        "batched_speedup": round(exact_wall / batched_wall, 2),
    }


# -- CLI ---------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """``python -m repro bench`` / ``benchmarks/perf_gate.py`` entry."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="kernel perf benchmarks + regression gate",
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"committed baseline (default: {DEFAULT_BASELINE})")
    parser.add_argument("--out", default=".repro-cache/bench-report.json",
                        help="where the fresh report is written")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative throughput/allocation slack "
                             "(default: 0.10; CI uses 0.25)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per benchmark (best-of)")
    parser.add_argument("--only", nargs="+", default=None,
                        choices=sorted(BENCHMARKS),
                        help="run a subset of benchmarks")
    parser.add_argument("--skip-alloc", action="store_true",
                        help="skip the tracemalloc allocation pass")
    parser.add_argument("--with-sweep", action="store_true",
                        help="also measure the serial-vs-pool sweep section")
    parser.add_argument("--min-sweep-speedup", type=float, default=None,
                        help="with --with-sweep: fail unless the pool "
                             "speedup reaches this floor; only enforced "
                             "when the machine has at least as many CPU "
                             "cores as sweep workers (CI runners do, "
                             "1-core containers skip with a note)")
    parser.add_argument("--with-serve", action="store_true",
                        help="also measure the serving closed-loop section "
                             "(requests/sec, hit rate, latency quantiles)")
    parser.add_argument("--with-accel", action="store_true",
                        help="also measure the batched fast path against "
                             "exact on the same config and enforce the "
                             "speedup floor")
    parser.add_argument("--min-batched-speedup", type=float, default=5.0,
                        help="with --with-accel: required exact/batched "
                             "wall-clock ratio on the same pure-DCF point "
                             "(default: 5)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run and exit 0")
    args = parser.parse_args(argv)

    def progress(name: str, entry: dict) -> None:
        peak = entry.get("peak_kib")
        print(
            f"  {name:<16} {entry['events']:>8} events  "
            f"{entry['wall_s']*1e3:8.1f} ms  "
            f"{entry['events_per_sec']:>10,} ev/s"
            + (f"  peak {peak:,.0f} KiB" if peak is not None else ""),
            file=sys.stderr,
        )

    results = run_benchmarks(
        names=args.only,
        repeats=args.repeats,
        measure_alloc=not args.skip_alloc,
        progress=progress,
    )
    import os as _os

    results["cpu_cores"] = _os.cpu_count() or 1
    report: dict[str, typing.Any] = {"schema": _SCHEMA, "benchmarks": results}

    baseline: dict[str, typing.Any] | None = None
    try:
        baseline = load_report(args.baseline)
    except FileNotFoundError:
        pass
    if baseline is not None:
        # carry the sections a fresh run does not re-measure
        for section in (
            "pre_pr_baseline", "parallel_sweep", "serve_queries", "accel"
        ):
            if section in baseline:
                report[section] = baseline[section]

    if args.with_sweep:
        report["parallel_sweep"] = sweep = run_parallel_sweep()
        print(
            f"  parallel_sweep   {sweep['points']} points, "
            f"speedup {sweep['speedup']}x, "
            f"identical rows: {sweep['rows_identical']}",
            file=sys.stderr,
        )
        if not sweep["rows_identical"]:
            print("error: serial and pool sweep rows differ", file=sys.stderr)
            return 1
        if args.min_sweep_speedup is not None:
            cores = sweep["cpu_cores"]
            pool_workers = sweep["parallel"]["workers"]
            if cores >= pool_workers:
                if sweep["speedup"] < args.min_sweep_speedup:
                    print(
                        f"error: sweep speedup {sweep['speedup']}x < "
                        f"required {args.min_sweep_speedup}x "
                        f"({pool_workers} workers on {cores} cores)",
                        file=sys.stderr,
                    )
                    return 1
            else:
                print(
                    f"  sweep speedup floor skipped: {cores} core(s) < "
                    f"{pool_workers} workers (no parallelism to measure)",
                    file=sys.stderr,
                )

    if args.with_accel:
        report["accel"] = accel = run_accel_section(args.repeats)
        print(
            f"  accel            batched {accel['batched_speedup']}x wall "
            f"({accel['exact_wall_s']}s exact -> "
            f"{accel['batched_wall_s']}s batched, same config)",
            file=sys.stderr,
        )
        if accel["batched_speedup"] < args.min_batched_speedup:
            print(
                f"error: batched speedup {accel['batched_speedup']}x < "
                f"required {args.min_batched_speedup}x",
                file=sys.stderr,
            )
            return 1

    if args.with_serve:
        from .serve import run_serve_queries

        report["serve_queries"] = serve = run_serve_queries()
        print(
            f"  serve_queries    {serve['requests']} requests, "
            f"{serve['requests_per_sec']:,.0f} req/s, "
            f"hit rate {serve['hit_rate']:.0%}, "
            f"p99 {serve['latency_p99_ms']} ms",
            file=sys.stderr,
        )
        if not serve["responses_identical"]:
            print(
                "error: repeated serve queries returned different bytes",
                file=sys.stderr,
            )
            return 1

    write_report(args.out, report)
    print(f"  report written to {args.out}", file=sys.stderr)

    if args.update:
        write_report(args.baseline, report)
        print(f"  baseline updated: {args.baseline}", file=sys.stderr)
        return 0
    if baseline is None:
        print(
            f"error: no baseline at {args.baseline} "
            "(run with --update to create it)",
            file=sys.stderr,
        )
        return 1
    if args.only:
        # a subset run gates only the benchmarks it measured
        baseline = dict(baseline)
        baseline["benchmarks"] = {
            name: entry
            for name, entry in baseline["benchmarks"].items()
            if name in args.only
        }
    problems = compare(report, baseline, args.tolerance)
    if problems:
        print(
            f"PERF GATE FAILED ({len(problems)} regression(s), "
            f"tolerance {args.tolerance:.0%}):",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"  perf gate passed (tolerance {args.tolerance:.0%})",
          file=sys.stderr)
    return 0
