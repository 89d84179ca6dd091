"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dense_dcf --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs the separate traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment (nproc, Python, commit, a hash of
the program's source) and the run's details.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout (caches, journals); removed on exit
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: the reference pass's duration on the development host (a 2-vCPU
#: container, Python 3.11); one "reference second" is the time the
#: host would need for 1 / REF_PASS_S reference passes
REF_PASS_S = 0.010
#: share of the measured round time spent on interleaved reference passes
REF_SHARE = 0.2
#: plain reference passes run right after each set-up sample
SETUP_REF_PASSES = 3

def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric in one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def source_digest() -> str:
    """sha256 over the program's Python sources (path + bytes)."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def timed_loop(workload, seconds: float) -> dict:
    """Run whole cycles of rounds for about ``seconds`` of round time.

    The loop stops at the cycle boundary nearest to ``seconds`` (after
    at least one cycle), so a faster or slower program times the same
    mix of work, only more or fewer times over.  Only the rounds are
    timed; each round's outputs are checked between rounds, untimed,
    and then dropped, so memory does not grow with the number of rounds
    a run manages.  The set-up repetitions are spread evenly between
    rounds, so their median does not hang on the load the host happens
    to carry in one short moment.

    Between rounds, untimed, the loop also runs reference passes for
    about REF_SHARE of the round time.  Their mean duration against
    REF_PASS_S is the host's slowdown over the same stretch of time,
    once in wall time and once in CPU time (see README.md,
    "Steadiness").
    """
    from workloads import SETUP_REPEATS, cpu_pass, cpu_seconds

    setup: list[float] = []
    setup_ref_cpu = 0.0

    def sample_setup() -> None:
        nonlocal setup_ref_cpu
        setup.append(workload.setup_sample())
        start = cpu_seconds()
        for _ in range(SETUP_REF_PASSES):
            cpu_pass()
        setup_ref_cpu += cpu_seconds() - start

    sample_setup()
    work = elapsed = cpu = ref_s = ref_cpu = 0.0
    ref_passes = 0
    latencies: list[float] = []
    rounds = cycles = 0
    while True:
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        done, samples, outputs = workload.round(rounds)
        elapsed += time.perf_counter() - start
        cpu += cpu_seconds() - cpu_start
        work += done
        latencies.extend(samples)
        workload.check(rounds, outputs)
        rounds += 1
        if len(setup) < SETUP_REPEATS and elapsed >= seconds * len(setup) / SETUP_REPEATS:
            sample_setup()
        while ref_s < REF_SHARE * elapsed:
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            workload.reference_pass()
            ref_s += time.perf_counter() - start
            ref_cpu += cpu_seconds() - cpu_start
            ref_passes += 1
        if rounds % workload.cycle_rounds == 0:
            cycles += 1
            if elapsed + elapsed / cycles / 2 >= seconds:
                break
    while len(setup) < SETUP_REPEATS:
        sample_setup()
    return {
        "setup_s": setup,
        "rounds": rounds,
        "cycles": cycles,
        "work": work,
        "wall_s": elapsed,
        "cpu_s": cpu,
        "latencies_ms": latencies,
        "slowdown": ref_s / ref_passes / REF_PASS_S,
        "cpu_slowdown": ref_cpu / ref_passes / REF_PASS_S,
        "setup_slowdown": setup_ref_cpu / len(setup) / SETUP_REF_PASSES / REF_PASS_S,
    }


def raw_rates(loop: dict) -> dict[str, float]:
    """Work per wall second and CPU ms per unit of work, as measured."""
    return {
        "work_per_s": loop["work"] / loop["wall_s"],
        "cpu_ms_per_work": loop["cpu_s"] * 1e3 / loop["work"],
    }


def end_to_end(loop: dict) -> dict[str, float]:
    """The end-to-end metrics; set-up and the two rates are in reference
    seconds, i.e. divided by the host's slowdown over the same rounds.
    CPU time is divided by the slowdown in CPU time: time the host
    takes the CPU away from the process stretches wall time, not CPU
    time.  Set-up is divided by the slowdown in CPU time of plain passes
    run beside its samples: the median of nine samples, each short next
    to the spells in which the host takes the CPU away, skips those
    spells and so sees only the host's compute speed."""
    raw = raw_rates(loop)
    return {
        "setup_s": statistics.median(loop["setup_s"]) / loop["setup_slowdown"],
        "work_per_ref_s": raw["work_per_s"] * loop["slowdown"],
        "cpu_ref_ms_per_work": raw["cpu_ms_per_work"] / loop["cpu_slowdown"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro  # noqa: F401 — fails fast, and compiles bytecode untimed
    from workloads import DEFAULT_SEED, WORKLOADS, Context, quantile

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    ctx = Context(ROOT, seed, workdir)
    workload = WORKLOADS[args.workload](ctx)
    info: dict = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "nproc": ctx.nproc,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    try:
        workload.prepare()
        if args.trace:
            values = workload.trace()
            units = metric_units("per_layer")
            checks = ctx.checks
            values["failed_ratio"] = checks.failed / max(1, checks.attempted)
            # a layer this workload does not exercise reports 0
            metrics = {
                name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()
            }
        else:
            loop = timed_loop(workload, args.seconds)
            workload.verify()
            latencies = loop["latencies_ms"]
            info.update(
                rounds=loop["rounds"], cycles=loop["cycles"], work=loop["work"],
                wall_s=loop["wall_s"], setup_samples_s=loop["setup_s"],
                op_p50_ms=quantile(latencies, 50),
                op_p90_ms=quantile(latencies, 90),
                slowdown=loop["slowdown"], cpu_slowdown=loop["cpu_slowdown"],
                setup_slowdown=loop["setup_slowdown"],
                **raw_rates(loop),
            )
            units = metric_units("end_to_end")
            metrics = {
                name: {"value": value, "unit": units[name]}
                for name, value in end_to_end(loop).items()
            }
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it

    checks = ctx.checks
    for note in checks.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    info["check_notes"] = checks.notes
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
