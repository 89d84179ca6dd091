"""Regenerate the reference rows the benchmark checks its output against.

Run from the root of a checkout::

    python3 perfbench/make_reference.py

It writes ``perfbench/reference/dense_dcf.json`` (one station-count
scan) and ``perfbench/reference/paper_grid.json`` (every pass of the
paper grid), both for the default seed, through the same public calls
the timed rounds make.  Regenerate only when a change is meant to
alter result rows, and say so in the change's description.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PAPER_SEED_SETS,
    REFERENCE_DIR,
    dense_configs,
    paper_grid,
    run_scan,
)


def write(name: str, rows: list[list[dict]]) -> None:
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {sum(len(p) for p in rows)} rows")


def main() -> None:
    from repro.exec import ExecutorConfig, SweepExecutor

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    write("dense_dcf", [run_scan(dense_configs(DEFAULT_SEED))[0]])
    executor = SweepExecutor(ExecutorConfig(workers=1))
    write("paper_grid", [
        executor.run(paper_grid(DEFAULT_SEED, j)) for j in range(PAPER_SEED_SETS)
    ])


if __name__ == "__main__":
    main()
