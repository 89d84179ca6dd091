"""The benchmark's workloads (see README.md for why each exists).

Every workload drives the program only through public entry points:
``BssScenario(config).run()``, ``SweepExecutor.run``, ``build_server``
plus HTTP, and ``serve.answer_query``.  A workload is measured in
whole cycles of *rounds*; :func:`run.timed_loop` times each
:meth:`Workload.round` call from outside, and nothing inside a round is
traced.  A round's
outputs are checked between rounds, untimed (the serve status and byte
checks run inline: one comparison per response costs less than keeping
every response).
"""

from __future__ import annotations

import hashlib
import heapq
import http.client
import json
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
import typing

from layers import Profile

#: the seed the stored reference rows were produced with
DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: dense_dcf: the station counts the rounds cycle through, and the
#: horizon of each scenario
DENSE_STATIONS = (4, 8, 16, 32)
DENSE_SIM_TIME = 1.5
DENSE_WARMUP = 0.5

#: paper_grid: the evaluation points of Figs. 6-11 at a low, the
#: nominal and an overloaded load.  A pass cost depends strongly on the
#: random call arrivals, so every point of a pass gets its own scenario
#: seed (common seeds across schemes and loads would correlate, and so
#: add up, their costs), and one cycle runs PAPER_SEED_SETS seed sets
#: so one run averages over many realizations
PAPER_SCHEMES = ("proposed", "conventional")
PAPER_LOADS = (0.5, 1.0, 3.0)
PAPER_SEED_SETS = 16
PAPER_SIM_TIME = 6.0
PAPER_WARMUP = 1.0

#: serve_mix: the cached surface (the scheme, loads and horizon that
#: ``repro/bench/serve.py`` builds, over the evaluation seeds) and the
#: scrape period in cycles
SERVE_SCHEMES = ("proposed",)
SERVE_LOADS = (0.5, 1.0, 2.0)
SERVE_SIM_TIME = 6.0
SERVE_WARMUP = 1.0
SERVE_SCRAPE_EVERY = 4

#: how many times set-up is repeated per run (its median is reported)
SETUP_REPEATS = 9


def derive_seed(workload: str, seed: int, *labels: typing.Any) -> int:
    """A scenario seed of a run: a pure function of the run seed and
    the point's labels."""
    key = "/".join(str(part) for part in (workload, seed, *labels))
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def canonical(value: typing.Any) -> str:
    return json.dumps(value, sort_keys=True)


def normalized(row: dict) -> dict:
    """The JSON form of a row (tuples become lists, as in the cache)."""
    return json.loads(json.dumps(row))


def field_diffs(row: dict, ref: dict, skip: tuple[str, ...] = ()) -> list[str]:
    """Names of the fields on which two rows differ."""
    names = (set(row) | set(ref)) - set(skip)
    return sorted(
        name for name in names
        if name not in row or name not in ref
        or canonical(row[name]) != canonical(ref[name])
    )


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def quantile(values: typing.Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``q`` in 10..90 by tens, or 50/99)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def cpu_pass(iterations: int = 12000) -> float:
    """A fixed amount of pure-stdlib interpreter work: heap, dict, float
    and tuple traffic like the simulator's agenda and bookkeeping.  It
    never touches the program, so a change to the program cannot move
    it; only the host's speed at the moment does."""
    heap: list[tuple[float, int]] = []
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 1000 * 1e-3, i))
        if len(heap) > 64:
            due, j = heapq.heappop(heap)
            acc += due * j
        key = i & 511
        table[key] = table.get(key, 0) + 1
    return acc


class Checks:
    """Counts checked outputs; every failed check is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def rows(
        self,
        label: str,
        rows: typing.Sequence[dict],
        expected: typing.Sequence[dict],
        skip: tuple[str, ...] = (),
    ) -> None:
        """One check per row: equal field by field (minus ``skip``)."""
        if len(rows) != len(expected):
            self.check(False, f"{label}: {len(rows)} rows, expected {len(expected)}")
            return
        for i, (row, ref) in enumerate(zip(rows, expected)):
            diffs = field_diffs(row, ref, skip)
            self.check(not diffs, f"{label} row {i}: fields differ: {diffs[:8]}")


class Context:
    """What every workload needs: paths, the run seed and the checks."""

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.nproc = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
        )


class Workload:
    """One workload; subclasses define the rounds, checks and trace."""

    name = ""
    #: what one unit of ``work_per_s`` is on this workload
    work_unit = ""
    #: rounds per cycle: the timed phase ends only at a cycle boundary,
    #: so every run times the same mix of work whatever its speed
    cycle_rounds = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def prepare(self) -> None:
        """Build the untimed state the rounds need."""

    def reference_pass(self) -> None:
        """A fixed piece of work that calls nothing from ``src/``, timed
        between rounds to measure the host's speed (README.md,
        "Steadiness").  Every workload's pass takes ``run.REF_PASS_S``
        on the development host."""
        cpu_pass()

    def setup_sample(self) -> float:
        """One repetition of the workload's set-up, in seconds.

        For the sweep workloads that is the import time of the sweep
        stack in a fresh interpreter; the interpreter's own start-up is
        excluded, because the child times only its ``import`` statement.
        """
        code = (
            "import time, sys\n"
            "t = time.perf_counter()\n"
            "import repro, repro.exec, repro.experiments\n"
            "sys.stdout.write(repr(time.perf_counter() - t))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=self.ctx.src), cwd=self.ctx.root,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(out.stdout)

    def round(self, index: int) -> tuple[float, list[float], typing.Any]:
        """One timed unit: (work done, latency samples in ms, outputs)."""
        raise NotImplementedError

    def check(self, index: int, outputs: typing.Any) -> None:
        """Check one round's outputs (untimed), then let them go."""

    def verify(self) -> None:
        """Checks that need the whole timed phase to have run."""

    def trace(self) -> dict[str, float]:
        """The per-layer metrics this workload exercises."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""


def build_times(configs: typing.Sequence) -> float:
    """Median ms of the ``BssScenario`` constructor over ``configs``."""
    from repro import BssScenario

    samples = []
    for config in configs:
        for _ in range(3):
            start = time.perf_counter()
            BssScenario(config)
            samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def exec_metrics(records: typing.Sequence, wall: float) -> dict[str, float]:
    """Executor overhead and health from the public progress records of
    a serial sweep (``workers=1``)."""
    executed = [r for r in records if r.status == "executed"]
    points = max(1, len(records))
    busy = sum(r.wall_time for r in executed)
    return {
        "exec.overhead_ms_per_point": (wall - busy) * 1e3 / points,
        "exec.point_p50_ms": (
            statistics.median(r.wall_time for r in executed) * 1e3
            if executed else 0.0
        ),
        "exec.retries": float(sum(max(0, r.attempts - 1) for r in executed)),
        "exec.failed_points": float(sum(r.status == "failed" for r in records)),
    }


def sim_metrics(rows: typing.Sequence[dict], wall: float) -> dict[str, float]:
    """Exact event rate and host cost per event of a set of result rows."""
    sim_s = sum(r["sim_time"] for r in rows)
    events = sum(r["events_processed"] for r in rows)
    return {
        "sim.events_per_sim_s": events / sim_s,
        "sim.host_us_per_event": wall * 1e6 / events,
    }


def profiled(ctx: Context, fn: typing.Callable[[], typing.Any], untraced_wall: float):
    """Run ``fn`` under the profiler; returns (profile, result, ratio)."""
    profile = Profile(ctx.src)
    result = profile.run(fn)
    return profile, result, profile.wall_s / untraced_wall


# -- dense_dcf ----------------------------------------------------------------

def dense_configs(seed: int) -> list:
    from repro import ScenarioConfig

    return [
        ScenarioConfig(
            scheme="conventional",
            seed=derive_seed("dense_dcf", seed, n),
            sim_time=DENSE_SIM_TIME,
            warmup=DENSE_WARMUP,
            n_data_stations=n,
            load=6.0,
            new_voice_rate=0.0,
            new_video_rate=0.0,
            handoff_voice_rate=0.0,
            handoff_video_rate=0.0,
        )
        for n in DENSE_STATIONS
    ]


def run_scan(configs: typing.Sequence) -> tuple[list[dict], list[float]]:
    """One station-count scan; returns the rows and each run's wall (s)."""
    from repro import BssScenario

    rows, walls = [], []
    for config in configs:
        start = time.perf_counter()
        rows.append(BssScenario(config).run())
        walls.append(time.perf_counter() - start)
    return [normalized(r) for r in rows], walls


class PointCycle(Workload):
    """A workload whose rounds cycle through a fixed list of points.

    One round is one scenario, so the interleaved reference passes
    sample the host at the same fine grain as the work.  The first
    result of each point is checked against the stored reference rows
    (or their shape, for a seed other than the default) and kept;
    every later result of the same point must equal it.
    """

    work_unit = "simulated second"

    def points(self) -> list:
        raise NotImplementedError

    def run_point(self, config) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        reference = load_reference(self.name)
        self.reference_seed = reference["seed"]
        self.reference = [row for rows in reference["rows"] for row in rows]
        self.configs = self.points()
        self.cycle_rounds = len(self.configs)
        self.first: dict[int, dict] = {}

    def round(self, index: int) -> tuple[float, list[float], typing.Any]:
        i = index % len(self.configs)
        config = self.configs[i]
        start = time.perf_counter()
        row = self.run_point(config)
        wall = time.perf_counter() - start
        return config.sim_time, [wall * 1e3], (i, row)

    def check(self, index: int, outputs: typing.Any) -> None:
        i, row = outputs
        row = normalized(row)
        if i in self.first:
            self.ctx.checks.rows(f"{self.name} point {i} repeat", [row], [self.first[i]])
            return
        self.first[i] = row
        self.check_reference([row], [i])

    def check_reference(self, rows: typing.Sequence[dict], indexes: typing.Sequence[int]) -> None:
        """Rows of the given points against the stored reference rows:
        field by field at the default seed, by shape at any other."""
        refs = [self.reference[i] for i in indexes]
        if self.ctx.seed == self.reference_seed:
            self.ctx.checks.rows(
                f"{self.name} vs reference", rows, refs, skip=("events_processed",)
            )
            return
        for i, row, ref in zip(indexes, rows, refs):
            config = self.configs[i]
            echoed = all(
                row.get(k) == getattr(config, k)
                for k in ("scheme", "seed", "load", "sim_time", "warmup")
            )
            self.ctx.checks.check(
                set(row) == set(ref) and echoed,
                f"{self.name} point {i}: fields or echoed config differ from the reference's",
            )


class DenseDcf(PointCycle):
    name = "dense_dcf"

    def points(self) -> list:
        return dense_configs(self.ctx.seed)

    def run_point(self, config) -> dict:
        from repro import BssScenario

        return BssScenario(config).run()

    def trace(self) -> dict[str, float]:
        scans = [run_scan(self.configs) for _ in range(3)]
        rows = scans[0][0]
        out: dict[str, float] = {}
        for j, n in enumerate(DENSE_STATIONS):
            out[f"mac.host_us_per_event.n{n}"] = statistics.median(
                walls[j] * 1e6 / rows[j]["events_processed"] for _, walls in scans
            )
        untraced = statistics.median(sum(walls) for _, walls in scans)
        profile, (traced_rows, _), ratio = profiled(
            self.ctx, lambda: run_scan(self.configs), untraced
        )
        self.check_reference(rows, range(len(rows)))
        for i, (scan_rows, _) in enumerate(scans[1:], 1):
            self.ctx.checks.rows(f"dense_dcf trace scan {i}", scan_rows, rows)
        self.ctx.checks.rows("dense_dcf traced scan", traced_rows, rows)
        out.update(profile.metrics(DENSE_SIM_TIME * len(self.configs)))
        out.update(sim_metrics(rows, untraced))
        out["trace.overhead_ratio"] = ratio
        out["network.build_ms_per_point"] = build_times(self.configs)
        return out


# -- paper_grid ---------------------------------------------------------------

def paper_grid(seed: int, seed_set: int) -> list:
    from repro.experiments import sweep_config

    return [
        sweep_config(
            scheme, load, derive_seed("paper_grid", seed, seed_set, scheme, load),
            sim_time=PAPER_SIM_TIME, warmup=PAPER_WARMUP,
        )
        for scheme in PAPER_SCHEMES
        for load in PAPER_LOADS
    ]


class PaperGrid(PointCycle):
    name = "paper_grid"
    #: seed sets the traced run profiles (fixed, so its counts are exact)
    trace_passes = 3

    def points(self) -> list:
        return [c for j in range(PAPER_SEED_SETS) for c in paper_grid(self.ctx.seed, j)]

    def prepare(self) -> None:
        from repro.exec import ExecutorConfig, SweepExecutor

        super().prepare()
        self.executor = SweepExecutor(ExecutorConfig(workers=1))

    def run_point(self, config) -> dict:
        return self.executor.run([config])[0]

    def verify(self) -> None:
        from repro import BssScenario

        # any seed: the executor's rows equal direct scenario runs
        for i in sorted(self.first)[:len(PAPER_SCHEMES) * len(PAPER_LOADS)]:
            direct = normalized(BssScenario(self.configs[i]).run())
            self.ctx.checks.rows(f"paper_grid point {i} vs direct run", [self.first[i]], [direct])

    def trace(self) -> dict[str, float]:
        from repro.exec import ExecutorConfig, SweepExecutor

        count = self.trace_passes * len(PAPER_SCHEMES) * len(PAPER_LOADS)
        configs = self.configs[:count]
        records: list = []
        executor = SweepExecutor(ExecutorConfig(workers=1), progress=records.append)
        start = time.perf_counter()
        rows = executor.run(configs)
        untraced = time.perf_counter() - start
        out = exec_metrics(records, untraced)
        profile, traced_rows, ratio = profiled(
            self.ctx, lambda: SweepExecutor(ExecutorConfig(workers=1)).run(configs),
            untraced,
        )
        self.check_reference(rows, range(count))
        self.ctx.checks.rows("paper_grid traced pass", traced_rows, rows)
        out.update(profile.metrics(sum(c.sim_time for c in configs)))
        out.update(sim_metrics(rows, sum(r.wall_time for r in records)))
        out["trace.overhead_ratio"] = ratio
        out["network.build_ms_per_point"] = build_times(configs)
        return out


# -- serve_mix ----------------------------------------------------------------

def serve_grid() -> list:
    """The cached surface.  It does not depend on the run seed: the
    cost of ``admissible_calls`` under the default ceilings follows the
    surface's values (a walk alone, or a walk and a bisection), and on
    a surface of a few short runs those swing from seed to seed."""
    from repro.experiments import EVALUATION_SEEDS, sweep_grid

    return sweep_grid(
        SERVE_SCHEMES, loads=SERVE_LOADS, seeds=EVALUATION_SEEDS,
        sim_time=SERVE_SIM_TIME, warmup=SERVE_WARMUP,
    )


#: one cycle of the closed loop: (kind label, path, status).  The paths
#: are the request mix of ``repro/bench/serve.py``, copied: three exact
#: and two interpolated operating points, ``admissible_calls`` under the
#: default QoS ceilings, one ``handoff_drop_rate`` and an exact lookup
#: at an uncached load, which is 404 with back-fill off
SERVE_MIX: tuple[tuple[str, str, int], ...] = (
    ("exact", "/query?kind=operating_point&scheme=proposed&load=0.5", 200),
    ("exact", "/query?kind=operating_point&scheme=proposed&load=1.0", 200),
    ("exact", "/query?kind=operating_point&scheme=proposed&load=2.0", 200),
    ("interpolated", "/query?kind=operating_point&scheme=proposed&load=0.75", 200),
    ("interpolated", "/query?kind=operating_point&scheme=proposed&load=1.5", 200),
    ("admissible_calls", "/query?kind=admissible_calls&scheme=proposed", 200),
    ("handoff_drop_rate", "/query?kind=handoff_drop_rate&scheme=proposed&load=1.0", 200),
    ("miss", "/query?kind=operating_point&scheme=proposed&load=0.8&exact=true", 404),
)

SERVE_KINDS = ("exact", "interpolated", "admissible_calls", "handoff_drop_rate", "miss")


def query_params(path: str) -> dict:
    """A query path's parameters as the HTTP layer passes them on:
    numbers parsed, integral ones as ``int``."""
    import urllib.parse

    params: dict[str, typing.Any] = {}
    for name, value in urllib.parse.parse_qsl(urllib.parse.urlsplit(path).query):
        try:
            number = float(value)
        except ValueError:
            params[name] = value
            continue
        params[name] = int(number) if number == int(number) else number
    return params


#: hand-offs per serve reference pass: about one per millisecond of
#: interpreter work, as in a request
ECHO_TRIPS = 10


def echo(sock: socket.socket) -> None:
    """Send back whatever arrives until the other end closes."""
    with sock:
        while data := sock.recv(4096):
            sock.sendall(data)


class ServeMix(Workload):
    name = "serve_mix"
    work_unit = "request"
    cycle_rounds = SERVE_SCRAPE_EVERY

    def prepare(self) -> None:
        from repro.exec import ExecutorConfig, SweepExecutor
        from repro.serve import build_server

        self.cache_dir = os.path.join(self.ctx.workdir, "serve-cache")
        self.grid = serve_grid()
        self.fill_records: list = []
        start = time.perf_counter()
        self.fill_rows = SweepExecutor(
            ExecutorConfig(workers=1, cache_dir=self.cache_dir),
            progress=self.fill_records.append,
        ).run(self.grid)
        self.fill_wall = time.perf_counter() - start

        self.server = build_server(self.cache_dir, port=0, backfill=False)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.echo, peer = socket.socketpair()
        self.echo_thread = threading.Thread(target=echo, args=(peer,), daemon=True)
        self.echo_thread.start()
        self.order = random.Random(f"serve_mix/{self.ctx.seed}")
        self.params = [query_params(path) for _, path, _ in SERVE_MIX]
        self.first_body: dict[str, bytes] = {}
        self.check_answers()

    def reference_pass(self) -> None:
        """Each request is a hand-off between the client and a server
        thread.  When the host deschedules the virtual CPUs, those
        wake-ups slow far more than pure interpreter work, so this pass
        makes the same kind of hand-offs, through a socket pair, between
        pieces of the same interpreter work.  On a quiet host the
        hand-offs add little: both passes take about as long."""
        for _ in range(ECHO_TRIPS):
            cpu_pass(12000 // ECHO_TRIPS)
            self.echo.sendall(b"x" * 64)
            got = 0
            while got < 64:
                got += len(self.echo.recv(64 - got))

    def setup_sample(self) -> float:
        """``build_server``: cache scan, surface index and bind."""
        from repro.serve import build_server

        start = time.perf_counter()
        server = build_server(self.cache_dir, port=0, backfill=False)
        elapsed = time.perf_counter() - start
        server.server_close()
        return elapsed

    def fetch(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def in_process(self, params: dict) -> dict:
        """The in-process answer for one query, or its error payload."""
        from repro.serve import QueryError, answer_query

        args = {k: v for k, v in params.items() if k != "kind"}
        try:
            return answer_query(self.server.index, params["kind"], args).to_dict()
        except QueryError as exc:
            return {"error": exc.to_dict()}

    def check_answers(self) -> None:
        """Untimed: every query's HTTP answer equals the in-process one,
        and exact answers equal the means of the cached rows."""
        checks = self.ctx.checks
        for (label, path, expected), params in zip(SERVE_MIX, self.params):
            status, body = self.fetch(path)
            self.first_body[path] = body
            checks.check(status == expected, f"{path}: status {status}, expected {expected}")
            payload = json.loads(body)
            checks.check(
                payload == json.loads(json.dumps(self.in_process(params))),
                f"{path}: HTTP answer differs from answer_query",
            )
            if label == "exact" and status == 200:
                rows = [
                    r for r in self.fill_rows
                    if r["scheme"] == params["scheme"] and r["load"] == params["load"]
                ]
                ok = bool(rows) and all(
                    abs(value - statistics.fmean(r[metric] for r in rows)) <= 1e-9 * max(1.0, abs(value))
                    for metric, value in payload["values"].items()
                )
                checks.check(ok, f"{path}: exact values are not the cached rows' means")

    def cycle(self, index: int) -> list[tuple[str, int, int]]:
        """This cycle's requests as (path, expected status, mix index)."""
        order = list(range(len(SERVE_MIX)))
        self.order.shuffle(order)
        requests = [(SERVE_MIX[i][1], SERVE_MIX[i][2], i) for i in order]
        if index % SERVE_SCRAPE_EVERY == 0:
            requests.append(("/metrics", 200, -1))
        return requests

    def round(self, index: int) -> tuple[float, list[float], typing.Any]:
        checks = self.ctx.checks
        latencies = []
        for path, expected, i in self.cycle(index):
            start = time.perf_counter()
            status, body = self.fetch(path)
            latencies.append((time.perf_counter() - start) * 1e3)
            ok = status == expected and (i < 0 or body == self.first_body[path])
            checks.check(ok, f"{path}: status {status} or bytes changed")
        return float(len(latencies)), latencies, None

    def trace(self) -> dict[str, float]:
        from repro.exec import ExecutorConfig, ResultCache, SweepExecutor
        from repro.serve import SurfaceIndex

        out = exec_metrics(self.fill_records, self.fill_wall)
        start = time.perf_counter()
        replay = SweepExecutor(ExecutorConfig(workers=1, cache_dir=self.cache_dir)).run(self.grid)
        out["exec.cache_hit_ms_per_point"] = (time.perf_counter() - start) * 1e3 / len(replay)
        self.ctx.checks.rows("serve_mix cache replay", replay, self.fill_rows)

        index_ms = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            SurfaceIndex.from_cache(ResultCache(self.cache_dir))
            index_ms.append((time.perf_counter() - start) * 1e3)
        out["serve.index_build_ms"] = statistics.median(index_ms)

        cycles = 100
        per_kind: dict[str, list[float]] = {k: [] for k in SERVE_KINDS}
        local_ms = []
        start = time.perf_counter()
        for _ in range(cycles):
            for (label, _, _), params in zip(SERVE_MIX, self.params):
                t = time.perf_counter()
                self.in_process(params)
                elapsed = time.perf_counter() - t
                per_kind[label].append(elapsed * 1e6)
                local_ms.append(elapsed * 1e3)
        untraced = time.perf_counter() - start
        for label, samples in per_kind.items():
            out[f"serve.query_us.{label}"] = statistics.median(samples)

        client_ms, ok = [], 0
        for index in range(cycles):
            for path, expected, i in self.cycle(index):
                if i < 0:
                    continue
                start = time.perf_counter()
                status, body = self.fetch(path)
                client_ms.append((time.perf_counter() - start) * 1e3)
                ok += status == 200
                self.ctx.checks.check(
                    status == expected and body == self.first_body[path],
                    f"{path}: status {status} or bytes changed",
                )
        out["serve.http_overhead_us"] = (
            statistics.median(client_ms) - statistics.median(local_ms)
        ) * 1e3
        for q in (50, 90, 99):
            out[f"serve.req_p{q}_ms"] = quantile(client_ms, q)
        out["serve.ok_ratio"] = ok / len(client_ms)

        def in_process_cycles() -> None:
            for _ in range(cycles):
                for params in self.params:
                    self.in_process(params)

        profile, _, ratio = profiled(self.ctx, in_process_cycles, untraced)
        out.update(profile.metrics(0.0))
        out["trace.overhead_ratio"] = ratio
        out["network.build_ms_per_point"] = build_times(self.grid)
        return out

    def close(self) -> None:
        echo = getattr(self, "echo", None)
        if echo is not None:
            echo.close()  # the echo thread sees EOF and ends
            self.echo_thread.join(timeout=30)
        server = getattr(self, "server", None)
        if server is None:
            return
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        thread = getattr(self, "thread", None)
        if thread is not None:
            server.stop()
            thread.join(timeout=30)
        else:
            server.server_close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DenseDcf, PaperGrid, ServeMix)
}
