"""The perf gate: compare rules, report IO, CLI exit codes."""

import json

import pytest

from repro.bench import (
    BENCHMARKS,
    compare,
    load_report,
    main,
    merge_section,
    run_benchmark,
    run_benchmarks,
    write_report,
)


def entry(events=1000, ev_s=100_000, peak=50.0, wall=0.01):
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": ev_s,
        "peak_kib": peak,
    }


def report(**benches):
    return {"schema": 1, "benchmarks": benches}


def sweep_section(serial_events, parallel=None):
    """A ``parallel_sweep`` section as :func:`run_parallel_sweep` writes it."""
    def mode(workers, events):
        return {"workers": workers, "sim_events": events, "wall_s": 1.0}

    return {
        "points": 8,
        "rows_identical": True,
        "cpu_cores": 1,
        "speedup": 1.0,
        "serial": mode(1, serial_events),
        "parallel": mode(4, serial_events if parallel is None else parallel),
    }


class TestCompare:
    def test_identical_reports_pass(self):
        r = report(a=entry(), b=entry(events=77))
        assert compare(r, r, tolerance=0.0) == []

    def test_throughput_regression_detected(self):
        base = report(a=entry(ev_s=100_000))
        fresh = report(a=entry(ev_s=80_000))
        problems = compare(fresh, base, tolerance=0.1)
        assert len(problems) == 1
        assert "throughput" in problems[0]

    def test_tolerance_absorbs_small_slowdowns(self):
        base = report(a=entry(ev_s=100_000))
        fresh = report(a=entry(ev_s=80_000))
        assert compare(fresh, base, tolerance=0.25) == []

    def test_event_count_drift_fails_regardless_of_tolerance(self):
        base = report(a=entry(events=1000))
        fresh = report(a=entry(events=1001))
        problems = compare(fresh, base, tolerance=10.0)
        assert len(problems) == 1
        assert "DETERMINISM" in problems[0]

    def test_sweep_event_drift_fails_regardless_of_tolerance(self):
        base = report(a=entry())
        base["parallel_sweep"] = sweep_section(800)
        fresh = report(a=entry())
        fresh["parallel_sweep"] = sweep_section(801, parallel=800)
        problems = compare(fresh, base, tolerance=10.0)
        assert len(problems) == 1
        assert problems[0].startswith("parallel_sweep.serial: DETERMINISM")
        fresh["parallel_sweep"] = sweep_section(800)
        assert compare(fresh, base, tolerance=0.0) == []

    def test_sweep_sections_without_event_counts_are_not_compared(self):
        base = report(a=entry())
        base["parallel_sweep"] = {"speedup": 2.0}
        fresh = report(a=entry())
        fresh["parallel_sweep"] = sweep_section(800)
        assert compare(fresh, base, tolerance=0.0) == []
        assert compare(base, fresh, tolerance=0.0) == []

    def test_missing_benchmark_fails(self):
        base = report(a=entry(), b=entry())
        fresh = report(a=entry())
        problems = compare(fresh, base, tolerance=0.5)
        assert problems == ["b: baselined benchmark missing from run"]

    def test_new_benchmark_in_fresh_run_is_fine(self):
        base = report(a=entry())
        fresh = report(a=entry(), brand_new=entry())
        assert compare(fresh, base, tolerance=0.1) == []

    def test_allocation_regression_detected(self):
        base = report(a=entry(peak=1000.0))
        fresh = report(a=entry(peak=1600.0))
        problems = compare(fresh, base, tolerance=0.1)
        assert len(problems) == 1
        assert "allocation" in problems[0]

    def test_allocation_has_absolute_slack_for_tiny_workloads(self):
        # 1 KiB -> 60 KiB is huge relatively but within the 64 KiB
        # absolute slack that absorbs interpreter noise
        base = report(a=entry(peak=1.0))
        fresh = report(a=entry(peak=60.0))
        assert compare(fresh, base, tolerance=0.1) == []

    def test_missing_peak_field_skips_the_allocation_check(self):
        base = report(a=entry())
        fresh_entry = entry(peak=None)
        del fresh_entry["peak_kib"]
        assert compare(report(a=fresh_entry), base, tolerance=0.0) == []


class TestReportIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        original = report(a=entry())
        write_report(path, original)
        assert load_report(path) == original

    def test_load_rejects_non_reports(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"whatever": 1}))
        with pytest.raises(ValueError):
            load_report(path)

    def test_merge_section_creates_and_updates(self, tmp_path):
        path = tmp_path / "report.json"
        merge_section(path, "parallel_sweep", {"speedup": 2.0})
        merged = merge_section(path, "parallel_sweep", {"speedup": 3.0})
        assert merged["parallel_sweep"] == {"speedup": 3.0}
        assert load_report(path)["benchmarks"] == {}


class TestMicro:
    def test_timer_chain_is_deterministic_and_exact(self):
        result = run_benchmark("timer_chain", repeats=1, measure_alloc=False)
        assert result["events"] == 30_000
        assert result["events_per_sec"] > 0

    def test_alloc_pass_verifies_determinism(self):
        result = run_benchmark("cancel_storm", repeats=1, measure_alloc=True)
        assert result["peak_kib"] > 0
        assert result["events"] == 6_000

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks(names=["nope"], repeats=1)

    def test_registry_has_the_documented_suites(self):
        assert set(BENCHMARKS) == {
            "timer_chain", "cancel_storm", "process_ping",
            "dcf_contention", "pcf_polling", "end_to_end",
            "batched_end_to_end",
        }

    def test_every_benchmark_runs_and_reports_events(self):
        results = run_benchmarks(repeats=1, measure_alloc=False)
        assert set(results) == set(BENCHMARKS)
        for name, got in results.items():
            assert got["events"] > 0, name
            assert got["events_per_sec"] > 0, name
            assert "peak_kib" not in got, name

    def test_full_stack_benchmarks_are_deterministic(self):
        first = run_benchmark("end_to_end", repeats=1, measure_alloc=False)
        second = run_benchmark("end_to_end", repeats=1, measure_alloc=False)
        assert first["events"] == second["events"]


class TestParallelSweepSection:
    def test_scaled_down_sweep_reports_identical_rows(self):
        from repro.bench import run_parallel_sweep

        section = run_parallel_sweep(workers=2, sim_time=2.0, warmup=0.5)
        assert section["rows_identical"] is True
        assert section["points"] == 8
        assert section["serial"]["workers"] == 1
        assert section["parallel"]["workers"] == 2
        assert section["serial"]["sim_events"] == (
            section["parallel"]["sim_events"]
        ) > 0
        assert section["speedup"] > 0


class TestAccelSection:
    def test_speedup_is_exact_over_batched_wall_on_one_config(self):
        from repro.bench.gate import run_accel_section

        section = run_accel_section(repeats=1)
        assert set(section) == {
            "exact_wall_s", "batched_wall_s", "batched_speedup",
        }
        assert section["batched_speedup"] == pytest.approx(
            section["exact_wall_s"] / section["batched_wall_s"], rel=0.02
        )
        assert section["batched_speedup"] > 1


class TestCli:
    def _kernel_only(self):
        return ["--only", "timer_chain", "--repeats", "1", "--skip-alloc"]

    def test_update_creates_baseline_and_passes(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        out = tmp_path / "fresh.json"
        code = main(["--baseline", str(baseline), "--out", str(out),
                     "--update"] + self._kernel_only())
        assert code == 0
        assert load_report(baseline)["benchmarks"]["timer_chain"][
            "events"
        ] == 30_000

    def test_missing_baseline_fails(self, tmp_path):
        code = main(["--baseline", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "fresh.json")]
                    + self._kernel_only())
        assert code == 1

    def test_regression_exits_nonzero(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        write_report(baseline, report(
            timer_chain=entry(events=30_000, ev_s=10**9)
        ))
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--tolerance", "0.25"] + self._kernel_only())
        assert code == 1

    def test_determinism_drift_exits_nonzero_despite_huge_tolerance(
        self, tmp_path
    ):
        baseline = tmp_path / "BENCH.json"
        write_report(baseline, report(timer_chain=entry(events=1, ev_s=1)))
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--tolerance", "1000"] + self._kernel_only())
        assert code == 1

    def test_only_subset_ignores_other_baselined_benchmarks(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        write_report(baseline, report(
            timer_chain=entry(events=30_000, ev_s=1),
            end_to_end=entry(events=12345, ev_s=10**9),
        ))
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--tolerance", "0.99"] + self._kernel_only())
        assert code == 0

    @pytest.mark.parametrize("measured, code", [(834_000, 0), (834_001, 1)])
    def test_with_sweep_gates_the_sweep_event_count(
        self, tmp_path, monkeypatch, measured, code
    ):
        import repro.bench.gate as gate

        monkeypatch.setattr(
            gate, "run_parallel_sweep", lambda: sweep_section(measured)
        )
        baseline = tmp_path / "BENCH.json"
        seeded = report(timer_chain=entry(events=30_000, ev_s=1))
        seeded["parallel_sweep"] = sweep_section(834_000)
        write_report(baseline, seeded)
        argv = ["--baseline", str(baseline),
                "--out", str(tmp_path / "fresh.json"),
                "--tolerance", "0.99", "--with-sweep"] + self._kernel_only()
        assert main(argv) == code

    def test_update_preserves_unmeasured_sections(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        seeded = report(timer_chain=entry(events=30_000, ev_s=1))
        seeded["pre_pr_baseline"] = {"note": "history"}
        seeded["parallel_sweep"] = {"speedup": 2.0}
        write_report(baseline, seeded)
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--update"] + self._kernel_only())
        assert code == 0
        updated = load_report(baseline)
        assert updated["pre_pr_baseline"] == {"note": "history"}
        assert updated["parallel_sweep"] == {"speedup": 2.0}
