"""End-to-end tracing through BssScenario: the observability contract.

Three guarantees the subsystem makes:

* **off means off** — a trace-free config builds no recorder, leaves
  every instrumented component's ``trace`` attribute ``None``, and its
  result row carries no ``obs`` key (golden-row byte identity);
* **determinism** — the same traced config run twice emits a
  byte-identical JSONL trace and identical metrics snapshots;
* **identity** — the trace config is part of the point's content
  address, and only wanted categories are wired.
"""

import dataclasses

import pytest

from repro.exec.hashing import config_key
from repro.network import BssScenario, ScenarioConfig
from repro.obs import TraceConfig, validate_trace_file


def traced_config(sim_time=6.0, seed=3, trace=None, **overrides):
    return ScenarioConfig(
        scheme="proposed",
        seed=seed,
        sim_time=sim_time,
        warmup=1.0,
        new_voice_rate=0.3,
        new_video_rate=0.2,
        handoff_voice_rate=0.15,
        handoff_video_rate=0.1,
        mean_holding=20.0,
        trace=trace,
        **overrides,
    )


class TestTracingDisabled:
    @pytest.fixture(scope="class")
    def scenario(self):
        scenario = BssScenario(traced_config(sim_time=4.0))
        scenario.results = scenario.run()
        return scenario

    def test_no_recorder_is_built(self, scenario):
        assert scenario.trace is None

    def test_every_instrumented_site_sees_none(self, scenario):
        assert scenario.channel.trace is None
        assert scenario.ap.coordinator.trace is None
        assert scenario.ap.policy.trace is None
        assert scenario.ap.trace is None
        assert scenario.call_generator.trace is None
        for station in scenario.data_stations:
            assert station.dcf.trace is None
        for station in scenario.ap.stations.values():
            assert station.dcf.trace is None

    def test_result_row_has_no_obs_key(self, scenario):
        assert "obs" not in scenario.results

    def test_no_periodic_snapshots_are_armed(self, scenario):
        assert scenario.metrics.snapshots == []


class TestTracingEnabled:
    @pytest.fixture(scope="class")
    def run_pair(self):
        cfg = traced_config(trace=TraceConfig())

        def one():
            scenario = BssScenario(cfg)
            results = scenario.run()
            return scenario, results

        return one(), one()

    def test_trace_jsonl_is_byte_identical_across_runs(self, run_pair):
        (s1, _), (s2, _) = run_pair
        lines1 = list(s1.trace.jsonl_lines())
        lines2 = list(s2.trace.jsonl_lines())
        assert lines1, "traced run emitted no events"
        assert lines1 == lines2

    def test_exported_files_are_byte_identical(self, run_pair, tmp_path):
        (s1, _), (s2, _) = run_pair
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        s1.trace.export_jsonl(str(p1))
        s2.trace.export_jsonl(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert validate_trace_file(str(p1)) == len(s1.trace)

    def test_all_hot_categories_fired(self, run_pair):
        (s1, _), _ = run_pair
        counts = s1.trace.counts_by_category()
        for cat in ("frame", "backoff", "cfp", "token", "admission"):
            assert counts.get(cat, 0) > 0, cat

    def test_results_obs_summary(self, run_pair):
        (s1, r1), (_, r2) = run_pair
        assert r1["obs"]["trace_emitted"] == s1.trace.emitted
        assert r1["obs"]["trace_counts"] == s1.trace.counts_by_category()
        assert r1["obs"] == r2["obs"]

    def test_metrics_snapshots_identical_and_periodic(self, run_pair):
        (s1, r1), (s2, _) = run_pair
        assert s1.metrics.snapshots == s2.metrics.snapshots
        assert len(s1.metrics.snapshots) == 6  # 1 Hz over [1, 6]
        assert r1["obs"]["metrics_snapshots"] == 6

    def test_traced_and_untraced_results_agree_on_physics(self, run_pair):
        # tracing must observe, not perturb: apart from the snapshot
        # timer's own firings, the simulated point is the same with and
        # without the recorder attached
        (s1, traced), _ = run_pair
        untraced = BssScenario(traced_config()).run()
        snapshot_events = len(s1.metrics.snapshots)
        assert traced["events_processed"] == (
            untraced["events_processed"] + snapshot_events
        )
        for key in ("data_delivered", "voice_delivered", "video_delivered",
                    "calls_blocked", "calls_dropped"):
            assert traced[key] == untraced[key], key


class TestCategoryFiltering:
    def test_only_wanted_categories_are_wired(self):
        cfg = traced_config(
            sim_time=2.0, trace=TraceConfig(categories=("cfp",))
        )
        scenario = BssScenario(cfg)
        assert scenario.ap.coordinator.trace is scenario.trace
        assert scenario.channel.trace is None
        assert scenario.ap.policy.trace is None
        assert scenario.ap.trace is None
        assert scenario.call_generator.trace is None

    def test_filtered_run_records_only_that_category(self):
        cfg = traced_config(trace=TraceConfig(categories=("token",)))
        scenario = BssScenario(cfg)
        scenario.run()
        counts = scenario.trace.counts_by_category()
        assert set(counts) == {"token"}
        assert counts["token"] > 0

    def test_snapshots_can_be_disabled(self):
        cfg = traced_config(
            sim_time=2.0, trace=TraceConfig(snapshot_interval=0.0)
        )
        scenario = BssScenario(cfg)
        scenario.run()
        assert scenario.metrics.snapshots == []


class TestPointIdentity:
    def test_trace_field_changes_the_config_key(self):
        base = traced_config()
        traced = dataclasses.replace(base, trace=TraceConfig())
        assert config_key(base) != config_key(traced)

    def test_equivalent_trace_configs_share_a_key(self):
        a = dataclasses.replace(
            traced_config(), trace=TraceConfig(categories=("cfp", "token"))
        )
        b = dataclasses.replace(
            traced_config(), trace=TraceConfig(categories=("token", "cfp"))
        )
        assert config_key(a) == config_key(b)

    def test_config_dict_roundtrip_with_trace(self):
        import json

        cfg = dataclasses.replace(
            traced_config(), trace=TraceConfig(capacity=99)
        )
        rebuilt = ScenarioConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        )
        assert rebuilt == cfg
        assert config_key(rebuilt) == config_key(cfg)

    def test_ring_capacity_is_honoured_in_a_real_run(self):
        cfg = traced_config(trace=TraceConfig(capacity=64))
        scenario = BssScenario(cfg)
        results = scenario.run()
        assert len(scenario.trace) <= 64
        assert results["obs"]["trace_dropped"] == (
            scenario.trace.emitted - len(scenario.trace)
        )


class TestConventionalBackoffWindows:
    """Plain-BEB draws record the window they were sampled from."""

    @pytest.fixture(scope="class")
    def scenario(self):
        cfg = dataclasses.replace(
            traced_config(sim_time=3.0, load=3.0, n_data_stations=8,
                          trace=TraceConfig(categories=("backoff",), capacity=0)),
            scheme="conventional",
        )
        scenario = BssScenario(cfg)
        scenario.run()
        return scenario

    def test_every_draw_records_its_beb_window(self, scenario):
        beb = scenario._shared_policy
        draws = [fields for _t, _s, _c, ev, fields in scenario.trace.events("backoff")
                 if ev == "draw"]
        assert draws
        for fields in draws:
            stage = min(fields["stage"], beb.max_stage())
            assert fields["window_offset"] == 0
            assert fields["window_width"] == beb.window(stage)
            assert 0 <= fields["slots"] < fields["window_width"]

    def test_retries_record_a_doubled_window(self, scenario):
        # the run is loaded enough to collide, so the widths must grow
        widths = {fields["window_width"]
                  for _t, _s, _c, ev, fields in scenario.trace.events("backoff")
                  if ev == "draw" and fields["stage"] > 0}
        assert 64 in widths
