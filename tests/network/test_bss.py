"""End-to-end tests of the BSS scenario assembly (all three schemes)."""

import dataclasses
import gc
import weakref

import pytest

from repro.network import SCHEMES, BssScenario, ScenarioConfig


def quick_cfg(**kw):
    defaults = dict(
        sim_time=12.0, warmup=2.0, seed=7,
        new_voice_rate=0.4, new_video_rate=0.2,
        handoff_voice_rate=0.2, handoff_video_rate=0.1,
        mean_holding=8.0, n_data_stations=2,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_runs_and_reports(scheme):
    r = BssScenario(quick_cfg(scheme=scheme)).run()
    assert r["scheme"] == scheme
    assert r["data_delivered"] > 0
    assert 0 <= r["dropping_probability"] <= 1
    assert 0 <= r["blocking_probability"] <= 1
    assert 0 < r["channel_busy_fraction"] < 1


def test_same_seed_same_results():
    a = BssScenario(quick_cfg()).run()
    b = BssScenario(quick_cfg()).run()
    assert a == b


def test_different_seeds_differ():
    a = BssScenario(quick_cfg(seed=1)).run()
    b = BssScenario(quick_cfg(seed=2)).run()
    assert a["voice_delay_mean"] != b["voice_delay_mean"]


def test_common_random_numbers_across_schemes():
    """Same seed => both schemes face identical call arrival counts."""
    a = BssScenario(quick_cfg(scheme="proposed")).run()
    b = BssScenario(quick_cfg(scheme="conventional")).run()
    assert a["call_attempts_new"] == b["call_attempts_new"]
    assert a["call_attempts_handoff"] == b["call_attempts_handoff"]


def test_load_scales_offered_traffic():
    lo = BssScenario(quick_cfg(load=0.5)).run()
    hi = BssScenario(quick_cfg(load=2.0)).run()
    assert hi["call_attempts_new"] > lo["call_attempts_new"]
    assert hi["data_delivered"] > lo["data_delivered"]


def test_proposed_beats_conventional_on_rt_delay():
    """The headline result at moderate-heavy load."""
    cfg = dict(sim_time=30.0, warmup=4.0, seed=3, load=1.0,
               new_voice_rate=0.3, new_video_rate=0.2,
               handoff_voice_rate=0.15, handoff_video_rate=0.1,
               mean_holding=20.0)
    p = BssScenario(ScenarioConfig(scheme="proposed", **cfg)).run()
    c = BssScenario(ScenarioConfig(scheme="conventional", **cfg)).run()
    assert p["voice_delay_mean"] < c["voice_delay_mean"]
    assert p["video_delay_mean"] < c["video_delay_mean"]


def test_analytic_bounds_exposed_for_proposed():
    r = BssScenario(quick_cfg(scheme="proposed")).run()
    assert "analytic_voice_bounds" in r
    assert all(b > 0 for b in r["analytic_voice_bounds"])


def test_jitter_within_budget_for_proposed():
    r = BssScenario(quick_cfg(scheme="proposed", sim_time=20.0)).run()
    # expired packets are dropped, so observed jitter of delivered
    # packets stays within the voice jitter budget
    assert r["worst_voice_jitter"] <= 0.03 + 1e-9


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scheme="bogus")
    with pytest.raises(ValueError):
        ScenarioConfig(sim_time=1.0, warmup=2.0)
    with pytest.raises(ValueError):
        ScenarioConfig(load=0)


def test_offered_load_estimate_positive_and_monotone():
    a = quick_cfg(load=1.0)
    b = quick_cfg(load=2.0)
    assert 0 < a.offered_load_bps() < b.offered_load_bps()
    assert a.normalized_load() < 1.0


def test_crashing_traffic_source_fails_the_run(monkeypatch):
    # a source body that raises must abort the run, not silently stop
    # emitting while the scenario still returns a row
    from repro.traffic.data import PoissonDataSource

    def crashing(self):
        yield 0.5
        raise RuntimeError("source crashed")

    monkeypatch.setattr(PoissonDataSource, "_run", crashing)
    with pytest.raises(RuntimeError, match="source crashed"):
        BssScenario(quick_cfg(sim_time=3.0, warmup=1.0)).run()


def _queued_at_horizon(monkeypatch, release: bool):
    """Run a saturated point; returns weak references to the packets
    still queued in a transmitter when the run ended, and the scenario
    (released as usual, or not at all)."""
    refs = []
    original = BssScenario._release

    def recording(self):
        refs.extend(
            weakref.ref(entry.frame.packet)
            for station in self.data_stations
            for entry in station.dcf._queue
        )
        if release:
            original(self)

    monkeypatch.setattr(BssScenario, "_release", recording)
    scenario = BssScenario(ScenarioConfig(
        scheme="conventional", seed=3, sim_time=1.0, warmup=0.2,
        n_data_stations=16, load=6.0,
        new_voice_rate=0.0, new_video_rate=0.0,
        handoff_voice_rate=0.0, handoff_video_rate=0.0,
    ))
    scenario.run()
    return refs, scenario


def test_finished_run_frees_its_backlog_without_the_cyclic_collector(monkeypatch):
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs, scenario = _queued_at_horizon(monkeypatch, release=True)
        assert refs, "the point must leave packets queued at the horizon"
        del scenario
        assert all(ref() is None for ref in refs)
        # without the release the same packets outlive the scenario
        refs, scenario = _queued_at_horizon(monkeypatch, release=False)
        assert refs
        del scenario
        assert all(ref() is not None for ref in refs)
    finally:
        if enabled:
            gc.enable()
        gc.collect()


def test_release_keeps_the_row_and_the_counters():
    config = quick_cfg(sim_time=4.0, warmup=1.0, n_data_stations=4, load=3.0)
    scenario = BssScenario(config)
    row = scenario.run()
    after = [dataclasses.asdict(st.dcf.stats) for st in scenario.data_stations]
    assert scenario.sim.peek() == float("inf")
    assert all(st.dcf.pending <= 1 for st in scenario.data_stations)
    again = BssScenario(config)
    again._release = lambda: None
    assert again.run() == row
    assert [dataclasses.asdict(st.dcf.stats) for st in again.data_stations] == after
