"""Behaviour lock on the DCF contention machinery.

``data/dcf_stats_lock.json`` holds, for a handful of scenarios, every
:class:`~repro.mac.dcf.DcfStats` field of every station the run ever
created (call stations included, departed or not) plus the full result
row.  Any change to *when* a backoff counter freezes, resumes or
expires, or to the order in which the stations' draws and channel
observations happen, moves at least one of these numbers.

``events_processed`` is the one row field excluded from the comparison:
it counts agenda fires, and how many agenda entries the contention
machinery needs to reach the same logical moments is an implementation
detail, not behaviour.

Regenerate deliberately (and explain why in CHANGES.md) with::

    PYTHONPATH=src python -m tests.mac.test_dcf_stats_lock
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.faults import FaultPlan, FrameLossRule, StationFault
from repro.mac.dcf import DcfTransmitter
from repro.network import bss as bss_module
from repro.network import calls as calls_module
from repro.network.bss import BssScenario, ScenarioConfig

LOCK_PATH = pathlib.Path(__file__).parent / "data" / "dcf_stats_lock.json"

#: row fields the lock does not compare (see module docstring)
UNLOCKED_ROW_FIELDS = ("events_processed",)


def _dense(n: int) -> ScenarioConfig:
    return ScenarioConfig(
        scheme="conventional", seed=11, sim_time=1.5, warmup=0.5,
        n_data_stations=n, load=6.0,
        new_voice_rate=0.0, new_video_rate=0.0,
        handoff_voice_rate=0.0, handoff_video_rate=0.0,
    )


def _quickstart() -> ScenarioConfig:
    # the quickstart point: adaptive CW shared by every station
    return ScenarioConfig(
        scheme="proposed", seed=1, sim_time=12.0, warmup=2.0, load=1.0,
        new_voice_rate=0.3, new_video_rate=0.2,
        handoff_voice_rate=0.15, handoff_video_rate=0.1,
        mean_holding=20.0, n_data_stations=4,
    )


def _faulted() -> ScenarioConfig:
    # short calls (station departures mid-run), CFP beacons from the
    # proposed AP, lost CF-Ends (stations fall back to NAV expiry) and
    # crashed/frozen terminals, next to saturated data stations
    return ScenarioConfig(
        scheme="proposed", seed=5, sim_time=10.0, warmup=1.0, load=2.0,
        new_voice_rate=0.4, new_video_rate=0.2,
        handoff_voice_rate=0.2, handoff_video_rate=0.1,
        mean_holding=3.0, n_data_stations=6,
        faults=FaultPlan(
            frame_loss=(FrameLossRule("cf_end", 0.5), FrameLossRule("ack", 0.05)),
            station_faults=(
                StationFault(at=2.0, mode="crash", duration=1.0),
                StationFault(at=3.5, mode="freeze", duration=0.5),
                StationFault(at=5.0, mode="crash"),
            ),
        ),
    )


def _neighborhood() -> ScenarioConfig:
    # handoffs come from the neighbourhood birth-death model instead of
    # the Poisson streams: resident calls are bodies that end (call over
    # or crossed into the cell) while births keep running
    return ScenarioConfig(
        scheme="proposed", seed=3, sim_time=10.0, warmup=1.0, load=2.0,
        new_voice_rate=0.2, new_video_rate=0.1,
        handoff_voice_rate=0.3, handoff_video_rate=0.2,
        mean_holding=4.0, n_data_stations=3, mobility="neighborhood",
    )


def _voice_video_departures() -> ScenarioConfig:
    # many short voice and video calls, new and handed off: every call
    # that ends stops its traffic source mid-wait
    return ScenarioConfig(
        scheme="proposed", seed=7, sim_time=15.0, warmup=1.0, load=2.0,
        new_voice_rate=0.8, new_video_rate=0.4,
        handoff_voice_rate=0.4, handoff_video_rate=0.2,
        mean_holding=2.5, n_data_stations=2,
    )


#: name -> (config, RTS threshold in payload bits applied to every station)
CASES: dict[str, tuple[ScenarioConfig, float]] = {
    "conventional_n4_load6": (_dense(4), float("inf")),
    "conventional_n32_load6": (_dense(32), float("inf")),
    "proposed_quickstart": (_quickstart(), float("inf")),
    "conventional_n8_rts": (_dense(8), 4000.0),
    "proposed_faulted_departures": (_faulted(), float("inf")),
    "proposed_neighborhood_mobility": (_neighborhood(), float("inf")),
    "proposed_voice_video_departures": (_voice_video_departures(), float("inf")),
}


def run_case(name: str, monkeypatch: pytest.MonkeyPatch | None = None) -> dict:
    """Run one case; returns ``{"row": ..., "dcf": {station: stats}}``."""
    config, rts_threshold = CASES[name]
    created: list[DcfTransmitter] = []

    class Recording(DcfTransmitter):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.rts_threshold = rts_threshold
            created.append(self)

    patch = monkeypatch or pytest.MonkeyPatch()
    try:
        patch.setattr(bss_module, "DcfTransmitter", Recording)
        patch.setattr(calls_module, "DcfTransmitter", Recording)
        row = BssScenario(config).run()
    finally:
        if monkeypatch is None:
            patch.undo()
    dcf = {tx.station_id: dataclasses.asdict(tx.stats) for tx in created}
    assert len(dcf) == len(created), "station ids must be unique"
    return json.loads(json.dumps({"row": row, "dcf": dcf}))


def generate() -> dict:
    return {name: run_case(name) for name in CASES}


@pytest.fixture(scope="module")
def lock() -> dict:
    return json.loads(LOCK_PATH.read_text())


def test_lock_covers_every_case(lock):
    assert sorted(lock) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dcf_stats_and_row_match_the_lock(name, lock, monkeypatch):
    got = run_case(name, monkeypatch)
    want = lock[name]
    assert got["dcf"] == want["dcf"]
    row = {k: v for k, v in got["row"].items() if k not in UNLOCKED_ROW_FIELDS}
    ref = {k: v for k, v in want["row"].items() if k not in UNLOCKED_ROW_FIELDS}
    assert row == ref


def test_lock_exercises_what_it_claims(lock):
    # a lock that never freezes, collides, handshakes or loses a
    # station locks nothing
    dense = lock["conventional_n32_load6"]["dcf"]
    assert len(dense) == 32
    assert sum(s["busy_freezes"] for s in dense.values()) > 0
    assert sum(s["failures"] for s in dense.values()) > 0
    rts = lock["conventional_n8_rts"]["dcf"]
    assert sum(s["rts_handshakes"] for s in rts.values()) > 0
    faulted = lock["proposed_faulted_departures"]
    calls = [sid for sid in faulted["dcf"] if not sid.startswith("data/")]
    assert len(calls) > 10
    assert faulted["row"]["faults"]["cf_ends_lost"] > 0
    # every handoff of the neighbourhood case was injected by mobility
    roaming = lock["proposed_neighborhood_mobility"]["row"]
    assert roaming["call_attempts_handoff"] > 10
    departures = lock["proposed_voice_video_departures"]
    calls = [sid for sid in departures["dcf"] if not sid.startswith("data/")]
    assert len(calls) > 40
    assert departures["row"]["voice_delivered"] > 0
    assert departures["row"]["video_delivered"] > 0


if __name__ == "__main__":
    LOCK_PATH.parent.mkdir(exist_ok=True)
    LOCK_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {LOCK_PATH}")
