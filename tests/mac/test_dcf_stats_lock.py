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
import hashlib
import json
import pathlib

import pytest

from repro.core.edcf import AifsDifferentiation
from repro.faults import FaultPlan, FrameLossRule, StationFault
from repro.mac import BROADCAST, Frame, FrameType, Nav
from repro.mac.dcf import DcfTransmitter
from repro.network import bss as bss_module
from repro.network import calls as calls_module
from repro.network.bss import BssScenario, ScenarioConfig
from repro.phy import BitErrorModel, Channel, PhyTiming
from repro.sim import RandomStreams, Simulator

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


class _BeaconSource:
    """Opens a NAV period every ``period`` seconds with a BEACON and
    closes it early with a CF-End, except that every third CF-End is
    never sent (the stations' NAV then runs out on its own)."""

    def __init__(self, sim, channel, timing, nav, period, nav_duration):
        self.sim = sim
        self.channel = channel
        self.timing = timing
        self.nav = nav
        self.period = period
        self.nav_duration = nav_duration
        self.beacons = 0
        sim.call_in(period, self._beacon)

    def _beacon(self) -> None:
        self.beacons += 1
        self.nav.set(self.sim.now + self.nav_duration)
        frame = Frame(
            FrameType.BEACON, src="pc", dest=BROADCAST,
            nav_duration=self.nav_duration,
        )
        self.channel.transmit(frame, frame.airtime(self.timing), self, self._sent)
        self.sim.call_in(self.period, self._beacon)

    def _sent(self, outcome) -> None:
        if self.beacons % 3:
            self.sim.call_in(self.nav_duration / 3, self._cf_end)

    def _cf_end(self) -> None:
        frame = Frame(FrameType.CF_END, src="pc", dest=BROADCAST)
        self.channel.transmit(frame, frame.airtime(self.timing), self)


class _RecordingAifs(AifsDifferentiation):
    """An observing policy: logs every slot observation, in order."""

    def __init__(self, timing: PhyTiming) -> None:
        super().__init__(timing, aifs_slots=(0, 2, 4), cw_min=16)
        self.log: list[tuple[int, int, bool]] = []

    def observe_span(self, start: int, end: int, interrupted: bool) -> None:
        self.log.append((start, end, interrupted))


def _aifs_world() -> dict:
    """Stations waiting different AIFS on one channel, plus observers.

    Nine stations share one :class:`AifsDifferentiation` policy, three
    at each level (0, 2 and 4 extra slots before counting), so the
    stations that resume on one idle edge begin counting at three
    different instants.  Two more stations, at levels 1 and 2, share an
    observing policy that logs every slot observation; the log's digest
    locks the order of both stations' observations.  Stations 0, 3, 6,
    9 and 10 are saturated; the others get Poisson arrivals (immediate
    access and mid-idle arms).  A beacon source sets the NAV every
    40 ms.  The run lasts 12 s so that expiry instants pass 8 s, where
    one float ulp exceeds the due-slack and two AIFS classes can miss a
    co-expiry by one rounding step.
    """
    sim = Simulator()
    streams = RandomStreams(21)
    timing = PhyTiming()
    channel = Channel(sim, BitErrorModel(1e-5, streams.get("channel")))
    nav = Nav()
    aifs = AifsDifferentiation(timing, aifs_slots=(0, 2, 4), cw_min=16)
    observer = _RecordingAifs(timing)
    completions: list[tuple[str, bool, float]] = []

    def station(i: int, policy, level: int, saturated: bool) -> DcfTransmitter:
        sid = f"sta/{i}"
        tx = DcfTransmitter(
            sim, channel, timing, policy, streams.get(sid), sid, nav,
            retry_limit=5,
        )
        bits = 2000 + 1500 * (i % 4)

        def send() -> None:
            frame = Frame(FrameType.DATA, src=sid, dest="ap", payload_bits=bits)
            tx.enqueue(frame, level, done)

        def done(success: bool) -> None:
            completions.append((sid, success, sim.now))
            if saturated:
                send()

        if saturated:
            sim.call_in(0.001 * i, send)
        else:
            arrivals = streams.get(f"arrivals/{sid}")

            def arrive() -> None:
                send()
                sim.call_in(float(arrivals.exponential(0.01)), arrive)

            sim.call_in(float(arrivals.exponential(0.01)), arrive)
        return tx

    stations = [station(i, aifs, i // 3, i % 3 == 0) for i in range(9)]
    stations.append(station(9, observer, 1, True))
    stations.append(station(10, observer, 2, True))
    beacons = _BeaconSource(sim, channel, timing, nav, 0.04, 0.006)
    sim.run(until=12.0)
    digest = hashlib.sha256(repr(completions).encode()).hexdigest()
    row = {
        "beacons": beacons.beacons,
        "busy_time": channel.busy_time,
        "completions": len(completions),
        "completions_sha256": digest,
        "events_processed": sim.events_processed,
        "observations": len(observer.log),
        "observations_sha256": hashlib.sha256(
            repr(observer.log).encode()
        ).hexdigest(),
    }
    dcf = {tx.station_id: dataclasses.asdict(tx.stats) for tx in stations}
    return json.loads(json.dumps({"row": row, "dcf": dcf}))


#: name -> function that runs a channel-level world (not a BssScenario)
WORLD_CASES = {
    "aifs_levels_with_observer": _aifs_world,
}


def run_case(name: str, monkeypatch: pytest.MonkeyPatch | None = None) -> dict:
    """Run one case; returns ``{"row": ..., "dcf": {station: stats}}``."""
    if name in WORLD_CASES:
        return WORLD_CASES[name]()
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


ALL_CASES = sorted([*CASES, *WORLD_CASES])


def generate() -> dict:
    return {name: run_case(name) for name in ALL_CASES}


@pytest.fixture(scope="module")
def lock() -> dict:
    return json.loads(LOCK_PATH.read_text())


def test_lock_covers_every_case(lock):
    assert sorted(lock) == ALL_CASES


@pytest.mark.parametrize("name", ALL_CASES)
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
    # three AIFS classes and an observer contend, collide and freeze,
    # and the beacons left the NAV both cleared and expiring
    aifs = lock["aifs_levels_with_observer"]
    assert len(aifs["dcf"]) == 11
    for level in range(3):
        group = [aifs["dcf"][f"sta/{i}"] for i in range(3 * level, 3 * level + 3)]
        assert sum(s["busy_freezes"] for s in group) > 0
        assert sum(s["successes"] for s in group) > 0
    assert sum(s["failures"] for s in aifs["dcf"].values()) > 0
    assert aifs["row"]["observations"] > 1000
    assert aifs["row"]["beacons"] > 100


if __name__ == "__main__":
    LOCK_PATH.parent.mkdir(exist_ok=True)
    LOCK_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {LOCK_PATH}")
