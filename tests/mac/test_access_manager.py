"""The per-channel access manager: one listener, one agenda entry."""

import sys

import pytest

from repro.mac import DcfTransmitter, Frame, FrameType
from repro.mac.backoff import LEVEL_NEW_OR_DATA, StandardBEB
from repro.mac.dcf import ChannelAccessManager
from repro.network.bss import BssScenario, ScenarioConfig
from repro.phy import ChannelListener
from repro.sim.engine import TimerHandle

from .conftest import FixedBackoff, MacWorld


def make_tx(world, sid, slots):
    return DcfTransmitter(
        world.sim, world.channel, world.timing, FixedBackoff(list(slots)),
        world.rng(sid), sid, world.nav,
    )


def data_frame(sid, bits=8000):
    return Frame(FrameType.DATA, src=sid, dest="ap", payload_bits=bits)


def live_backoff_entries(world):
    manager = world.channel.access_manager
    return [
        item for _t, _p, _s, item in world.sim._heap
        if isinstance(item, TimerHandle) and not item.cancelled
        and item._fn == manager._expire
    ]


def test_one_manager_is_the_channels_only_dcf_listener(world):
    stations = [make_tx(world, f"s{i}", [i]) for i in range(5)]
    manager = world.channel.access_manager
    assert isinstance(manager, ChannelAccessManager)
    assert ChannelAccessManager.of(world.channel) is manager
    assert world.channel._listeners == [manager]
    for tx in stations:
        assert not isinstance(tx, ChannelListener)
        assert not any(isinstance(v, TimerHandle) for v in vars(tx).values())


def test_armed_stations_share_one_agenda_entry(world):
    stations = [make_tx(world, f"s{i}", [3 + i]) for i in range(5)]
    for tx in stations:
        tx.enqueue(data_frame(tx.station_id), LEVEL_NEW_OR_DATA)
    entries = live_backoff_entries(world)
    assert len(entries) == 1
    t = world.timing
    assert entries[0].time == pytest.approx(t.difs + 3 * t.slot)
    world.sim.run()
    assert all(tx.stats.successes == 1 for tx in stations)
    # each loser froze twice per exchange that won ahead of it: on the
    # DATA frame and, re-armed in the SIFS gap, on its ACK
    assert [tx.stats.busy_freezes for tx in stations] == [0, 2, 4, 6, 8]


def test_equal_draws_expire_together_and_collide(world):
    a = make_tx(world, "a", [2, 1])
    b = make_tx(world, "b", [2, 4])
    a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA)
    b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA)
    before = world.sim.events_processed
    world.sim.run(until=world.timing.difs + 2 * world.timing.slot)
    # one agenda fire ran both due stations, in arm order
    assert world.sim.events_processed - before == 1
    assert a.stats.attempts == b.stats.attempts == 1
    world.sim.run()
    assert a.stats.failures == b.stats.failures == 1
    assert a.stats.successes == b.stats.successes == 1


def test_departing_station_is_disarmed_and_the_entry_moves(world):
    a = make_tx(world, "a", [1])
    b = make_tx(world, "b", [6])
    a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA)
    b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA)
    assert live_backoff_entries(world)[0].time == pytest.approx(
        world.timing.difs + world.timing.slot
    )
    a.shutdown()
    assert world.channel.access_manager._members == [b]
    # the entry moved from a's expiry to b's
    assert [e.time for e in live_backoff_entries(world)] == [
        pytest.approx(world.timing.difs + 6 * world.timing.slot)
    ]
    world.sim.run()
    assert a.stats.attempts == 0
    assert b.stats.successes == 1 and b.stats.busy_freezes == 0


def _dense(n: int) -> ScenarioConfig:
    return ScenarioConfig(
        scheme="conventional", seed=3, sim_time=1.5, warmup=0.5,
        n_data_stations=n, load=6.0,
        new_voice_rate=0.0, new_video_rate=0.0,
        handoff_voice_rate=0.0, handoff_video_rate=0.0,
    )


def _structure(n: int) -> tuple[int, float]:
    """(channel listeners, agenda pushes per transmitted frame)."""
    scenario = BssScenario(_dense(n))
    channel = scenario.channel
    frames = 0
    transmit = channel.transmit

    def counting_transmit(*args, **kwargs):
        nonlocal frames
        frames += 1
        return transmit(*args, **kwargs)

    channel.transmit = counting_transmit
    seq = scenario.sim._seq
    scenario.run()
    return len(channel._listeners), (scenario.sim._seq - seq) / frames


def test_per_frame_structure_does_not_grow_with_station_count():
    listeners_4, pushes_4 = _structure(4)
    listeners_32, pushes_32 = _structure(32)
    assert listeners_32 == listeners_4
    # what remains growing is the offered load itself (every station
    # runs its own arrival process), not the contention machinery
    assert pushes_32 <= 1.5 * pushes_4


def test_station_that_left_mid_exchange_contends_deaf(world):
    # a and b collide; a leaves while its frame is on the air, fails,
    # and re-contends without hearing the medium: b's transmission does
    # not freeze it, so it transmits into b's frame
    a = make_tx(world, "a", [0, 5])
    b = make_tx(world, "b", [0, 2])
    a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA)
    b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA)
    world.sim.call_at(world.timing.difs + 1e-5, a.shutdown)
    world.sim.run(until=0.05)
    assert (a.stats.attempts, a.stats.failures, a.stats.busy_freezes) == (2, 2, 0)
    assert (b.stats.attempts, b.stats.failures, b.stats.successes) == (3, 2, 1)


def _edge_pair_work(n: int) -> tuple[int, int]:
    """(station attribute reads and writes, Python calls) the manager
    makes over one busy edge plus one idle edge, with ``n`` plain-BEB
    stations counting in one cohort."""
    world = MacWorld()
    touches = [0]

    class Counting(DcfTransmitter):
        def __getattribute__(self, name):
            touches[0] += 1
            return object.__getattribute__(self, name)

        def __setattr__(self, name, value):
            touches[0] += 1
            object.__setattr__(self, name, value)

    policy = StandardBEB()
    stations = [
        Counting(world.sim, world.channel, world.timing, policy,
                 world.rng(f"s{i}"), f"s{i}", world.nav)
        for i in range(n)
    ]
    foreign = object()  # a sender that is not a DCF station
    frame = Frame(FrameType.ACK, src="x", dest="y")
    airtime = frame.airtime(world.timing)
    # the stations queue a frame while the medium is busy, so the idle
    # edge that ends it resumes them all as one cohort
    world.channel.transmit(frame, airtime, foreign)
    for tx in stations:
        tx.enqueue(data_frame(tx.station_id), LEVEL_NEW_OR_DATA)
    world.sim.run(until=airtime)
    assert all(tx._cohort is not None for tx in stations)
    # SIFS later another frame freezes them (no slot counted yet), and
    # its end resumes them: the edge pair of a DATA/ACK exchange
    calls = [0]

    def count_calls(frame, event, arg):
        if event == "call":
            calls[0] += 1

    def busy_edge():
        touches[0] = 0
        sys.setprofile(count_calls)
        world.channel.transmit(frame, airtime, foreign)

    start = world.sim.now + world.timing.sifs
    world.sim.call_at(start, busy_edge)
    try:
        # runs the busy edge and, at the frame's end, the idle edge
        world.sim.run(until=start + airtime)
    finally:
        sys.setprofile(None)
    work = touches[0], calls[0]
    assert not world.channel._active
    assert all(tx._cohort is not None for tx in stations)
    assert all(tx.stats.busy_freezes == 1 for tx in stations)
    return work


def test_edge_pair_work_does_not_grow_with_station_count():
    touches_4, calls_4 = _edge_pair_work(4)
    touches_32, calls_32 = _edge_pair_work(32)
    # one busy edge and one idle edge cost the same at 32 stations as
    # at 4: no station is visited on its own
    assert touches_32 == touches_4
    assert calls_32 == calls_4
