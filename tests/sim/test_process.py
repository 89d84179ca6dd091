"""Unit tests for generator processes: numeric waits, stops, failures."""

import pytest

from repro.sim import Simulator


def test_process_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def body():
        yield 2.0
        seen.append(sim.now)
        yield 3.0
        seen.append(sim.now)

    sim.process(body())
    sim.run()
    assert seen == [2.0, 5.0]


def test_exception_escaping_process_propagates_out_of_run():
    sim = Simulator()
    later = []

    def body():
        yield 1.0
        raise KeyError("inner")

    sim.process(body())
    sim.call_at(2.0, later.append, "fired")
    with pytest.raises(KeyError):
        sim.run()
    # the run stopped at the failing step: nothing after it fired
    assert sim.now == 1.0
    assert later == []


def test_stopped_body_never_resumes():
    sim = Simulator()
    seen = []

    def body():
        try:
            yield 5.0
            seen.append("resumed")
        finally:
            seen.append(("closed", sim.now))

    proc = sim.process(body())
    sim.call_in(1.0, proc.stop)
    sim.run()
    assert seen == [("closed", 1.0)]
    assert sim.now == 1.0


def test_stop_is_idempotent_and_safe_after_exit():
    sim = Simulator()

    def body():
        yield 1.0

    proc = sim.process(body())
    sim.run()
    proc.stop()
    proc.stop()
    stopped_early = sim.process(body())
    stopped_early.stop()
    stopped_early.stop()
    sim.run()
    assert sim.now == 1.0


def test_exits_and_stale_wakeups_are_not_fires():
    sim = Simulator()

    def body(steps):
        for _ in range(steps):
            yield 1.0

    sim.process(body(3))  # start + 3 wake-ups, the last one exits
    stopped = sim.process(body(10))
    sim.call_at(2.5, stopped.stop)  # start + 2 wake-ups + the stop
    sim.run()
    assert sim.events_processed == 4 + 3 + 1


def test_yielding_garbage_raises_typeerror_in_process():
    sim = Simulator()
    caught = []

    def body():
        try:
            yield "nonsense"
        except TypeError as exc:
            caught.append("typed")

    sim.process(body())
    sim.run()
    assert caught == ["typed"]


def test_unhandled_garbage_yield_propagates_out_of_run():
    sim = Simulator()

    def body():
        yield None

    sim.process(body())
    with pytest.raises(TypeError):
        sim.run()


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_start_is_deterministic_in_creation_order():
    sim = Simulator()
    seen = []

    def body(tag):
        seen.append(tag)
        yield 0.0

    sim.process(body("a"))
    sim.process(body("b"))
    sim.run()
    assert seen[:2] == ["a", "b"]


def test_two_processes_interleave():
    sim = Simulator()
    seen = []

    def ping():
        for _ in range(3):
            yield 2.0
            seen.append(("ping", sim.now))

    def pong():
        yield 1.0
        for _ in range(3):
            yield 2.0
            seen.append(("pong", sim.now))

    sim.process(ping())
    sim.process(pong())
    sim.run()
    assert seen == [
        ("ping", 2.0), ("pong", 3.0),
        ("ping", 4.0), ("pong", 5.0),
        ("ping", 6.0), ("pong", 7.0),
    ]
