"""Unit tests for named RNG streams."""

import pytest

from repro.sim import RandomStreams


def test_same_name_same_object():
    streams = RandomStreams(1)
    assert streams.get("a") is streams.get("a")


def test_reproducible_across_instances():
    a = RandomStreams(42).get("chan").random(5)
    b = RandomStreams(42).get("chan").random(5)
    assert list(a) == list(b)


def test_different_names_differ():
    streams = RandomStreams(42)
    a = streams.get("x").random(5)
    b = streams.get("y").random(5)
    assert list(a) != list(b)


def test_different_seeds_differ():
    a = RandomStreams(1).get("x").random(5)
    b = RandomStreams(2).get("x").random(5)
    assert list(a) != list(b)


def test_fork_is_deterministic_and_distinct():
    base = RandomStreams(7)
    f1 = base.fork(0)
    f2 = RandomStreams(7).fork(0)
    assert f1.master_seed == f2.master_seed
    assert f1.master_seed != base.master_seed


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)


def test_contains_reflects_created_streams():
    streams = RandomStreams(0)
    assert "a" not in streams
    streams.get("a")
    assert "a" in streams
