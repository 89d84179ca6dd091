"""Online statistics: Welford accumulators, jitter tracking, windowed ratios."""

from __future__ import annotations

import math

__all__ = ["OnlineStats", "JitterTracker", "WindowedRatio"]


class OnlineStats:
    """Numerically stable running mean/variance/extrema (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Fold one observation in."""
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean (inf below two observations)."""
        if self.count < 2:
            return math.inf
        return math.sqrt(self.variance / self.count)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two accumulators (parallel Welford merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        n = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / n
        self._mean += delta * other.count / n
        self.count = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class JitterTracker:
    """Per-source packet jitter, as the paper defines it.

    "Jitter is defined to be the difference between the time of two
    successive departures and the time of two successive arrivals":
    for consecutive delivered packets ``j = |(d_k - d_{k-1}) -
    (a_k - a_{k-1})|``.

    The chain resets across talk spurts (arrival gaps longer than
    ``spurt_gap``): a voice playout restarts after a silence, so the
    jitter of two packets separated by seconds of silence is not a
    meaningful quantity — and Theorem 1's bound only speaks about
    packets inside the token-serviced stream.
    """

    __slots__ = ("stats", "spurt_gap", "_last_arrival", "_last_departure")

    def __init__(self, spurt_gap: float = 0.5) -> None:
        if spurt_gap <= 0:
            raise ValueError(f"spurt_gap must be > 0, got {spurt_gap}")
        self.stats = OnlineStats()
        self.spurt_gap = spurt_gap
        self._last_arrival: float | None = None
        self._last_departure: float | None = None

    def delivered(self, arrival: float, departure: float) -> None:
        """Record one successfully delivered packet."""
        if departure < arrival:
            raise ValueError(f"departure {departure} before arrival {arrival}")
        if (
            self._last_arrival is not None
            and arrival - self._last_arrival > self.spurt_gap
        ):
            self.reset_stream()
        if self._last_arrival is not None:
            inter_a = arrival - self._last_arrival
            inter_d = departure - self._last_departure
            self.stats.add(abs(inter_d - inter_a))
        self._last_arrival = arrival
        self._last_departure = departure

    def reset_stream(self) -> None:
        """Break the chain (e.g. after a talk spurt ends)."""
        self._last_arrival = None
        self._last_departure = None

    @property
    def max_jitter(self) -> float:
        return self.stats.max if self.stats.count else 0.0


class WindowedRatio:
    """Ratio of events to trials with exponential forgetting.

    Used for the adaptation feedback (dropping/blocking probability
    over the recent past) while also keeping all-time totals for the
    final report.  Exponential decay, rather than a hard restart,
    matters when trials are sparse: a window with zero call attempts
    must not read as "probability zero" and trick the bandwidth
    manager into reclaiming the channels a moment after it grew them.
    """

    __slots__ = ("events", "trials", "total_events", "total_trials")

    def __init__(self) -> None:
        self.events = 0.0
        self.trials = 0.0
        self.total_events = 0
        self.total_trials = 0

    def record(self, event: bool) -> None:
        """One trial, flagged if it was an 'event' (drop/block/...)."""
        self.trials += 1.0
        self.total_trials += 1
        if event:
            self.events += 1.0
            self.total_events += 1

    def ratio(self) -> float:
        """Flagged fraction of the (decayed) recent trials (0 if empty)."""
        return self.events / self.trials if self.trials else 0.0

    def total_ratio(self) -> float:
        """All-time event fraction (0 if no trials)."""
        return self.total_events / self.total_trials if self.total_trials else 0.0

    def decay(self, gamma: float = 0.7) -> None:
        """Age the window: past observations keep ``gamma`` weight."""
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must be in [0,1), got {gamma}")
        self.events *= gamma
        self.trials *= gamma

    def restart_window(self) -> None:
        """Forget the recent past entirely (totals keep running)."""
        self.events = 0.0
        self.trials = 0.0
