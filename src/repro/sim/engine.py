"""The discrete-event simulation core.

:class:`Simulator` owns the clock and the agenda (a binary heap of
:class:`TimerHandle` entries keyed by ``(time, priority, sequence)``).
Everything that happens is a timer callback: ``sim.call_at(t, fn)`` /
``sim.call_in(dt, fn)``.  Generator bodies spawned with
:meth:`Simulator.process` are driven by the same handles — each numeric
yield schedules the body's next step.

Determinism: two callbacks scheduled for the same instant fire in
``(priority, insertion order)`` — there is no reliance on hash order or
wall-clock anywhere, so a run is exactly reproducible from its seed.

Hot-path layout (see DESIGN.md "Performance"):

* :meth:`Simulator.run` inlines the agenda loop — ``heappop`` is bound
  to a local, every entry fires through its handle's ``_fire``, and
  consecutive entries at the same timestamp are batched past the
  deadline/clock bookkeeping.
* Cancelled :class:`TimerHandle` *tombstones* are counted as they are
  created; once they outnumber the live half of the heap the agenda is
  compacted in place.  Tombstones are never dispatched and never count
  toward :attr:`Simulator.events_processed` — only live fires do.
* When an observer hook is attached (``step_observer`` for the
  validation monitors, ``profiler`` for :class:`~repro.obs.profiler.
  EngineProfiler`) the loop drops to an instrumented path with
  identical semantics; a detached simulator pays nothing for either.
"""

from __future__ import annotations

import heapq
import typing

__all__ = ["Simulator", "TimerHandle", "Process", "SlabAgenda"]

#: a heap must hold at least this many cancelled entries before a
#: tombstone compaction can trigger (tiny heaps are cheaper to drain)
_COMPACT_MIN_TOMBSTONES = 16


class TimerHandle:
    """Cancellable handle returned by :meth:`Simulator.call_at`."""

    __slots__ = ("time", "_fn", "_args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: typing.Callable,
        args: tuple,
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self._fn = fn
        self._args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        The heap entry stays behind as a *tombstone*; the owning
        simulator counts it and compacts the agenda once tombstones
        outnumber live entries.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_tombstone()

    def _fire(self) -> None:
        if not self.cancelled:
            self._fn(*self._args)


class Process:
    """A generator body driven by timer handles (see :meth:`Simulator.process`).

    The body yields numbers only; each one sleeps that many time units.
    Yielding anything else throws ``TypeError`` into the body at that
    yield.  An exception that escapes the body propagates out of
    :meth:`Simulator.run`.
    """

    __slots__ = ("_sim", "_generator", "_handle")

    def __init__(self, sim: "Simulator", generator: typing.Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self._sim = sim
        self._generator = generator
        # start through the agenda, so creation order decides ordering
        self._handle: TimerHandle | None = sim.call_in(0.0, self._step)

    def stop(self) -> None:
        """Cancel the pending wake-up and close the body (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.cancel()
        self._generator.close()

    def _step(self) -> None:
        self._handle = None  # the wake-up running this step is spent
        generator = self._generator
        try:
            delay = generator.send(None)
            while not isinstance(delay, (int, float)):
                delay = generator.throw(
                    TypeError(f"process yielded {delay!r}; yield a numeric delay")
                )
        except StopIteration:
            return
        self._handle = self._sim.call_in(delay, self._step)


class SlabAgenda:
    """Array-of-structs agenda: typed numpy slabs + a heap of indices.

    The general agenda stores one Python object per entry (a timer
    handle) because callbacks are arbitrary.  The batched
    fast path (:mod:`repro.accel`) schedules only *typed* work —
    arrivals, round completions, housekeeping ticks — so its entries
    need no objects at all: each occupies one slot across three
    parallel numpy slabs (``float64`` timestamp, ``int32`` kind,
    ``int32`` owner id) and the heap orders bare ``(time, seq, slot)``
    triples.  No allocation happens per event after the slabs reach
    steady-state size; cancellation marks the slot and the pop loop
    skips it (same tombstone discipline as the object agenda).

    Determinism: ties on time pop in insertion order (``seq``), exactly
    like the object agenda's ``(time, priority, sequence)`` key with a
    single priority class.
    """

    __slots__ = ("times", "kinds", "owners", "_heap", "_free", "_seq", "_live")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        import numpy as np

        self.times = np.zeros(capacity, dtype=np.float64)
        self.kinds = np.zeros(capacity, dtype=np.int32)
        self.owners = np.zeros(capacity, dtype=np.int32)
        self._heap: list[tuple[float, int, int]] = []
        self._free = list(range(capacity - 1, -1, -1))
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def _grow(self) -> None:
        import numpy as np

        old = len(self.times)
        new = old * 2
        for name in ("times", "kinds", "owners"):
            slab = getattr(self, name)
            grown = np.zeros(new, dtype=slab.dtype)
            grown[:old] = slab
            setattr(self, name, grown)
        self._free.extend(range(new - 1, old - 1, -1))

    def push(self, time: float, kind: int, owner: int) -> int:
        """Schedule a typed entry; returns its slot (for cancel)."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.times[slot] = time
        self.kinds[slot] = kind
        self.owners[slot] = owner
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, slot))
        self._live += 1
        return slot

    def cancel(self, slot: int) -> None:
        """Tombstone a scheduled slot (idempotent for live slots)."""
        if self.kinds[slot] >= 0:
            self.kinds[slot] = -1 - self.kinds[slot]
            self._live -= 1

    def peek_time(self) -> float:
        """Time of the next live entry, or ``inf`` when empty."""
        heap = self._heap
        while heap:
            _, _, slot = heap[0]
            if self.kinds[slot] < 0:
                heapq.heappop(heap)
                self._free.append(slot)
                continue
            return heap[0][0]
        return float("inf")

    def pop(self) -> tuple[float, int, int]:
        """Pop the next live entry as ``(time, kind, owner)``.

        Raises ``IndexError`` when no live entry remains.
        """
        heap = self._heap
        kinds = self.kinds
        while True:
            time, _, slot = heapq.heappop(heap)
            if kinds[slot] < 0:
                self._free.append(slot)
                continue
            kind = int(kinds[slot])
            owner = int(self.owners[slot])
            kinds[slot] = -1
            self._free.append(slot)
            self._live -= 1
            return time, kind, owner


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).

    Examples
    --------
    >>> sim = Simulator()
    >>> out = []
    >>> def proc(sim):
    ...     yield 1.5
    ...     out.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> out
    [1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, typing.Any]] = []
        self._seq = 0
        self._running = False
        #: live agenda fires so far (telemetry for sweep runs);
        #: cancelled-timer tombstones are *not* counted
        self.events_processed = 0
        #: cancelled TimerHandle entries believed to still sit in the
        #: heap (advisory — compaction recomputes the exact set)
        self._tombstones = 0
        #: optional ``fn(time)`` called before each agenda entry fires
        #: (the validation monitors' clock-monotonicity hook)
        self.step_observer: typing.Callable[[float], None] | None = None
        #: optional :class:`repro.obs.profiler.EngineProfiler`; when
        #: attached it fires (and times) every agenda item — detached,
        #: the hot path pays one ``is None`` check
        self.profiler: typing.Any | None = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def peek(self) -> float:
        """Time of the next live scheduled occurrence, or ``inf`` if none."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                if self._tombstones:
                    self._tombstones -= 1
                continue
            return entry[0]
        return float("inf")

    # -- tombstone accounting ---------------------------------------------
    def _note_tombstone(self) -> None:
        """A timer on the agenda was cancelled; maybe compact."""
        self._tombstones = tombstones = self._tombstones + 1
        if (
            tombstones > _COMPACT_MIN_TOMBSTONES
            and tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify, in place.

        In place matters: :meth:`run` holds a local alias of the heap
        list, so the list object's identity must survive compaction.
        Entry keys are untouched, so heap order (time, priority,
        insertion sequence) is exactly preserved.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._tombstones = 0

    # -- scheduling primitives --------------------------------------------
    def call_at(
        self, time: float, fn: typing.Callable, *args: typing.Any, priority: int = 0
    ) -> TimerHandle:
        """Run ``fn(*args)`` at absolute simulation ``time``; cancellable."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past ({time} < now={self._now})"
            )
        handle = TimerHandle(time, fn, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    def call_in(
        self, delay: float, fn: typing.Callable, *args: typing.Any, priority: int = 0
    ) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` time units; cancellable."""
        # call_at's body, duplicated: this is the single most common
        # scheduling entrypoint and the extra frame is measurable
        time = self._now + delay
        if delay < 0:
            raise ValueError(
                f"cannot schedule in the past ({time} < now={self._now})"
            )
        handle = TimerHandle(time, fn, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    def process(self, generator: typing.Generator) -> Process:
        """Spawn a generator body (numeric yields only) as a process."""
        return Process(self, generator)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next *live* agenda entry.

        Cancelled-timer tombstones encountered on the way are discarded
        without firing or counting.

        Raises
        ------
        IndexError
            If the agenda holds no live entry.
        """
        heap = self._heap
        while True:
            time, _prio, _seq, item = heapq.heappop(heap)
            if item.cancelled:
                if self._tombstones:
                    self._tombstones -= 1
                continue
            break
        self._now = time
        self.events_processed += 1
        if self.step_observer is not None:
            self.step_observer(time)
        if self.profiler is not None:
            self.profiler.fire(item)
        else:
            item._fire()

    def _loop(self, deadline: float) -> None:
        """Drain the agenda up to ``deadline`` (inclusive).

        The deadline comparison is always made against the next *live*
        entry — leading tombstones are popped first, so the loop and
        :meth:`peek` agree on what the head of the agenda is.
        """
        if self.step_observer is not None or self.profiler is not None:
            self._loop_instrumented(deadline)
            return
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                entry = heap[0]
                item = entry[3]
                if item.cancelled:
                    pop(heap)
                    if self._tombstones:
                        self._tombstones -= 1
                    continue
                time = entry[0]
                if time > deadline:
                    break
                pop(heap)
                self._now = time
                processed += 1
                item._fire()
                # batch: everything else scheduled for this same instant
                # skips the deadline check and the clock write
                while heap:
                    entry = heap[0]
                    if entry[0] != time:
                        break
                    item = entry[3]
                    pop(heap)
                    if item.cancelled:
                        if self._tombstones:
                            self._tombstones -= 1
                        continue
                    processed += 1
                    item._fire()
        finally:
            self.events_processed += processed

    def _loop_instrumented(self, deadline: float) -> None:
        """Same semantics as the fast loop, one entry per :meth:`step`."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                if self._tombstones:
                    self._tombstones -= 1
                continue
            if entry[0] > deadline:
                break
            self.step()

    def clear(self) -> None:
        """Drop every pending agenda entry without firing it; the clock
        stays where it is.  For a finished run, whose entries would
        otherwise keep every component they call back alive.

        Each dropped handle reads as cancelled and lets go of its
        callback, so cancelling it again is a no-op.  Components still
        hold their handles and would take them for live timers: the run
        is over, and the simulator is not run again with them.
        """
        if self._running:
            raise RuntimeError("cannot clear the agenda while running")
        for entry in self._heap:
            handle = entry[3]
            handle.cancelled = True
            handle._sim = None
            handle._fn = None
            handle._args = ()
        self._heap.clear()
        self._tombstones = 0

    def run(self, until: float | None = None) -> None:
        """Run until the agenda drains or a deadline passes.

        Parameters
        ----------
        until:
            ``None`` — run to agenda exhaustion.  A number — run until the
            clock would pass it (the clock is then set to it).
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise ValueError(f"deadline {deadline} is in the past")
        self._running = True
        try:
            self._loop(deadline)
        finally:
            self._running = False
        if deadline != float("inf"):
            self._now = deadline
