"""The DCF engine: CSMA/CA with a pluggable backoff policy.

Two classes share the work.  A :class:`DcfTransmitter` serves one
station's contention-period traffic: its queue, its backoff draws and
retry stage, immediate access, the NAV-expiry wait, RTS/CTS and the ACK
path.  One :class:`ChannelAccessManager` per :class:`Channel` runs the
backoff countdowns of every transmitter on that channel (the ns-3
``ChannelAccessManager`` design).  The manager is the only DCF listener
on the channel, and all armed countdowns share **one** agenda entry at
the earliest expiry.

Countdowns run as **cohorts**: the stations of one IFS class (DIFS plus
the level's AIFS surcharge) that resumed on the same idle edge begin
counting at the same instant, so they count slots in lockstep.  A
cohort holds one ``begin`` and one slot ``offset``; a member's
remaining slots are its key minus the offset.  A carrier-sense edge
therefore costs one step per cohort, whatever the station count:

* **idle edge** — each cohort the last busy edge froze restarts with
  one assignment of ``begin`` (DIFS plus its AIFS surcharge after the
  medium went idle, unless the NAV blocks it), the stations that
  started waiting since the last idle edge join the cohort of their
  class, and the agenda entry is set from the cohort fronts.  Waiting
  stations the NAV blocks are parked by NAV, each on its own
  NAV-expiry timer, so an idle edge inside a contention-free period
  costs one check per NAV;
* **busy edge** — each running cohort adds the whole slots it counted
  to its offset and one freeze to its count.  A member whose counter
  hits zero exactly at this edge stays armed: it transmits in the same
  slot and collides;
* **expiry** — the due members leave the front of their cohorts and
  every station due at that instant transmits, in the order it was
  armed, so equal draws still collide.

A station is visited on its own (*solo*) only when its policy observes
slots (:attr:`BackoffPolicy.observes_slots`), when it armed mid-idle
with its own phase, or while it waits for an idle edge outside a
cohort.  A cohort member's ``idle_slots_observed`` and
``busy_freezes`` are settled from the cohort's offset and freeze count
when it leaves the cohort (expiry, beacon freeze, NAV block,
departure) and whenever :attr:`DcfTransmitter.stats` is read.

Order is kept where it is observable.  Cohort members are ordered by
(remaining slots, attach order), and every arm carries an arm epoch
(one per idle edge, one per mid-idle arm), so co-expiring stations run
in the order a listener-per-station design armed them: by epoch, then
attach order.  Solo stations hear busy edges in attach order, so the
observing policies see the same observations in the same order; a
cohort member's per-edge work (a slot subtraction and a freeze count)
commutes with everything else.  Every draw and policy observation
therefore happens at the same logical moment in the same order
(``tests/mac/test_dcf_stats_lock.py``).  The standard freeze-and-resume
semantics fall out, which the paper points out also auto-promotes
stations that have waited long.

Faithful-to-the-paper simplifications (single BSS, all stations in
range):

* the ACK a receiver would send is put on the air by the engine itself
  SIFS after a correctly received frame — behaviourally identical on a
  broadcast medium and it spares every station a full receive path;
* EIFS is not modelled (the paper never mentions it); a failed exchange
  defers for the ACK-timeout and re-contends with a doubled window.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import operator
import typing

import numpy as np

from ..phy.channel import Channel, ChannelListener, TxOutcome
from ..phy.timing import PhyTiming
from ..sim.engine import Simulator, TimerHandle
from .backoff import BackoffPolicy
from .frames import Frame, FrameType
from .nav import Nav

__all__ = ["ChannelAccessManager", "DcfTransmitter", "DcfStats"]

#: slack added when converting elapsed time to whole slots, to absorb
#: float rounding (fraction of one slot)
_SLOT_EPSILON = 1e-6

#: a counter that reaches zero within this much of a busy edge counts
#: as due at the edge (it transmits in the same slot and collides)
_DUE_SLACK = 1e-15

#: ``DcfTransmitter._waiting``: waiting for the next idle edge, or
#: parked until its NAV ends (see ``ChannelAccessManager._parked``)
_WAITING = 1
_PARKED = 2

_ATTACH_ORDER = operator.attrgetter("_attach_no")
_ARM_ORDER = operator.attrgetter("_arm_epoch", "_attach_no")


@dataclasses.dataclass
class DcfStats:
    """Counters exposed for tests and metrics."""

    enqueued: int = 0
    attempts: int = 0
    successes: int = 0
    failures: int = 0  # collided or corrupted attempts
    drops: int = 0  # frames abandoned after retry_limit
    idle_slots_observed: int = 0
    busy_freezes: int = 0
    rts_handshakes: int = 0


@dataclasses.dataclass
class _Entry:
    frame: Frame
    level: int
    on_done: typing.Callable[[bool], None] | None


class _Cohort:
    """Stations of one IFS class that count backoff slots in lockstep.

    ``members`` holds ``(key, attach_no, tx)`` in ascending order; a
    member has ``key - offset`` slots left, so the front expires first
    and members that expire together keep attach order.  ``offset`` and
    ``freezes`` only grow: a member's share of them is what they grew
    by since it joined or was last settled.  An emptied cohort is kept
    for the next stations of its class to join.
    """

    __slots__ = (
        "ifs", "slot", "nav", "begin", "offset", "freezes", "epoch",
        "running", "members",
    )

    def __init__(self, ifs: float, slot: float, nav: Nav) -> None:
        self.ifs = ifs
        self.slot = slot
        self.nav = nav
        #: when the members began counting on the last idle edge
        self.begin = 0.0
        #: whole slots every member has counted since the cohort formed
        self.offset = 0
        #: busy edges that froze the cohort
        self.freezes = 0
        #: arm epoch of the last restart (see the module docstring)
        self.epoch = 0
        #: True between an idle edge and the next busy edge
        self.running = False
        self.members: list[tuple[int, int, DcfTransmitter]] = []

    def front_expiry(self) -> float:
        return self.begin + (self.members[0][0] - self.offset) * self.slot


def _settle(tx: "DcfTransmitter", cohort: _Cohort) -> None:
    """Add the slots and freezes ``cohort`` counted for ``tx`` since
    the last settlement to its stats.  Its remaining slots drop by the
    slots settled, so its member key stays ``_slots_left`` plus the
    settled offset."""
    offset, freezes = tx._settled
    counted = cohort.offset - offset
    stats = tx._stats
    stats.idle_slots_observed += counted
    stats.busy_freezes += cohort.freezes - freezes
    tx._slots_left -= counted
    tx._settled = (cohort.offset, cohort.freezes)


def _release(tx: "DcfTransmitter", cohort: _Cohort, armed: bool = False) -> int:
    """Take ``tx`` out of ``cohort``: settle its counters, which leaves
    its remaining slots with it, and return them.  ``armed`` also arms
    it on its own at the cohort's phase.  The caller removes the
    member's entry from ``cohort.members``."""
    _settle(tx, cohort)
    tx._cohort = None
    left = tx._slots_left
    if armed:
        tx._count_begin = cohort.begin
        tx._expiry = cohort.begin + left * cohort.slot
        tx._arm_epoch = cohort.epoch
    return left


class ChannelAccessManager(ChannelListener):
    """Runs the backoff countdowns of every DCF station on one channel.

    Obtain it with :meth:`of`; each :class:`DcfTransmitter` joins the
    manager of its channel when it is built and leaves it on
    :meth:`DcfTransmitter.shutdown`.  A station that left keeps any
    countdown it arms afterwards (a departed call finishing its last
    exchange), but no longer hears busy or idle edges or frames, just as
    a detached listener would not.
    """

    def __init__(self, channel: Channel) -> None:
        self.sim = channel.sim
        self.channel = channel
        #: joined stations, in attach order
        self._members: list[DcfTransmitter] = []
        self._attached = 0
        #: countdown cohorts by (IFS, slot, NAV); an emptied cohort is
        #: kept for its class's next waiters
        self._cohorts: dict[tuple, _Cohort] = {}
        #: cohorts whose members are armed
        self._running: list[_Cohort] = []
        #: cohorts the last busy edge froze (the next idle edge restarts
        #: them); no other cohort has members between two idle edges
        self._frozen: list[_Cohort] = []
        #: armed joined stations outside any cohort, in attach order
        self._solo: list[DcfTransmitter] = []
        #: armed stations that left (they hear no edges)
        self._deaf: list[DcfTransmitter] = []
        #: joined stations that started waiting for an idle edge since
        #: the last one, outside any cohort
        self._waiting: list[DcfTransmitter] = []
        #: waiting stations that an idle edge found blocked by their
        #: NAV, by NAV: each has a NAV-expiry timer, so an idle edge
        #: looks at them only once their NAV has ended
        self._parked: dict[Nav, list[DcfTransmitter]] = {}
        #: the last arm epoch handed out
        self._epoch = 0
        #: the one agenda entry, at the earliest armed expiry
        self._timer: TimerHandle | None = None
        #: True while :meth:`_expire` runs the due stations
        self._firing = False
        channel.attach(self)

    @classmethod
    def of(cls, channel: Channel) -> "ChannelAccessManager":
        """The channel's manager, created (and attached) on first use."""
        manager = channel.access_manager
        if manager is None:
            manager = channel.access_manager = cls(channel)
        return manager

    # -- membership ----------------------------------------------------------
    @property
    def members(self) -> tuple["DcfTransmitter", ...]:
        """The joined stations, in attach order."""
        return tuple(self._members)

    def join(self, tx: "DcfTransmitter") -> None:
        self._attached += 1
        tx._attach_no = self._attached
        tx._member = True
        self._members.append(tx)

    def leave(self, tx: "DcfTransmitter") -> None:
        """Stop ``tx``'s countdown (no freeze is counted) and stop
        telling it about the medium."""
        tx._count_begin = None
        cohort = tx._cohort
        if cohort is not None:
            running = cohort.running
            self._leave_cohort(tx)
            if running:
                self._retime()
        elif tx._expiry is not None:
            tx._expiry = None
            self._solo.remove(tx)
            self._retime()
        elif tx._waiting:
            self._stop_waiting(tx)
        tx._member = False
        self._members.remove(tx)

    # -- countdowns ------------------------------------------------------------
    def arm(self, tx: "DcfTransmitter", begin: float) -> None:
        """Start ``tx``'s countdown on its own phase: it counts its
        remaining slots from ``begin``."""
        if tx._cohort is not None:
            self._leave_cohort(tx)
        elif tx._waiting:
            self._stop_waiting(tx)
        tx._count_begin = begin
        expiry = tx._expiry = begin + tx._slots_left * tx._slot
        self._epoch += 1
        tx._arm_epoch = self._epoch
        if tx._member:
            bisect.insort(self._solo, tx, key=_ATTACH_ORDER)
        else:
            self._deaf.append(tx)
        if not self._firing:
            self._advance(expiry)

    def defer(self, tx: "DcfTransmitter") -> None:
        """``tx`` contends but cannot count now (medium busy or NAV
        set): the next idle edge arms it."""
        if tx._member and tx._cohort is None and not tx._waiting:
            tx._waiting = _WAITING
            self._waiting.append(tx)

    def unpark(self, tx: "DcfTransmitter") -> None:
        """``tx``'s NAV-expiry timer fired: the next idle edge looks at
        it again (unless it arms before)."""
        self._unpark(tx)
        tx._waiting = _WAITING
        self._waiting.append(tx)

    def _unpark(self, tx: "DcfTransmitter") -> None:
        group = self._parked[tx.nav]
        group.remove(tx)
        if not group:
            del self._parked[tx.nav]

    def _unpark_ended(self, now: float) -> None:
        """The stations parked on a NAV that has ended before their
        timers fired (a CF-End cleared it, or it ends at this idle
        edge) wait for the idle edge again."""
        parked = self._parked
        for nav in [nav for nav in parked if now >= nav.until]:
            for tx in parked.pop(nav):
                tx._waiting = _WAITING
                self._waiting.append(tx)

    def _stop_waiting(self, tx: "DcfTransmitter") -> None:
        if tx._waiting == _PARKED:
            self._unpark(tx)
        else:
            self._waiting.remove(tx)
        tx._waiting = 0

    def _leave_cohort(self, tx: "DcfTransmitter") -> None:
        """Take ``tx`` out of its cohort, counters settled and its
        remaining slots handed back to it."""
        cohort = tx._cohort
        key = tx._slots_left + tx._settled[0]
        members = cohort.members
        del members[bisect.bisect_left(members, (key, tx._attach_no))]
        _release(tx, cohort)
        if not members and cohort.running:
            cohort.running = False
            self._running.remove(cohort)

    def _advance(self, expiry: float) -> None:
        """Bring the agenda entry forward to ``expiry`` if it is later."""
        timer = self._timer
        if timer is None or expiry < timer.time:
            if timer is not None:
                timer.cancel()
            self._timer = self.sim.call_at(expiry, self._expire)

    def _retime(self) -> None:
        """Move the agenda entry to the earliest armed expiry."""
        if self._firing:
            return  # _expire retimes once the due stations have run
        due = None
        for tx in self._solo:
            if due is None or tx._expiry < due:
                due = tx._expiry
        for tx in self._deaf:
            if due is None or tx._expiry < due:
                due = tx._expiry
        for cohort in self._running:
            expiry = cohort.front_expiry()
            if due is None or expiry < due:
                due = expiry
        timer = self._timer
        if timer is not None and timer.time != due:
            timer.cancel()
            self._timer = None
        if due is not None:
            self._advance(due)

    def _expire(self) -> None:
        self._timer = None
        now = self.sim._now
        due = [tx for tx in self._solo if tx._expiry <= now]
        if self._deaf:
            due += [tx for tx in self._deaf if tx._expiry <= now]
        emptied = False
        for cohort in self._running:
            # the due members leave the front of the cohort, armed on
            # their own until they run below
            members = cohort.members
            begin = cohort.begin
            slot = cohort.slot
            offset = cohort.offset
            n = 0
            for key, _attach_no, tx in members:
                if begin + (key - offset) * slot > now:
                    break
                _release(tx, cohort, armed=True)
                due.append(tx)
                n += 1
            if n:
                del members[:n]
                if not members:
                    cohort.running = False
                    emptied = True
        if emptied:
            self._running = [c for c in self._running if c.running]
        if len(due) > 1:
            due.sort(key=_ARM_ORDER)
        self._firing = True
        for tx in due:
            if tx._expiry is None:
                continue
            tx._expiry = None
            tx._count_begin = None
            tx._backoff_complete()
        self._firing = False
        # the solo stations that ran are dropped from their lists here
        # (a busy edge in between skips them)
        if self._solo:
            self._solo = [tx for tx in self._solo if tx._expiry is not None]
        if self._deaf:
            self._deaf = [tx for tx in self._deaf if tx._expiry is not None]
        self._retime()

    # -- channel listener callbacks ----------------------------------------------
    def on_medium_busy(self, now: float) -> None:
        solo = self._solo
        running = self._running
        if not solo and not running:
            return
        keep = []
        waiting = self._waiting
        # solo stations one by one in attach order (the shared adaptive
        # policy's observations depend on it); members that left are
        # not visited
        for tx in solo:
            expiry = tx._expiry
            if expiry is None:
                continue  # ran in the expiry that caused this edge
            begin = tx._count_begin
            if begin is not None:
                # DcfTransmitter._consume_elapsed_slots, inlined
                left = tx._slots_left
                elapsed = now - begin
                consumed = (
                    int(elapsed / tx._slot + _SLOT_EPSILON) if elapsed > 0 else 0
                )
                if consumed > left:
                    consumed = left
                start = tx._draw_value - left
                left -= consumed
                tx._slots_left = left
                tx._stats.idle_slots_observed += consumed
                policy = tx.policy
                if policy.observes_slots:
                    policy.observe_span(start, start + consumed, interrupted=True)
            if tx._slots_left == 0 and expiry <= now + _DUE_SLACK:
                # due exactly now: transmits in this slot too (collision)
                tx._count_begin = None
                keep.append(tx)
                continue
            tx._stats.busy_freezes += 1
            tx._expiry = None
            tx._count_begin = None
            # defer(tx), inlined: an armed solo station is a member,
            # outside any cohort and not waiting
            tx._waiting = _WAITING
            waiting.append(tx)
        if running:
            self._running = []
            due_members = False
            for cohort in running:
                if self._freeze(cohort, now, keep):
                    due_members = True
            if due_members:
                keep.sort(key=_ATTACH_ORDER)
            self._frozen = running
        self._solo = keep
        self._retime()

    def _freeze(self, cohort: _Cohort, now: float, keep: list) -> bool:
        """Busy edge for one running cohort; True if a member due at
        this edge joined ``keep``."""
        cohort.running = False
        begin = cohort.begin
        slot = cohort.slot
        elapsed = now - begin
        consumed = int(elapsed / slot + _SLOT_EPSILON) if elapsed > 0 else 0
        offset = cohort.offset
        limit = offset + consumed
        members = cohort.members
        due_here = False
        if members[0][0] <= limit:
            # counters that run out at this edge: due exactly now stays
            # armed (it transmits in this slot and collides); a counter
            # the cohort's count overshot freezes at zero on its own
            gone = 0
            for key, _attach_no, tx in members:
                if key > limit:
                    break
                left = key - offset
                due = begin + left * slot <= now + _DUE_SLACK
                if not due and left == consumed:
                    continue  # freezes at zero with the rest
                _release(tx, cohort, armed=due)
                tx._stats.idle_slots_observed += left
                tx._slots_left = 0
                gone += 1
                if due:
                    tx._count_begin = None
                    keep.append(tx)
                    due_here = True
                else:
                    tx._stats.busy_freezes += 1
                    self.defer(tx)
            if gone:
                members[:] = [m for m in members if m[2]._cohort is cohort]
        cohort.offset = limit
        cohort.freezes += 1
        return due_here

    def on_medium_idle(self, now: float) -> None:
        channel = self.channel
        if channel._active:
            return
        parked = self._parked
        if parked:
            for nav in parked:
                if now >= nav.until:
                    self._unpark_ended(now)
                    break
        frozen = self._frozen
        waiting = self._waiting
        if not frozen and not waiting:
            return
        idle_since = channel.idle_since
        self._epoch = epoch = self._epoch + 1
        earliest = None
        running = []
        if frozen:
            self._frozen = []
            for cohort in frozen:
                members = cohort.members
                if not members:
                    continue  # every member left
                if now < cohort.nav.until:  # Nav.blocked(now), inlined
                    # each member waits out the NAV on its own timer
                    cohort.members = []
                    for _key, _attach_no, tx in members:
                        _release(tx, cohort)
                        self.defer(tx)
                    continue
                # slot counting begins DIFS (plus the class's AIFS
                # surcharge) after the medium went idle
                begin = idle_since + cohort.ifs
                if begin < now:
                    begin = now
                cohort.begin = begin
                cohort.epoch = epoch
                cohort.running = True
                running.append(cohort)
                expiry = begin + (members[0][0] - cohort.offset) * cohort.slot
                if earliest is None or expiry < earliest:
                    earliest = expiry
        if waiting:
            self._waiting = []
            cohorts = self._cohorts
            untimed = None
            resumed = None
            for tx in waiting:
                nav = tx.nav
                if now < nav.until:
                    # parked until its NAV ends; it needs a NAV-expiry
                    # timer
                    tx._waiting = _PARKED
                    group = parked.get(nav)
                    if group is None:
                        parked[nav] = [tx]
                    else:
                        group.append(tx)
                    if tx._nav_timer is None:
                        if untimed is None:
                            untimed = []
                        untimed.append(tx)
                    continue
                tx._waiting = 0
                ifs = tx._head_ifs
                begin = idle_since + ifs
                if begin < now:
                    begin = now
                left = tx._slots_left
                slot = tx._slot
                expiry = begin + left * slot
                if earliest is None or expiry < earliest:
                    earliest = expiry
                if tx.policy.observes_slots:
                    tx._count_begin = begin
                    tx._expiry = expiry
                    tx._arm_epoch = epoch
                    if resumed is None:
                        resumed = []
                    resumed.append(tx)
                    continue
                key = (ifs, slot, nav)
                cohort = cohorts.get(key)
                if cohort is None:
                    cohort = cohorts[key] = _Cohort(ifs, slot, nav)
                if not cohort.running:
                    cohort.begin = begin
                    cohort.epoch = epoch
                    cohort.running = True
                    running.append(cohort)
                offset = cohort.offset
                tx._cohort = cohort
                tx._settled = (offset, cohort.freezes)
                bisect.insort(cohort.members, (left + offset, tx._attach_no, tx))
            if resumed is not None:
                # solo stations stay in attach order
                if self._solo:
                    for tx in resumed:
                        bisect.insort(self._solo, tx, key=_ATTACH_ORDER)
                else:
                    resumed.sort(key=_ATTACH_ORDER)
                    self._solo = resumed
            if untimed is not None:
                # NAV-expiry timers are created in attach order
                untimed.sort(key=_ATTACH_ORDER)
                for tx in untimed:
                    tx._nav_timer = self.sim.call_at(tx.nav.until, tx._nav_expired)
        self._running = running
        if earliest is not None:
            self._advance(earliest)

    def on_frame(self, frame: Frame, ok: bool, now: float) -> None:
        # beacons and CF-Ends come from the point coordinator, never
        # from a member, so every member hears them
        if not ok:
            return
        ftype = frame.ftype
        if ftype is FrameType.BEACON:
            # the beacon's own busy edge froze every cohort, and none
            # restarts before the idle edge that follows this fan-out;
            # only solo stations can have armed since
            assert not self._running
            until = now + frame.nav_duration
            froze = False
            for tx in self._members:
                tx.nav.set(until)
                if tx._expiry is not None:
                    tx._consume_elapsed_slots(now)
                    tx._expiry = None
                    tx._count_begin = None
                    self.defer(tx)
                    froze = True
            if froze:
                self._solo = []
                self._retime()
        elif ftype is FrameType.CF_END:
            # the idle edge that follows the CF-End re-arms the members
            for tx in self._members:
                tx.nav.clear(now)


class DcfTransmitter:
    """CSMA/CA contention engine for a single station.

    Parameters
    ----------
    sim, channel, timing:
        Simulation substrate.
    policy:
        Backoff policy (standard BEB or the paper's priority scheme).
    rng:
        This station's random stream.
    station_id:
        Identifier stamped on outgoing frames.
    nav:
        The BSS-wide NAV (shared with all other stations).
    retry_limit:
        Attempts before a frame is dropped (802.11 long-retry default 7).
    rts_threshold:
        DATA frames whose payload exceeds this many bits are protected
        by an RTS/CTS handshake, so a collision costs only the short
        RTS instead of the whole frame.  (In this single-BSS model —
        no hidden terminals, per the paper — that collision-cost
        reduction is RTS/CTS's only effect.)  Default: disabled.
    """

    #: optional :class:`repro.obs.trace.TraceRecorder` (``backoff``); a
    #: class default, so only a traced station holds the attribute
    trace = None

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        timing: PhyTiming,
        policy: BackoffPolicy,
        rng: np.random.Generator,
        station_id: str,
        nav: Nav,
        retry_limit: int = 7,
        rts_threshold: float = float("inf"),
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.timing = timing
        self.policy = policy
        self.rng = rng
        self.station_id = station_id
        self.nav = nav
        self.retry_limit = retry_limit
        self.rts_threshold = rts_threshold
        self._stats = DcfStats()

        # hot-path constants: the slot comes from the (immutable) timing
        # bundle, and the per-level IFS memo assumes the policy's AIFS
        # surcharge is a static QoS parameter (it is, for every policy
        # in this repo — see DESIGN.md "Performance").  Keep the
        # instance under 30 attributes: CPython 3.11 stops sharing
        # instance-dict keys at 30, and every attribute access gets
        # slower (tests/mac/test_dcf.py)
        self._slot = timing.slot
        self._ifs_memo: dict[int, float] = {}

        self._queue: collections.deque[_Entry] = collections.deque()
        self._head: _Entry | None = None
        #: DIFS plus AIFS surcharge of the head frame's level
        self._head_ifs = 0.0
        self._stage = 0
        #: backoff slots still to count (in a cohort: as of the last
        #: settlement); None while no head frame is contending (no
        #: head, or its exchange is on the air)
        self._slots_left: int | None = None
        self._draw_value = 0
        #: countdown state, owned by the channel's access manager:
        #: when slot counting began, and when the counter reaches zero
        #: (None while not armed on its own; see the module docstring)
        self._count_begin: float | None = None
        self._expiry: float | None = None
        #: the cohort this station counts in, and the cohort's offset
        #: and freeze count at its last settlement (its key there is
        #: ``_slots_left`` plus that offset)
        self._cohort: _Cohort | None = None
        self._settled = (0, 0)
        #: 0, or _WAITING / _PARKED while it waits for an idle edge
        #: outside any cohort
        self._waiting = 0
        #: attach order, arm epoch, and whether it still hears the
        #: medium (set by the manager)
        self._attach_no = 0
        self._arm_epoch = 0
        self._member = False
        self._nav_timer: TimerHandle | None = None

        self._access = ChannelAccessManager.of(channel)
        self._access.join(self)

    # -- public API ----------------------------------------------------------
    def enqueue(
        self,
        frame: Frame,
        level: int,
        on_done: typing.Callable[[bool], None] | None = None,
    ) -> None:
        """Queue ``frame`` for contention at priority ``level``.

        ``on_done(success)`` fires when the frame is either acknowledged
        or dropped after the retry limit.
        """
        self._stats.enqueued += 1
        self._queue.append(_Entry(frame, level, on_done))
        if self._head is None:
            self._start_next(fresh_arrival=True)

    @property
    def stats(self) -> DcfStats:
        """This station's counters, settled with its cohort's count."""
        if self._cohort is not None:
            _settle(self, self._cohort)
        return self._stats

    @property
    def pending(self) -> int:
        """Frames waiting (including the one in contention)."""
        return len(self._queue) + (1 if self._head is not None else 0)

    @property
    def busy(self) -> bool:
        """True while a frame is queued, contending or mid-exchange."""
        return self._head is not None or bool(self._queue)

    def discard_backlog(self) -> None:
        """Drop the frames still waiting for the medium, without
        completing them (the run is over; the counters stay)."""
        self._queue.clear()

    def shutdown(self) -> None:
        """Leave the channel's access manager (departing station)."""
        self._access.leave(self)
        if self._nav_timer is not None:
            self._nav_timer.cancel()
            self._nav_timer = None

    # -- contention machinery --------------------------------------------------
    def _ifs(self, level: int) -> float:
        """DIFS plus the policy's (static) AIFS surcharge for ``level``."""
        ifs = self._ifs_memo.get(level)
        if ifs is None:
            ifs = self._ifs_memo[level] = (
                self.timing.difs + self.policy.extra_ifs(level)
            )
        return ifs

    def _start_next(self, fresh_arrival: bool) -> None:
        if self._head is not None or not self._queue:
            return
        self._head = self._queue.popleft()
        self._stage = 0
        now = self.sim.now
        ifs = self._head_ifs = self._ifs(self._head.level)
        if (
            fresh_arrival
            and not self.channel.is_busy
            and not self.nav.blocked(now)
            and self.channel.idle_duration(now) >= ifs - 1e-12
        ):
            # 802.11 immediate access: medium already idle for >= DIFS.
            self._slots_left = 0
            self._transmit()
            return
        self._draw_backoff()
        self._arm()

    def _draw_backoff(self) -> None:
        assert self._head is not None
        stage = min(self._stage, self.policy.max_stage())
        self._slots_left = self.policy.draw_slots(
            self._head.level, stage, self.rng
        )
        # the draw's absolute position inside the (possibly partitioned)
        # window, for positional channel observations
        self._draw_value = self._slots_left
        if self.trace is not None:
            offset, width = self.policy.draw_window(self._head.level, stage)
            self.trace.emit(
                self.sim.now, "backoff", "draw",
                station=self.station_id,
                level=self._head.level,
                stage=self._stage,
                slots=self._slots_left,
                window_offset=offset,
                window_width=width,
            )

    def _arm(self) -> None:
        """Start the backoff countdown if conditions allow."""
        if self._head is None or self._slots_left is None or self._expiry is not None:
            return
        cohort = self._cohort
        if cohort is not None and cohort.running:
            return
        sim = self.sim
        now = sim._now
        if self.channel._active:
            self._access.defer(self)  # armed on the idle edge
            return
        if self.nav.blocked(now):
            if self._nav_timer is None:
                self._nav_timer = sim.call_at(self.nav.until, self._nav_expired)
            self._access.defer(self)
            return
        # Slot counting begins DIFS (plus the level's AIFS surcharge,
        # if the policy differentiates IFS) after the medium went idle —
        # or now, whichever is later: a frame that arrived mid-idle
        # cannot claim credit for slots it never observed.
        begin = self.channel.idle_since + self._head_ifs
        if begin < now:
            begin = now
        self._access.arm(self, begin)

    def _nav_expired(self) -> None:
        self._nav_timer = None
        if self._waiting == _PARKED:
            self._access.unpark(self)
        self._arm()

    def _consume_elapsed_slots(self, now: float) -> None:
        """Freeze: subtract the whole slots counted before ``now``."""
        if self._count_begin is None or self._slots_left is None:
            return
        elapsed = now - self._count_begin
        if elapsed <= 0:
            consumed = 0
        else:
            consumed = int(elapsed / self._slot + _SLOT_EPSILON)
        consumed = min(consumed, self._slots_left)
        start = self._draw_value - self._slots_left
        self._slots_left -= consumed
        self._stats.idle_slots_observed += consumed
        self.policy.observe_span(start, start + consumed, interrupted=True)

    # -- transmission ------------------------------------------------------------
    def _backoff_complete(self) -> None:
        """The counter reached zero (the access manager disarmed us)."""
        if self._slots_left:
            self._stats.idle_slots_observed += self._slots_left
            start = self._draw_value - self._slots_left
            self.policy.observe_span(start, self._draw_value, interrupted=False)
        self._slots_left = 0
        self._transmit()

    def _transmit(self) -> None:
        assert self._head is not None
        entry = self._head
        self._slots_left = None
        self._stats.attempts += 1
        if (
            entry.frame.ftype is FrameType.DATA
            and entry.frame.payload_bits > self.rts_threshold
        ):
            self._send_rts(entry)
        else:
            self._send_data(entry)

    def _send_data(self, entry: _Entry) -> None:
        duration = entry.frame.airtime(self.timing)
        self.channel.transmit(entry.frame, duration, self, self._data_done)

    # -- RTS/CTS handshake -------------------------------------------------
    def _send_rts(self, entry: _Entry) -> None:
        self._stats.rts_handshakes += 1
        rts = Frame(FrameType.RTS, src=entry.frame.src, dest=entry.frame.dest)
        self.channel.transmit(
            rts, rts.airtime(self.timing), self,
            lambda outcome: self._rts_done(entry, outcome),
        )

    def _rts_done(self, entry: _Entry, outcome: TxOutcome) -> None:
        if outcome.ok:
            self.sim.call_in(self.timing.sifs, self._send_cts, entry)
        else:
            # no CTS will arrive; pay only the short CTS timeout
            timing = self.timing
            cts_timeout = (
                timing.sifs + timing.frame_duration(FrameType.CTS) + timing.slot
            )
            self.sim.call_in(cts_timeout, self._resolve, False)

    def _send_cts(self, entry: _Entry) -> None:
        cts = Frame(FrameType.CTS, src=entry.frame.dest, dest=entry.frame.src)

        def after(outcome: TxOutcome) -> None:
            if outcome.ok:
                self.sim.call_in(self.timing.sifs, self._send_data, entry)
            else:
                self._resolve(False)

        self.channel.transmit(cts, cts.airtime(self.timing), self, after)

    def _data_done(self, outcome: TxOutcome) -> None:
        entry = self._head
        assert entry is not None
        ftype = entry.frame.ftype
        needs_ack = ftype is FrameType.DATA or ftype is FrameType.REQUEST
        if not needs_ack:
            self._resolve(outcome.ok)
            return
        if outcome.ok:
            # Receiver ACKs after SIFS.  The engine puts the ACK on the
            # air itself (see module docstring).
            self.sim.call_in(self.timing.sifs, self._send_ack, entry)
        else:
            # No ACK will come; wait the ACK timeout, then recontend.
            timing = self.timing
            ack_timeout = timing.sifs + timing.ack_time() + timing.slot
            self.sim.call_in(ack_timeout, self._resolve, False)

    def _send_ack(self, entry: _Entry) -> None:
        ack = Frame(FrameType.ACK, src=entry.frame.dest, dest=entry.frame.src)
        self.channel.transmit(
            ack, ack.airtime(self.timing), self,
            lambda outcome: self._resolve(outcome.ok),
        )

    def _resolve(self, success: bool) -> None:
        entry = self._head
        assert entry is not None
        self.policy.observe_outcome(success)
        if success:
            self._stats.successes += 1
            self._finish(entry, True)
            return
        self._stats.failures += 1
        self._stage += 1
        if self._stage >= self.retry_limit:
            self._stats.drops += 1
            self._finish(entry, False)
            return
        self._draw_backoff()
        self._arm()

    def _finish(self, entry: _Entry, success: bool) -> None:
        self._head = None
        self._stage = 0
        self._slots_left = None
        if entry.on_done is not None:
            entry.on_done(success)
        # Post-backoff: the next queued frame always contends afresh.
        if self._queue and self._head is None:
            self._start_next(fresh_arrival=False)
