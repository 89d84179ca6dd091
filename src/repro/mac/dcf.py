"""The DCF engine: CSMA/CA with a pluggable backoff policy.

Two classes share the work.  A :class:`DcfTransmitter` serves one
station's contention-period traffic: its queue, its backoff draws and
retry stage, immediate access, the NAV-expiry wait, RTS/CTS and the ACK
path.  One :class:`ChannelAccessManager` per :class:`Channel` runs the
backoff countdowns of every transmitter on that channel (the ns-3
``ChannelAccessManager`` design).  The manager is the only DCF listener
on the channel, so a carrier-sense edge or a frame costs one callback
whatever the station count, and all armed countdowns share **one**
agenda entry at the earliest expiry:

* **idle edge** — every waiting station is armed inline: slot counting
  begins DIFS (plus the level's AIFS surcharge) after the medium went
  idle, unless the NAV blocks it, and the entry is set to the earliest
  expiry;
* **busy edge** — every armed station, in attach order, has the whole
  slots it counted subtracted, reports them to its policy and is
  disarmed (a *freeze*).  A station whose counter hits zero exactly at
  this edge stays armed: it transmits in the same slot and collides;
* **expiry** — every station due at that instant transmits, in the
  order it was armed, so equal draws still collide.

Attach order on busy edges and arm order on co-expiry are the order the
per-station callbacks and timers of a listener-per-station design would
produce, so every draw and policy observation happens at the same
logical moment in the same order (``tests/mac/test_dcf_stats_lock.py``).
The standard freeze-and-resume semantics fall out, which the paper
points out also auto-promotes stations that have waited long.

Faithful-to-the-paper simplifications (single BSS, all stations in
range):

* the ACK a receiver would send is put on the air by the engine itself
  SIFS after a correctly received frame — behaviourally identical on a
  broadcast medium and it spares every station a full receive path;
* EIFS is not modelled (the paper never mentions it); a failed exchange
  defers for the ACK-timeout and re-contends with a doubled window.
"""

from __future__ import annotations

import collections
import dataclasses
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
        #: stations with a running countdown, in arm order
        self._armed: list[DcfTransmitter] = []
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
    def join(self, tx: "DcfTransmitter") -> None:
        self._members.append(tx)

    def leave(self, tx: "DcfTransmitter") -> None:
        """Stop ``tx``'s countdown (no freeze is counted) and stop
        telling it about the medium."""
        tx._count_begin = None
        if tx._expiry is not None:
            tx._expiry = None
            self._armed.remove(tx)
            self._retime()
        self._members.remove(tx)

    # -- countdowns ------------------------------------------------------------
    def arm(self, tx: "DcfTransmitter", expiry: float) -> None:
        """Start ``tx``'s countdown; it expires at ``expiry``."""
        tx._expiry = expiry
        self._armed.append(tx)
        if not self._firing:
            self._advance(expiry)

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
        due = min(tx._expiry for tx in self._armed) if self._armed else None
        timer = self._timer
        if timer is not None and timer.time != due:
            timer.cancel()
            self._timer = None
        if due is not None:
            self._advance(due)

    def _expire(self) -> None:
        self._timer = None
        now = self.sim._now
        due = [tx for tx in self._armed if tx._expiry <= now]
        self._firing = True
        for tx in due:
            if tx._expiry is None:
                continue
            tx._expiry = None
            tx._count_begin = None
            tx._backoff_complete()
        self._firing = False
        self._armed = [tx for tx in self._armed if tx._expiry is not None]
        self._retime()

    # -- channel listener callbacks ----------------------------------------------
    def on_medium_busy(self, now: float) -> None:
        if not self._armed:
            return
        # one inline pass in attach order (the shared adaptive policy's
        # observations depend on it); members that left are not visited
        for tx in self._members:
            expiry = tx._expiry
            if expiry is None:
                continue
            begin = tx._count_begin
            if begin is not None:
                # DcfTransmitter._consume_elapsed_slots, inlined: this
                # runs once per armed station on every busy edge
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
                tx.stats.idle_slots_observed += consumed
                if tx._observes:
                    tx.policy.observe_span(start, start + consumed, interrupted=True)
            if tx._slots_left == 0 and expiry <= now + _DUE_SLACK:
                # due exactly now: transmits in this slot too (collision)
                tx._count_begin = None
                continue
            tx.stats.busy_freezes += 1
            tx._expiry = None
            tx._count_begin = None
        self._armed = [tx for tx in self._armed if tx._expiry is not None]
        self._retime()

    def on_medium_idle(self, now: float) -> None:
        channel = self.channel
        if channel._active:
            return
        idle_since = channel.idle_since
        armed = self._armed
        earliest = None
        for tx in self._members:
            left = tx._slots_left
            # _slots_left is None unless a head frame is contending and
            # no exchange is in progress
            if left is None or tx._expiry is not None:
                continue
            nav = tx.nav
            if now < nav.until:  # Nav.blocked(now), inlined
                if tx._nav_timer is None:
                    tx._nav_timer = self.sim.call_at(nav.until, tx._nav_expired)
                continue
            # slot counting begins DIFS (plus the level's AIFS
            # surcharge) after the medium went idle
            begin = idle_since + tx._head_ifs
            if begin < now:
                begin = now
            tx._count_begin = begin
            expiry = tx._expiry = begin + left * tx._slot
            armed.append(tx)
            if earliest is None or expiry < earliest:
                earliest = expiry
        if earliest is not None:
            self._advance(earliest)

    def on_frame(self, frame: Frame, ok: bool, now: float) -> None:
        # beacons and CF-Ends come from the point coordinator, never
        # from a member, so every member hears them
        if not ok:
            return
        ftype = frame.ftype
        if ftype is FrameType.BEACON:
            until = now + frame.nav_duration
            froze = False
            for tx in self._members:
                tx.nav.set(until)
                if tx._expiry is not None:
                    tx._consume_elapsed_slots(now)
                    tx._expiry = None
                    tx._count_begin = None
                    froze = True
            if froze:
                self._armed = [tx for tx in self._armed if tx._expiry is not None]
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
        self.stats = DcfStats()

        # hot-path constants: every derived duration below is a pure
        # function of the (immutable) timing bundle, and the per-level
        # IFS memo assumes the policy's AIFS surcharge is a static QoS
        # parameter (it is, for every policy in this repo — see
        # DESIGN.md "Performance")
        self._slot = timing.slot
        #: False for a policy whose slot observations are no-ops (plain
        #: BEB): the access manager's busy pass then skips the call
        self._observes = policy.observes_slots
        self._ack_timeout = timing.sifs + timing.ack_time() + timing.slot
        self._cts_timeout = (
            timing.sifs
            + timing.frame_duration(FrameType.CTS)
            + timing.slot
        )
        self._ifs_memo: dict[int, float] = {}

        self._queue: collections.deque[_Entry] = collections.deque()
        self._head: _Entry | None = None
        #: DIFS plus AIFS surcharge of the head frame's level
        self._head_ifs = 0.0
        self._stage = 0
        #: backoff slots still to count; None while no head frame is
        #: contending (no head, or its exchange is on the air)
        self._slots_left: int | None = None
        self._draw_value = 0
        #: countdown state, owned by the channel's access manager:
        #: when slot counting began, and when the counter reaches zero
        #: (None while not armed)
        self._count_begin: float | None = None
        self._expiry: float | None = None
        self._nav_timer: TimerHandle | None = None
        self._in_exchange = False
        #: optional :class:`repro.obs.trace.TraceRecorder` (``backoff``)
        self.trace = None

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
        self.stats.enqueued += 1
        self._queue.append(_Entry(frame, level, on_done))
        if self._head is None and not self._in_exchange:
            self._start_next(fresh_arrival=True)

    @property
    def pending(self) -> int:
        """Frames waiting (including the one in contention)."""
        return len(self._queue) + (1 if self._head is not None else 0)

    @property
    def busy(self) -> bool:
        """True while a frame is queued, contending or mid-exchange."""
        return self._head is not None or bool(self._queue) or self._in_exchange

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
        sim = self.sim
        now = sim._now
        if self.channel._active:
            return  # the access manager arms us on the idle edge
        if self.nav.blocked(now):
            if self._nav_timer is None:
                self._nav_timer = sim.call_at(self.nav.until, self._nav_expired)
            return
        # Slot counting begins DIFS (plus the level's AIFS surcharge,
        # if the policy differentiates IFS) after the medium went idle —
        # or now, whichever is later: a frame that arrived mid-idle
        # cannot claim credit for slots it never observed.
        begin = self.channel.idle_since + self._head_ifs
        if begin < now:
            begin = now
        self._count_begin = begin
        self._access.arm(self, begin + self._slots_left * self._slot)

    def _nav_expired(self) -> None:
        self._nav_timer = None
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
        self.stats.idle_slots_observed += consumed
        self.policy.observe_span(start, start + consumed, interrupted=True)

    # -- transmission ------------------------------------------------------------
    def _backoff_complete(self) -> None:
        """The counter reached zero (the access manager disarmed us)."""
        if self._slots_left:
            self.stats.idle_slots_observed += self._slots_left
            start = self._draw_value - self._slots_left
            self.policy.observe_span(start, self._draw_value, interrupted=False)
        self._slots_left = 0
        self._transmit()

    def _transmit(self) -> None:
        assert self._head is not None
        entry = self._head
        self._in_exchange = True
        self._slots_left = None
        self.stats.attempts += 1
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
        self.stats.rts_handshakes += 1
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
            self.sim.call_in(self._cts_timeout, self._resolve, False)

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
            self.sim.call_in(self._ack_timeout, self._resolve, False)

    def _send_ack(self, entry: _Entry) -> None:
        ack = Frame(FrameType.ACK, src=entry.frame.dest, dest=entry.frame.src)
        self.channel.transmit(
            ack, ack.airtime(self.timing), self,
            lambda outcome: self._resolve(outcome.ok),
        )

    def _resolve(self, success: bool) -> None:
        entry = self._head
        assert entry is not None
        self._in_exchange = False
        self.policy.observe_outcome(success)
        if success:
            self.stats.successes += 1
            self._finish(entry, True)
            return
        self.stats.failures += 1
        self._stage += 1
        if self._stage >= self.retry_limit:
            self.stats.drops += 1
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
        if self._queue and self._head is None and not self._in_exchange:
            self._start_next(fresh_arrival=False)
