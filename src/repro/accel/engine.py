"""The batched fast path for pure DCF contention.

:func:`run_batched` is the entry point.  It applies only when the
scenario is pure DCF contention (conventional scheme, zero real-time
rates, no faults/trace/ESS/monitors; see :func:`fast_path_eligible`)
and raises ``ValueError`` naming the first failing condition
otherwise — every other scenario runs on the exact simulator.  The
per-frame object simulation is replaced by a round-synchronous model
(:class:`BatchedContentionModel`): one *round* is "idle slots until
the smallest backoff counter expires, then the transmission it
triggers".  Backoff redraws for a round come from counter-keyed
adapter columns (:class:`~repro.accel.rng.BatchedRngAdapter`), arrivals
are scheduled through the typed :class:`~repro.sim.engine.SlabAgenda`,
and ``events_processed`` counts the **exact-engine-equivalent agenda
fires** each round implies (see ``_EVENT_ACCOUNTING`` below), so its
ev/s are directly comparable with the exact benchmarks.

The fast path is seed-deterministic and pinned by its own golden
fixture (``tests/accel``); rows carry ``engine="batched"`` and are
never cached or mixed with exact rows.

``_EVENT_ACCOUNTING`` — the fast path counts, per modeled occurrence,
the agenda fires the exact engine would have dispatched:

=====================  ====================================  =====
occurrence             exact-engine fires                    count
=====================  ====================================  =====
MSDU arrival           source process wake-up                1
backoff expiry         access-manager expiry entry           1
(one per round, however many winners collide in it: the exact
engine fires one entry for all stations expiring at the same
instant; skipped when every winner used 802.11 immediate access —
a fresh arrival on a medium already idle >= DIFS transmits without
arming a countdown)
data transmission      channel ``_finish`` + ``on_done``     2
data survived          ACK send timer + ACK ``_finish``
                       + ACK ``on_done``                     3
data corrupted /       ACK-timeout timer                     1
collided
superframe tick        conventional AP timer                 1
=====================  ====================================  =====

Fires whose exact-engine timestamp would land past ``sim_time`` are
not counted (the exact run would never dispatch them).  The fidelity
test holds the mean batched/exact ``events_processed`` ratio over
three seeds within 0.9–1.1 (DESIGN.md "Engine").
"""

from __future__ import annotations

import math
import typing

import numpy as np

from ..baseline.conventional import ConventionalApConfig
from ..metrics.stats import OnlineStats
from ..network.bss import ScenarioConfig
from ..phy.timing import PhyTiming
from ..sim.engine import SlabAgenda
from .rng import BatchedRngAdapter

__all__ = ["run_batched", "fast_path_eligible", "BatchedContentionModel"]

#: DATA header+FCS bits and ACK bits exposed to the BER model
#: (mac/frames._HEADER_BITS — mirrored to keep the hot loop flat)
_DATA_HEADER_BITS = 272
_ACK_BITS = 112

#: SlabAgenda entry kinds used by the fast path
_KIND_ARRIVAL = 0
_KIND_ROUND = 1
_KIND_TICK = 2

#: tie window for simultaneous backoff expiry (collision detection)
_TIE_EPS = 1e-12


#: the fast path's preconditions, in the order a refusal names them.
#: It models DCF contention only: conventional scheme with zero
#: real-time call rates (the conventional AP then never opens a CFP,
#: see ``baseline/conventional._superframe_tick``), stationary Poisson
#: data arrivals, and none of the exact-only attachments (faults,
#: trace, ESS shard, invariant monitors).
_FAST_PATH_CONDITIONS: tuple[
    tuple[str, typing.Callable[[ScenarioConfig], bool]], ...
] = (
    ("scheme == 'conventional'", lambda c: c.scheme == "conventional"),
    ("new_voice_rate == 0", lambda c: c.new_voice_rate == 0.0),
    ("new_video_rate == 0", lambda c: c.new_video_rate == 0.0),
    ("handoff_voice_rate == 0", lambda c: c.handoff_voice_rate == 0.0),
    ("handoff_video_rate == 0", lambda c: c.handoff_video_rate == 0.0),
    ("mobility == 'poisson'", lambda c: c.mobility == "poisson"),
    ("faults is None", lambda c: c.faults is None),
    ("trace is None", lambda c: c.trace is None),
    ("ess is None", lambda c: c.ess is None),
    ("monitor_invariants is False", lambda c: not c.monitor_invariants),
    ("n_data_stations > 0", lambda c: c.n_data_stations > 0),
)


def _first_failing_condition(config: ScenarioConfig) -> str | None:
    for name, holds in _FAST_PATH_CONDITIONS:
        if not holds(config):
            return name
    return None


def fast_path_eligible(config: ScenarioConfig) -> bool:
    """True when the round-synchronous contention model applies."""
    return _first_failing_condition(config) is None


def run_batched(config: ScenarioConfig) -> dict[str, typing.Any]:
    """Run one pure-DCF point on the batched fast path.

    Raises ``ValueError`` naming the first failing precondition when
    ``config`` is not :func:`fast_path_eligible`; there is no fallback.
    """
    return BatchedContentionModel(config).run()


class BatchedContentionModel:
    """Round-synchronous DCF model for pure-contention scenarios.

    See the module docstring for the modeling contract and the event
    accounting.  One instance runs one config; :meth:`run` returns a
    result row with the standard schema plus ``engine="batched"``.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        failing = _first_failing_condition(config)
        if failing is not None:
            raise ValueError(
                f"config is not fast-path eligible: needs {failing}"
            )
        self.config = config
        self.timing = PhyTiming()
        n = config.n_data_stations
        # column map: [0, n) backoff, [n, 2n) traffic, 2n channel BER
        self.adapter = BatchedRngAdapter(config.seed, 2 * n + 1)
        self._backoff_col = np.arange(n, dtype=np.intp)
        # scalar views of the backoff columns for singleton (fresh-
        # arrival) draws; the counter-keyed recurrence guarantees they
        # produce the same values a one-element vectorized round would
        self._backoff_streams = [self.adapter.stream(i) for i in range(n)]
        self._traffic = [self.adapter.stream(n + i) for i in range(n)]
        self._channel = self.adapter.stream(2 * n)
        # the fast path is these streams' only consumer, so every
        # column can serve from vectorized prefetch blocks (identical
        # values, amortized mixing); the channel column sees the most
        # draws and gets the biggest block
        for stream in self._backoff_streams:
            stream.enable_prefetch(64)
        for stream in self._traffic:
            stream.enable_prefetch(128)
        self._channel.enable_prefetch(512)
        self.agenda = SlabAgenda(capacity=max(16, 4 * n))
        self.events_processed = 0

    # -- BER helpers ------------------------------------------------------
    def _survives(self, total_bits: int) -> bool:
        ber = self.config.ber
        if ber == 0.0:
            return True
        return self._channel.random() < (1.0 - ber) ** total_bits

    # -- the round loop ---------------------------------------------------
    def run(self) -> dict[str, typing.Any]:
        cfg = self.config
        timing = self.timing
        n = cfg.n_data_stations
        slot = timing.slot
        difs = timing.difs
        sifs = timing.sifs
        ack_air = timing.ack_time()
        ack_timeout = sifs + ack_air + slot
        plcp = timing.plcp_time()
        rate = timing.data_rate
        sim_time = cfg.sim_time
        retry_limit = 7
        cw_min, cw_max = 32, 1024  # StandardBEB(32, 1024), as _build_policy
        max_stage = 5
        arrival_rate = cfg.data_msdus_per_station * cfg.load
        mean_msdu = 1024 * 8
        mtu = 1500 * 8

        # per-station state
        queues: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        heads: list[int] = [0] * n  # pop index into queues[i]
        counter = [0] * n
        stage = [0] * n
        ready = [0.0] * n  # earliest count-start (post ACK-timeout)
        immediate = [False] * n
        contending = [False] * n
        next_arrival = [0.0] * n

        events = 0
        busy_time = 0.0
        useful_bits = 0
        delivered = 0
        losses = 0
        delay = OnlineStats()
        warmup = cfg.warmup
        t_idle_start = 0.0

        # superframe ticks: the conventional AP re-arms its timer every
        # superframe; with an empty request table that is all it does
        events += int(sim_time / ConventionalApConfig().superframe)

        # seed the arrival agenda (typed slab entries, one per station)
        agenda = self.agenda
        for i in range(n):
            dt = -math.log1p(-self._traffic[i].random()) / arrival_rate
            next_arrival[i] = dt
            if dt <= sim_time:
                agenda.push(dt, _KIND_ARRIVAL, i)

        backoff_randoms = [s.random for s in self._backoff_streams]

        def draw_batch(cols: list[int], stages: list[int]) -> None:
            """One redraw per station in ``cols``, from prefetch blocks.

            Each station's draws route through its own column stream
            (batch and singleton draws share one counter order), and
            the window map is StandardBEB's ``min(cw_min * 2**stage,
            cw_max)`` inlined.
            """
            for j, i in enumerate(cols):
                s = stages[j]
                w = cw_min << s if s < max_stage else cw_max
                counter[i] = int(backoff_randoms[i]() * w)

        def start_of(i: int) -> float:
            base = t_idle_start + difs
            r = ready[i]
            return r if r > base else base

        # hot-loop locals: BER survival probabilities are memoized per
        # frame size (the exact model's memo, lifted out of the call),
        # and the channel draw is bound once
        ber = cfg.ber
        chan_random = self._channel.random
        ack_p = (1.0 - ber) ** _ACK_BITS if ber else 1.0
        p_cache: dict[int, float] = {}
        agenda_peek = agenda.peek_time
        delay_add = delay.add
        # rounds never touch the agenda, so its head time is cached
        # across round iterations and refreshed only after a pop/push
        ta = agenda_peek()

        while True:
            # next transmission candidate across contending stations
            # (start_of inlined: this scan runs once per loop iteration)
            base = t_idle_start + difs
            tmin = math.inf
            for i in range(n):
                if contending[i]:
                    r = ready[i]
                    tx = (r if r > base else base) + counter[i] * slot
                    if tx < tmin:
                        tmin = tx
            if ta <= tmin + _TIE_EPS:
                if ta > sim_time:  # also covers "both agendas empty"
                    break
                _, kind, i = agenda.pop()
                # -- one MSDU arrives at station i --------------------
                events += 1
                created = ta
                src = self._traffic[i]
                msdu = max(1, int(round(-math.log1p(-src.random()) * mean_msdu)))
                full, rest = divmod(msdu, mtu)
                q = queues[i]
                for _ in range(full):
                    q.append((mtu, created))
                if rest:
                    q.append((rest, created))
                dt = -math.log1p(-src.random()) / arrival_rate
                next_arrival[i] = created + dt
                if next_arrival[i] <= sim_time:
                    agenda.push(next_arrival[i], _KIND_ARRIVAL, i)
                ta = agenda_peek()
                if not contending[i] and len(q) > heads[i]:
                    stage[i] = 0
                    contending[i] = True
                    if created - t_idle_start >= difs - 1e-12:
                        # 802.11 immediate access: no timer fire
                        counter[i] = 0
                        ready[i] = created
                        immediate[i] = True
                    else:
                        counter[i] = int(
                            self._backoff_streams[i].random() * cw_min
                        )
                        ready[i] = created
                        immediate[i] = False
                continue
            if tmin > sim_time:
                break

            # -- one round fires at tmin ------------------------------
            # single pass: collect winners within the tie window and
            # freeze the rest — non-winners consume the whole slots
            # they observed (ready stays as-is: start_of already takes
            # the max of ready and the post-round idle start, matching
            # re-arming)
            tie = tmin + _TIE_EPS
            winners = []
            for i in range(n):
                if contending[i]:
                    r = ready[i]
                    begin = r if r > base else base
                    if begin + counter[i] * slot <= tie:
                        winners.append(i)
                    elif tmin > begin:
                        consumed = int((tmin - begin) / slot + 1e-9)
                        if consumed > counter[i]:
                            consumed = counter[i]
                        counter[i] -= consumed

            redraw_cols: list[int] = []
            redraw_stages: list[int] = []

            if len(winners) == 1:
                w = winners[0]
                bits, created = queues[w][heads[w]]
                data_end = tmin + plcp + (bits + _DATA_HEADER_BITS) / rate
                if ber:
                    tb = bits + _DATA_HEADER_BITS
                    p = p_cache.get(tb)
                    if p is None:
                        p = p_cache[tb] = (1.0 - ber) ** tb
                    data_ok = chan_random() < p
                else:
                    data_ok = True
                if data_ok:
                    ack_ok = chan_random() < ack_p if ber else True
                    busy_end = data_end + sifs + ack_air
                    resolve_t = busy_end
                    success = ack_ok
                else:
                    busy_end = data_end
                    resolve_t = data_end + ack_timeout
                    success = False
                busy_time += busy_end - tmin
                # exact-equivalent fires (timestamp-guarded)
                if not immediate[w]:
                    events += 1  # backoff expiry at tmin
                if data_end <= sim_time:
                    events += 2  # data _finish + on_done
                    if data_ok:
                        if data_end + sifs <= sim_time:
                            events += 1  # ACK send timer
                        if busy_end <= sim_time:
                            events += 2  # ACK _finish + on_done
                    elif resolve_t <= sim_time:
                        events += 1  # ACK-timeout timer
                immediate[w] = False
                resolved = resolve_t <= sim_time
                if success and resolved:
                    heads[w] += 1
                    if heads[w] > 64:  # amortized pop of consumed head
                        del queues[w][: heads[w]]
                        heads[w] = 0
                    if created >= warmup:
                        delivered += 1
                        useful_bits += bits
                        delay_add(resolve_t - created)
                    stage[w] = 0
                    if len(queues[w]) > heads[w]:
                        ready[w] = resolve_t
                        redraw_cols.append(w)
                        redraw_stages.append(0)
                    else:
                        contending[w] = False
                elif resolved:
                    stage[w] += 1
                    if stage[w] >= retry_limit:
                        heads[w] += 1
                        if created >= warmup:
                            losses += 1
                        stage[w] = 0
                        if len(queues[w]) > heads[w]:
                            ready[w] = resolve_t
                            redraw_cols.append(w)
                            redraw_stages.append(0)
                        else:
                            contending[w] = False
                    else:
                        ready[w] = resolve_t
                        redraw_cols.append(w)
                        redraw_stages.append(stage[w])
                else:
                    # the exchange straddles sim_time: exact would
                    # leave it unresolved; stop contending
                    contending[w] = False
            else:
                # collision: every winner transmits, all fail
                airs = [
                    plcp + (queues[w][heads[w]][0] + _DATA_HEADER_BITS) / rate
                    for w in winners
                ]
                busy_end = tmin + max(airs)
                busy_time += busy_end - tmin
                if not all(immediate[w] for w in winners):
                    events += 1  # one backoff expiry for the whole round
                for w, air in zip(winners, airs):
                    immediate[w] = False
                    data_end = tmin + air
                    resolve_t = data_end + ack_timeout
                    if data_end <= sim_time:
                        events += 2  # data _finish + on_done
                        if resolve_t <= sim_time:
                            events += 1  # ACK-timeout timer
                    if resolve_t > sim_time:
                        contending[w] = False
                        continue
                    _, created = queues[w][heads[w]]
                    stage[w] += 1
                    if stage[w] >= retry_limit:
                        heads[w] += 1
                        if created >= warmup:
                            losses += 1
                        stage[w] = 0
                        if len(queues[w]) > heads[w]:
                            ready[w] = resolve_t
                            redraw_cols.append(w)
                            redraw_stages.append(0)
                        else:
                            contending[w] = False
                    else:
                        ready[w] = resolve_t
                        redraw_cols.append(w)
                        redraw_stages.append(stage[w])

            if redraw_cols:
                # the per-round vectorized redraw: one adapter call
                draw_batch(redraw_cols, redraw_stages)
            t_idle_start = busy_end

        self.events_processed = events
        return self._assemble_row(
            events, busy_time, useful_bits, delivered, losses, delay
        )

    # -- row assembly -----------------------------------------------------
    def _assemble_row(
        self,
        events: int,
        busy_time: float,
        useful_bits: int,
        delivered: int,
        losses: int,
        delay: OnlineStats,
    ) -> dict[str, typing.Any]:
        cfg = self.config
        measured = cfg.sim_time - cfg.warmup
        row: dict[str, typing.Any] = {
            "dropping_probability": 0.0,
            "blocking_probability": 0.0,
            "worst_voice_jitter": 0.0,
        }
        for kind in ("data", "voice", "video"):
            row[f"{kind}_delay_mean"] = 0.0
            row[f"{kind}_delay_var"] = 0.0
            row[f"{kind}_delivered"] = 0
            row[f"{kind}_losses"] = 0
        row.update(
            data_delay_mean=delay.mean,
            data_delay_var=delay.variance,
            data_delivered=delivered,
            data_losses=losses,
            scheme=cfg.scheme,
            load=cfg.load,
            normalized_load=cfg.normalized_load(self.timing),
            seed=cfg.seed,
            sim_time=cfg.sim_time,
            warmup=cfg.warmup,
            events_processed=events,
            call_attempts_new=0,
            call_attempts_handoff=0,
            calls_admitted_new=0,
            calls_admitted_handoff=0,
            calls_blocked=0,
            calls_dropped=0,
            channel_busy_fraction=min(1.0, busy_time / cfg.sim_time),
            goodput_utilization=useful_bits / (measured * self.timing.data_rate),
            worst_video_delay=0.0,
            engine="batched",
        )
        return row
