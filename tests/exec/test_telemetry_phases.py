"""Pin the phase-aware worker-utilization arithmetic with synthetic records.

The numbers here are worked out by hand, so any drift in how warm-up,
steady-state and queue-drain capacity enter ``worker_utilization``
fails loudly with known-good values.
"""

import pytest

from repro.exec import PointRecord, RunTelemetry, phase_utilization


def _record(index: int, wall: float, status: str = "executed") -> PointRecord:
    return PointRecord(
        index=index, scheme="proposed", load=1.0, seed=index,
        status=status, wall_time=wall, attempts=1, sim_events=100,
    )


class TestPhaseUtilization:
    def test_hand_worked_example(self):
        # 4 workers, 3 s of steady state (12 worker-seconds of capacity)
        # plus 2 integrated busy-worker-seconds of drain; 10 busy
        # worker-seconds => 10 / (4*3 + 2)
        assert phase_utilization(
            busy_s=10.0, workers=4, steady_s=3.0, drain_capacity_s=2.0
        ) == pytest.approx(10.0 / 14.0)

    def test_warmup_contributes_no_capacity(self):
        # warm-up seconds never appear in the denominator: the same
        # busy/steady/drain numbers give the same answer regardless of
        # how long the pool took to spawn
        assert phase_utilization(5.0, 2, 3.0, 1.0) == pytest.approx(5.0 / 7.0)

    def test_zero_capacity_reports_zero(self):
        assert phase_utilization(0.0, 4, 0.0, 0.0) == 0.0

    def test_full_drain_tail_counts_only_busy_workers(self):
        # one straggler draining for 4 s on a 4-worker pool adds 4
        # worker-seconds of capacity, not 16
        assert phase_utilization(
            busy_s=8.0, workers=4, steady_s=1.0, drain_capacity_s=4.0
        ) == pytest.approx(1.0)


class TestSummaryArithmetic:
    def _telemetry(self) -> RunTelemetry:
        tel = RunTelemetry(workers=4)
        for i, wall in enumerate((4.0, 3.0, 2.0, 1.0)):
            tel.record(_record(i, wall))
        tel.busy_worker_s = 10.0
        # pin the run clock: 6 s elapsed = 1.5 warm-up + 3 steady + 1
        # drain + 0.5 teardown slack
        tel._started = 0.0
        tel._finished = 6.0
        return tel

    def test_phase_aware_utilization_uses_the_capacity_integral(self):
        tel = self._telemetry()
        tel.set_phases(
            warmup_s=1.5, steady_s=3.0, drain_s=1.0, capacity_s=14.0
        )
        tel.finish()
        summary = tel.summary()
        assert summary["worker_utilization"] == pytest.approx(10.0 / 14.0)
        assert summary["phases"] == {
            "warmup_s": 1.5, "steady_s": 3.0, "drain_s": 1.0,
            "capacity_s": 14.0,
        }
        # set_phases matches the helper given the same split
        assert summary["worker_utilization"] == pytest.approx(
            phase_utilization(10.0, 4, 3.0, 2.0)
        )

    def test_serial_runs_fall_back_to_raw(self):
        # no phase split: busy time over the whole run's capacity
        tel = RunTelemetry(workers=1)
        tel.record(_record(0, 2.0))
        tel._started = 0.0
        tel._finished = 4.0
        summary = tel.summary()
        assert summary["phases"] is None
        assert summary["worker_utilization"] == pytest.approx(2.0 / 4.0)

    def test_busy_worker_seconds_fall_back_to_executed_walls(self):
        # hand-built telemetry (no executor) never sets busy_worker_s;
        # the summary then derives busy from the executed walls
        tel = RunTelemetry(workers=2)
        tel.record(_record(0, 3.0))
        tel.record(_record(1, 1.0))
        tel.set_phases(warmup_s=0.5, steady_s=2.0, drain_s=0.0, capacity_s=4.0)
        tel.finish()
        assert tel.summary()["worker_utilization"] == pytest.approx(1.0)

    def test_failed_attempts_count_as_busy_time(self):
        tel = RunTelemetry(workers=2)
        tel.record(_record(0, 2.0))
        tel.record(_record(1, 0.0, status="failed"))
        tel.busy_worker_s = 3.5  # 2.0 executed + 1.5 failed-attempt
        tel.set_phases(warmup_s=0.2, steady_s=2.5, drain_s=0.0, capacity_s=5.0)
        tel.finish()
        summary = tel.summary()
        assert summary["worker_utilization"] == pytest.approx(3.5 / 5.0)
        assert summary["point_wall_total"] == pytest.approx(2.0)  # executed only

    def test_bench_entry_carries_the_phase_split(self):
        tel = self._telemetry()
        tel.set_phases(
            warmup_s=1.5, steady_s=3.0, drain_s=1.0, capacity_s=14.0
        )
        tel.finish()
        entry = tel.bench_entry(wall_s=5.0)
        assert entry["workers"] == 4
        assert entry["wall_s"] == 5.0
        assert entry["worker_utilization"] == pytest.approx(
            round(10.0 / 14.0, 4)
        )
        assert entry["worker_restarts"] == 0
        assert entry["phases"]["capacity_s"] == 14.0
