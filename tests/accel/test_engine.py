"""Batched fast path: golden row, determinism, refusal, fidelity to exact.

The fast path has its **own** committed golden fixture — it is a
different numerical path from the exact engine (counter-keyed RNG,
round-synchronous contention) and must never be compared
byte-for-byte against exact rows.  What it must do is reproduce
*itself* exactly, refuse configs it cannot model, leave exact
keys/fixtures untouched, and stay within its fidelity contract
against exact runs of the same config.

Regenerate the fixture deliberately with::

    PYTHONPATH=src python - <<'EOF'
    from repro.accel import run_batched
    from repro.exec import canonical_json
    from tests.accel.test_engine import batched_golden_config
    print(canonical_json(run_batched(batched_golden_config())))
    EOF
"""

import json
import pathlib
import re
import statistics

import pytest

from repro.accel import fast_path_eligible, run_batched
from repro.exec import canonical_json, config_key
from repro.experiments import sweep_config
from repro.network.bss import BssScenario, ScenarioConfig

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_batched_row.json"


def batched_golden_config(**overrides) -> ScenarioConfig:
    """The ``batched_end_to_end`` benchmark point (pure-DCF, saturating)."""
    base = dict(
        scheme="conventional",
        seed=7,
        sim_time=10.0,
        warmup=1.0,
        load=6.0,
        n_data_stations=4,
        new_voice_rate=0.0,
        new_video_rate=0.0,
        handoff_voice_rate=0.0,
        handoff_video_rate=0.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def golden_bytes() -> str:
    return GOLDEN_PATH.read_text().strip()


class TestBatchedGoldenRow:
    def test_fixture_is_valid_canonical_json(self, golden_bytes):
        row = json.loads(golden_bytes)
        assert canonical_json(row) == golden_bytes
        assert row["engine"] == "batched"
        assert row["scheme"] == "conventional" and row["seed"] == 7

    def test_run_batched_reproduces_fixture(self, golden_bytes):
        assert canonical_json(run_batched(batched_golden_config())) == (
            golden_bytes
        )

    def test_direct_run_is_deterministic(self):
        a = run_batched(batched_golden_config())
        b = run_batched(batched_golden_config())
        assert canonical_json(a) == canonical_json(b)

    def test_seed_changes_the_row(self, golden_bytes):
        row = run_batched(batched_golden_config(seed=8))
        assert canonical_json(row) != golden_bytes


class TestKeyFormat:
    """Exact configs never carried ``engine``; their keys are unchanged."""

    def test_exact_to_dict_omits_engine(self):
        assert "engine" not in batched_golden_config().to_dict()

    def test_exact_key_matches_pre_accel_construction(self):
        # the key this config had while the engine knob existed (and
        # before it): existing caches and journals stay valid
        cfg = ScenarioConfig(scheme="proposed", seed=1, sim_time=12.0, warmup=2.0)
        assert config_key(cfg) == (
            "47dc139dd04f875c5db44bc1ef86d9a1d4b121b0bdd96a65fe4225573660946d"
        )

    def test_unknown_engine_rejected(self):
        # the engine knob is gone: naming it is a construction error
        with pytest.raises(TypeError, match="engine"):
            batched_golden_config(engine="batched")


class TestDispatch:
    def test_fast_path_covers_the_golden_point(self):
        assert fast_path_eligible(batched_golden_config())

    def test_ineligible_config_is_refused_by_name(self):
        # a sweep point always carries real-time call rates
        cfg = sweep_config("conventional", 1.0, 1)
        assert not fast_path_eligible(cfg)
        with pytest.raises(ValueError, match="new_voice_rate == 0"):
            run_batched(cfg)

    @pytest.mark.parametrize(
        "overrides, condition",
        [
            ({"scheme": "proposed"}, "scheme == 'conventional'"),
            ({"monitor_invariants": True}, "monitor_invariants is False"),
            ({"mobility": "neighborhood"}, "mobility == 'poisson'"),
            ({"n_data_stations": 0}, "n_data_stations > 0"),
        ],
    )
    def test_refusal_names_the_first_failing_condition(
        self, overrides, condition
    ):
        with pytest.raises(ValueError, match=re.escape(condition)):
            run_batched(batched_golden_config(**overrides))

    def test_exact_rows_carry_no_engine_tag(self):
        row = BssScenario(batched_golden_config(sim_time=3.0)).run()
        assert "engine" not in row


#: the columns the fast path promises to model, and the seeds its
#: contract is stated over (``data_delay_mean`` is outside the
#: contract: at 8 stations the queue is overloaded and the delay
#: ratio spans 0.35-4.1x across seeds; see DESIGN.md "Engine")
FIDELITY_COLUMNS = (
    "data_delivered",
    "goodput_utilization",
    "channel_busy_fraction",
    "events_processed",
)
FIDELITY_SEEDS = (7, 8, 9)


class TestFidelityContract:
    @pytest.mark.parametrize("stations", [4, 8])
    def test_mean_ratio_to_exact_within_ten_percent(self, stations):
        ratios: dict[str, list[float]] = {c: [] for c in FIDELITY_COLUMNS}
        for seed in FIDELITY_SEEDS:
            cfg = batched_golden_config(seed=seed, n_data_stations=stations)
            batched = run_batched(cfg)
            exact = BssScenario(cfg).run()
            for column in FIDELITY_COLUMNS:
                ratios[column].append(batched[column] / exact[column])
        for column, values in ratios.items():
            mean = statistics.fmean(values)
            assert 0.9 <= mean <= 1.1, (column, stations, values)
