"""The batched fast path for pure DCF contention.

Every front end (sweep, validate, ESS, serve back-fill) runs the exact
per-frame simulator; nothing there routes through this package.
:func:`run_batched` is a direct call for the one shape a measurement
shows it pays for: conventional pure-DCF points, about 8x faster than
exact on the same config.  It swaps per-station scalar RNG for
counter-keyed draws (:mod:`repro.accel.rng`) and the per-frame object
simulation for a round-synchronous model over the
:class:`~repro.sim.engine.SlabAgenda`, and refuses any config it
cannot model (``ValueError`` naming the failing condition).

See DESIGN.md "Engine" for the eligibility rules, its own golden
fixture and the fidelity contract against exact.
"""

from .engine import fast_path_eligible, run_batched
from .rng import BatchedRngAdapter, ColumnStream

__all__ = [
    "run_batched",
    "fast_path_eligible",
    "BatchedRngAdapter",
    "ColumnStream",
]
