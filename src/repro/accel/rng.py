"""Counter-keyed batched RNG with per-column stream identity.

The exact engine gives every station its own ``numpy.Generator``
(:class:`repro.sim.rng.RandomStreams`), drawn from one at a time.  The
batched fast path instead draws **one vectorized batch per round** — but a
round touches a different subset of stations every time, so a naive
"one generator, n draws" scheme would make station *i*'s sequence
depend on who else happened to be in the round.  That breaks both
reproducibility (adding a station perturbs everyone) and the
common-random-number pairing the sweeps rely on.

The fix is a counter-based construction: every column (station) owns a
key and a draw counter, and draw ``k`` of column ``i`` is a pure
function of ``(seed, i, k)``:

    ``PHI        = 0x9E3779B97F4A7C15``  (the 64-bit golden ratio)
    ``key(i)     = mix64(seed + (i + 1) * PHI)``
    ``raw(i, k)  = mix64(key(i) + (k + 1) * PHI)``
    ``u(i, k)    = (raw(i, k) >> 11) * 2**-53``

with ``mix64`` the splitmix64 finalizer (Steele et al.), all in
``uint64`` arithmetic modulo ``2**64``.  Because column *i*'s sequence
``u(i, 0), u(i, 1), ...`` depends only on its **own** counter, batching
any subset of columns per call — in any round-size interleaving —
yields exactly the per-column sequences the scalar recurrence defines.
That invariant is the adapter's contract, pinned by the property test
in ``tests/accel/test_rng.py``, and it is what makes batched runs
seed-deterministic while remaining statistically equivalent to
independent per-station streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PHI", "mix64", "BatchedRngAdapter", "ColumnStream"]

#: 2**64 / golden ratio, the splitmix64 stream increment
PHI = np.uint64(0x9E3779B97F4A7C15)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_ONE = np.uint64(1)
#: 53-bit mantissa scaling, the standard uint64 -> [0, 1) double map
_U53 = np.uint64(11)
_INV53 = float(2.0**-53)


_MASK64 = (1 << 64) - 1
_PHI_PY = 0x9E3779B97F4A7C15


def _mix64_py(x: int) -> int:
    """The splitmix64 finalizer on plain Python ints (mod 2**64)."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 arrays.

    All arithmetic wraps modulo ``2**64`` (numpy unsigned semantics),
    which is exactly the reference recurrence.
    """
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


class BatchedRngAdapter:
    """Vectorized per-round draws with per-station stream identity.

    Parameters
    ----------
    seed:
        Master seed; folded into every column key.
    columns:
        Number of independent streams (stations, plus any auxiliary
        channels the engine allocates — BER, traffic, ...).
    """

    #: round sizes at or below this are drawn with the pure-Python
    #: recurrence — numpy call overhead dwarfs the math for tiny batches
    SMALL_BATCH = 32

    def __init__(self, seed: int, columns: int) -> None:
        if columns < 1:
            raise ValueError(f"columns must be >= 1, got {columns}")
        self.seed = int(seed)
        self.columns = int(columns)
        #: per-column keys, as Python ints (scalar path) and uint64
        #: array (vectorized path) — same values by construction
        self._keys_py = [
            _mix64_py((self.seed + (i + 1) * _PHI_PY) & _MASK64)
            for i in range(columns)
        ]
        self._keys = np.array(self._keys_py, dtype=np.uint64)
        #: next draw index per column (draw k consumes counter value k).
        #: Python ints: the scalar paths dominate the engine's profile
        #: and a list indexes ~5x faster than a numpy scalar lookup.
        self._counters = [0] * columns

    # -- scalar reference recurrence (documentation + property test) -------
    def reference_uniform(self, column: int, k: int) -> float:
        """Draw ``k`` of ``column`` per the documented scalar recurrence.

        This is the adapter's ground truth: ``uniforms(...)`` must
        reproduce these values for every column under every round-size
        interleaving.  Implemented in pure Python integers (masked to
        64 bits) so it is an oracle independent of the vectorized path.
        """
        key = _mix64_py((self.seed + (column + 1) * _PHI_PY) & _MASK64)
        raw = _mix64_py((key + (k + 1) * _PHI_PY) & _MASK64)
        return (raw >> 11) * _INV53

    # -- batched draws ------------------------------------------------------
    def uniforms(self, columns: np.ndarray) -> np.ndarray:
        """One round: the next uniform of each listed column.

        ``columns`` is an integer sequence (any subset, any order,
        repeats allowed — repeats consume consecutive counter values
        left to right).  Returns ``float64`` uniforms in ``[0, 1)``.
        """
        if len(columns) <= self.SMALL_BATCH:
            return np.array(self.uniforms_list(columns))
        cols = np.asarray(columns, dtype=np.intp)
        counters = self._counters
        k = np.empty(cols.size, dtype=np.uint64)
        for j, c in enumerate(cols.tolist()):
            k[j] = counters[c]
            counters[c] += 1
        raw = mix64(self._keys[cols] + (k + _ONE) * PHI)
        return (raw >> _U53).astype(np.float64) * _INV53

    def uniforms_list(self, columns) -> list[float]:
        """:meth:`uniforms` as a plain float list (scalar recurrence).

        The engine's round loop is pure Python; for its typical round
        sizes (a handful of stations) the list path avoids every numpy
        round-trip and is the one it actually calls.
        """
        counters = self._counters
        keys = self._keys_py
        out = []
        for c in columns:
            k = counters[c]
            counters[c] = k + 1
            x = (keys[c] + (k + 1) * _PHI_PY) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            out.append(((x ^ (x >> 31)) >> 11) * _INV53)
        return out

    def integers(self, columns: np.ndarray, highs: np.ndarray | int) -> np.ndarray:
        """Next draw of each column, mapped to ``[0, high)`` ints.

        The inversion ``floor(u * high)`` keeps one uniform per draw so
        the column counters advance exactly once per value.
        """
        u = self.uniforms(columns)
        return (u * np.asarray(highs, dtype=np.float64)).astype(np.int64)

    def stream(self, column: int) -> "ColumnStream":
        """A scalar, Generator-duck-typed view of one column."""
        return ColumnStream(self, column)


class ColumnStream:
    """Scalar facade over one adapter column.

    Implements ``random`` and ``integers`` in the shape of
    ``numpy.Generator``, serving each from the column's counter-keyed
    sequence.  The fast path draws every station's backoff, traffic
    and channel values through one of these per column.
    """

    __slots__ = ("_adapter", "_column", "_key", "_counters", "_buf", "_buf_i",
                 "_block")

    def __init__(self, adapter: BatchedRngAdapter, column: int) -> None:
        if not 0 <= column < adapter.columns:
            raise ValueError(f"column {column} out of range")
        self._adapter = adapter
        self._column = column
        self._key = adapter._keys_py[column]
        self._counters = adapter._counters  # shared with batched draws
        self._buf: list[float] | None = None
        self._buf_i = 0
        self._block = 0

    def enable_prefetch(self, block: int = 256) -> None:
        """Serve draws from vectorized blocks of ``block`` values.

        One ``mix64`` array call refills the buffer; the served values
        are **identical** to the scalar recurrence (same counter-keyed
        math, batched), this only changes when the mixing happens.
        The column's shared counter advances a whole block at a time,
        so after enabling, this stream must be the column's only
        consumer (the engine's fast path owns all its columns).
        """
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._block = int(block)
        self._buf = []
        self._buf_i = 0

    def _refill(self) -> list[float]:
        c = self._column
        k0 = self._counters[c]
        self._counters[c] = k0 + self._block
        ks = np.arange(k0 + 1, k0 + 1 + self._block, dtype=np.uint64)
        raw = mix64(np.uint64(self._key) + ks * PHI)
        self._buf = buf = ((raw >> _U53).astype(np.float64) * _INV53).tolist()
        self._buf_i = 0
        return buf

    def random(self) -> float:
        # the documented recurrence, inlined (this is the hottest
        # scalar call in the batched engine's profile)
        buf = self._buf
        if buf is not None:
            i = self._buf_i
            if i >= len(buf):
                buf = self._refill()
                i = 0
            self._buf_i = i + 1
            return buf[i]
        c = self._column
        counters = self._counters
        k = counters[c]
        counters[c] = k + 1
        x = (self._key + (k + 1) * _PHI_PY) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((x ^ (x >> 31)) >> 11) * _INV53

    def integers(self, low: int, high: int | None = None) -> int:
        if high is None:
            low, high = 0, low
        return low + int(self.random() * (high - low))
