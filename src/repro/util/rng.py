"""Deterministic random-number streams.

Every source of randomness in the simulator flows through a
:class:`DeterministicRng` owned by the VM.  Sub-streams (per thread, per
benchmark repetition) are derived with :func:`derive_seed` so that adding a
consumer of randomness never perturbs unrelated streams — runs are exactly
replayable from ``(seed, configuration)``.

The generator is a small, self-contained xorshift64* implementation rather
than :mod:`random`, so the sequence is stable across Python versions and the
state is a single integer that is cheap to snapshot in tests.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D

# 64-bit FNV-1a parameters, used for seed derivation.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def derive_seed(base: int, *path: object) -> int:
    """Derive a child seed from ``base`` and a path of identifying values.

    The path is typically a tuple like ``("thread", 3)`` or
    ``("rep", rep_index)``.  Derivation is order-sensitive and collision
    resistant enough for simulation purposes (FNV-1a over the repr of each
    path element, folded into the base seed).

    Path elements are restricted to ``str``, ``int`` and ``bytes`` —
    the only types whose ``repr`` is a stable cross-version, cross-process
    contract.  Richer objects (floats, enums, dataclasses) are rejected
    with ``TypeError``: their reprs can differ between Python versions or
    leak process-local state (ids, addresses), which would silently
    desynchronize seed streams between fleet workers.
    """
    h = _FNV_OFFSET ^ (base & _MASK64)
    for part in path:
        if not isinstance(part, (str, int, bytes)):
            raise TypeError(
                "derive_seed path elements must be str, int or bytes; "
                f"got {type(part).__name__}: {part!r}"
            )
        for byte in repr(part).encode():
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
    # Avoid the xorshift fixed point at zero.
    return h or 0x9E3779B97F4A7C15


#: Default base seed for tool-level sweeps (matches ``VMOptions.seed``).
SWEEP_BASE = 0x5EED


def sweep_seed(namespace: str, scenario: str, index: int, *,
               base: int = SWEEP_BASE) -> int:
    """Derive the VM seed for one cell of a named sweep.

    The repo-wide *seed-namespace convention*: every tool that sweeps a
    scenario over an index range — the fault campaign
    (:mod:`repro.faults.campaign`), the schedule checker's random walks
    (:mod:`repro.check`) — derives its per-cell VM seeds as
    ``derive_seed(base, namespace, scenario, index)``:

    * ``namespace`` names the tool (``"campaign"``, ``"check"``, ...), so
      two tools sweeping the same scenario never share seed streams;
    * ``scenario`` is the scenario's registry name, so reordering or
      extending the scenario set never perturbs existing cells;
    * ``index`` is the cell's ordinal within the sweep (1-based for the
      campaign's ``--seeds`` range, 0-based for schedule walks — each
      tool documents its own origin, the derivation only needs it
      stable).

    The derived values are part of the determinism contract (reports and
    cached cells are keyed by them); ``tests/test_util_rng.py`` pins
    exact values so accidental drift fails loudly.
    """
    return derive_seed(base, namespace, scenario, index)


class DeterministicRng:
    """xorshift64* pseudo-random generator with convenience draws."""

    __slots__ = ("_state", "seed")

    def __init__(self, seed: int = 0x5EED):
        seed = seed & _MASK64
        self.seed = seed or 0x9E3779B97F4A7C15
        self._state = self.seed

    def _next(self) -> int:
        x = self._state
        x ^= (x >> 12) & _MASK64
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27) & _MASK64
        self._state = x
        return (x * _STAR) & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit draw."""
        return self._next()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range ``[lo, hi]``."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self._next() % span

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self._next() >> 11) / float(1 << 53)

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self._next() % len(seq)]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self._next() % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def exponential(self, mean: float) -> float:
        """Exponentially distributed draw with the given mean (> 0)."""
        import math

        if mean <= 0:
            raise ValueError("mean must be positive")
        u = 1.0 - self.random()  # in (0, 1]
        return -mean * math.log(u)

    def spawn(self, *path: "str | int | bytes") -> "DeterministicRng":
        """Create an independent child stream identified by ``path``."""
        return DeterministicRng(derive_seed(self.seed, *path))

    def getstate(self) -> int:
        return self._state

    def setstate(self, state: int) -> None:
        self._state = state & _MASK64 or 0x9E3779B97F4A7C15

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRng(seed={self.seed:#x}, state={self._state:#x})"
