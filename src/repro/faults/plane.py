"""The fault-injection plane: deterministic adversarial perturbations.

A :class:`FaultPlan` is pure configuration — rates and magnitudes for each
fault kind, plus its own sub-seed.  A :class:`FaultPlane` is the live
injector one VM owns (``VMOptions(faults=plan)``); it draws every decision
from ``vm.rng.spawn("faults", plan.seed)``, so injections depend only on
``(vm seed, plan)`` and the execution prefix — never on host state.

Fault kinds and where the VM consults the plane:

``guest_exception``
    At yield points (:meth:`on_yield_point`): deliver a guest exception to
    the running thread, dispatched through the ordinary exception tables.
    Inside a synchronized section this exercises the transformer's
    catch-all release handlers (monitorexit on the abnormal path = commit
    semantics, as in Java).

``revocation_storm``
    After scheduler slices (:meth:`on_slice_end`): post a spurious
    revocation request against some thread's active revocable section,
    through the support's :meth:`request_revocation` chokepoint — so
    storms are subject to the retry budget, backoff and degradation
    ladder like any legitimate request.

``handoff_delay``
    When a released monitor's successor is about to be made runnable
    (:meth:`handoff_delay`): postpone the wake-up by a fixed number of
    cycles, widening barge/contention windows.

``undo_perturb``
    Just before a rollback processes the undo log (:meth:`perturb_undo`):
    duplicate one entry of the section's log segment at the buffer's end.
    Provably behaviour-preserving — reverse processing applies the
    duplicate first and still finishes on the oldest entry per location —
    so the invariant auditor must keep passing.  The duplicate needs no
    JMM bookkeeping: a write's dependency record is its undo entry, and
    the rollback removes the duplicate with the rest of the segment.

``undo_drop``
    Just before a rollback processes the undo log (:meth:`drop_undo`):
    silently delete one entry from the rolling-back segment, so the
    revocation leaves one store of the aborted section visible — a
    *genuine* serializability bug, the opposite of ``undo_perturb``.  The
    entry's JMM dependency record stays behind as a stale record
    (:meth:`repro.core.jmm.JmmTracker.on_drop`).
    This kind exists as a seeded defect for the differential oracle
    (:mod:`repro.check.oracle`) to catch and minimize; robustness
    campaigns must never enable it (the invariant auditor rightly flags
    the corruption).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.revocation import RollbackSupport
    from repro.core.sections import Section
    from repro.vm.monitors import Monitor
    from repro.vm.threads import VMThread
    from repro.vm.vmcore import JVM


@dataclass(frozen=True)
class FaultPlan:
    """Configuration for one fault-injection campaign run."""

    #: sub-seed folded into the VM seed for the injector's RNG stream
    seed: int = 0xFA17
    #: per-yield-point probability of delivering a guest exception
    guest_exception_rate: float = 0.0
    guest_exception_class: str = "RuntimeException"
    #: per-slice probability of posting a spurious revocation request
    revocation_storm_rate: float = 0.0
    #: probability that a monitor release's successor wake-up is postponed
    handoff_delay_rate: float = 0.0
    handoff_delay_cycles: int = 2_000
    #: per-rollback probability of a benign undo-log perturbation
    undo_perturb_rate: float = 0.0
    #: per-rollback probability of *losing* one undo entry (a seeded,
    #: genuinely corrupting bug for the differential oracle; see module
    #: docstring) — never enable in correctness campaigns
    undo_drop_rate: float = 0.0
    #: total injections across all kinds (0 = unlimited)
    max_injections: int = 0

    def __post_init__(self) -> None:
        for name in (
            "guest_exception_rate",
            "revocation_storm_rate",
            "handoff_delay_rate",
            "undo_perturb_rate",
            "undo_drop_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.handoff_delay_cycles < 0:
            raise ValueError("handoff_delay_cycles must be non-negative")

    def any_enabled(self) -> bool:
        return (
            self.guest_exception_rate > 0
            or self.revocation_storm_rate > 0
            or self.handoff_delay_rate > 0
            or self.undo_perturb_rate > 0
            or self.undo_drop_rate > 0
        )


#: the chaos-soak fault plan of the server plane (``--chaos``) and the
#: ``server-storm`` capture: adversarial but behaviour-preserving kinds
#: only.  ``guest_exception`` would kill pool threads (conservation noise)
#: and ``undo_drop`` is a genuine seeded defect — both stay out of soak
#: campaigns and are exercised by the negative control instead.
CHAOS_PLAN = FaultPlan(
    seed=0xC4A0,
    revocation_storm_rate=0.10,
    handoff_delay_rate=0.02,
    handoff_delay_cycles=1_500,
    undo_perturb_rate=0.5,
)


class FaultPlane:
    """Live injector bound to one VM."""

    def __init__(self, vm: "JVM", plan: FaultPlan) -> None:
        self.vm = vm
        self.plan = plan
        self.rng = vm.rng.spawn("faults", plan.seed)
        self.counts: dict[str, int] = {}
        self.total = 0

    # -------------------------------------------------------------- helpers
    def _exhausted(self) -> bool:
        cap = self.plan.max_injections
        return bool(cap) and self.total >= cap

    def yield_quiet(self) -> bool:
        """True when :meth:`on_yield_point` is currently a pure no-op — it
        would neither draw from the RNG nor inject.  The superblock
        dispatch guard consults this before fusing across yield points:
        while it holds, skipping the per-yield-point probe entirely is
        unobservable.  Exhaustion can only flip this between superblock
        entries (injections happen outside fused code), never during one.
        """
        return self.plan.guest_exception_rate <= 0.0 or self._exhausted()

    def _record(self, kind: str, thread: "VMThread | None") -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.total += 1
        self.vm.trace("fault_inject", thread, fault=kind)

    def report(self) -> dict[str, int]:
        """Deterministic summary of what was injected."""
        out = {kind: self.counts[kind] for kind in sorted(self.counts)}
        out["total"] = self.total
        return out

    # -------------------------------------------------------- fault kinds
    def on_yield_point(self, thread: "VMThread") -> Optional[str]:
        """Returns a guest exception class to raise in ``thread``, or None."""
        rate = self.plan.guest_exception_rate
        if rate <= 0.0 or self._exhausted():
            return None
        if self.rng.random() >= rate:
            return None
        self._record("guest_exception", thread)
        return self.plan.guest_exception_class

    def on_slice_end(self) -> None:
        """Maybe post a spurious revocation request (revocation storm)."""
        rate = self.plan.revocation_storm_rate
        if rate <= 0.0 or self._exhausted():
            return
        if self.rng.random() >= rate:
            return
        request = getattr(self.vm.support, "request_revocation", None)
        if request is None:
            return  # storms only mean something on the rollback VM
        candidates: list[tuple["VMThread", "Section"]] = []
        for thread in self.vm.threads:  # spawn order: deterministic
            if not thread.is_live():
                continue
            for section in thread.sections:
                if not section.recursive and section.revocable:
                    candidates.append((thread, section))
                    break  # outermost eligible section per thread
        if not candidates:
            return
        holder, target = self.rng.choice(candidates)
        self._record("revocation_storm", holder)
        request(holder, target, origin="storm")

    def handoff_delay(
        self, thread: "VMThread", mon: "Monitor | None"
    ) -> int:
        """Cycles to postpone ``thread``'s post-release wake-up (0 = none)."""
        rate = self.plan.handoff_delay_rate
        if rate <= 0.0 or self._exhausted():
            return 0
        if self.rng.random() >= rate:
            return 0
        self._record("handoff_delay", thread)
        return self.plan.handoff_delay_cycles

    def perturb_undo(
        self,
        support: "RollbackSupport",
        thread: "VMThread",
        target: "Section",
    ) -> None:
        """Duplicate one undo entry of the section about to roll back."""
        rate = self.plan.undo_perturb_rate
        if rate <= 0.0 or self._exhausted():
            return
        log = thread.undo_log
        if log is None or len(log) <= target.log_mark:
            return
        if self.rng.random() >= rate:
            return
        idx = self.rng.randint(target.log_mark, len(log.entries) - 1)
        log.append(*log.entries[idx])
        support.retired -= 1  # an entry no barrier logged
        self._record("undo_perturb", thread)

    def drop_undo(
        self,
        support: "RollbackSupport",
        thread: "VMThread",
        target: "Section",
    ) -> None:
        """Delete one undo entry of the section about to roll back.

        The corresponding store survives the revocation — a seeded
        serializability defect for the differential oracle.  The entry's
        JMM record is kept, as a stale record: the corruption is the
        point."""
        rate = self.plan.undo_drop_rate
        if rate <= 0.0 or self._exhausted():
            return
        log = thread.undo_log
        if log is None or len(log) <= target.log_mark:
            return
        if self.rng.random() >= rate:
            return
        idx = self.rng.randint(target.log_mark, len(log.entries) - 1)
        support.jmm.on_drop(thread, idx)
        del log.entries[idx]
        support.retired += 1
        self._record("undo_drop", thread)
