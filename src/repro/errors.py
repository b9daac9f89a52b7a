"""Exception hierarchy for the ``repro`` library.

Two families of errors exist:

* Host-level errors (:class:`ReproError` subclasses) raised to the *user of
  the library* — malformed bytecode, bad configuration, deadlock that the
  configured policy could not resolve, and so on.

* Guest-level exceptions — exceptions *inside* the simulated VM.  Those are
  ordinary heap objects (see :mod:`repro.vm.heap`) thrown with the ``ATHROW``
  bytecode and routed through per-method exception tables; they never surface
  as Python exceptions unless a guest thread dies with one uncaught, in which
  case the VM wraps it in :class:`UncaughtGuestException`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM


class ReproError(Exception):
    """Base class for all host-level errors raised by this library."""


class VerifyError(ReproError):
    """Malformed class/bytecode detected at load or transform time.

    Mirrors the JVM's ``VerifyError``: raised when branch targets fall
    outside the method, exception-table ranges are inverted, monitorenter /
    monitorexit pairs cannot be matched, or operand-stack effects are
    inconsistent.
    """


class LinkError(ReproError):
    """Unresolvable symbolic reference (class, field, method or native)."""


class VMStateError(ReproError):
    """Operation attempted in an invalid VM state.

    Examples: spawning a thread after :meth:`repro.vm.vmcore.JVM.run`
    completed, joining a thread that was never started, re-running a VM.
    """


class GuestRuntimeError(ReproError):
    """A guest-level runtime fault (the analogue of a JVM runtime exception).

    The interpreter converts these into *guest* exception objects of class
    ``guest_class`` and dispatches them through the guest program's
    exception tables — they only surface to the host when uncaught.
    """

    def __init__(self, message: str, guest_class: str = "RuntimeException"):
        self.guest_class = guest_class
        super().__init__(message)


class UncaughtGuestException(ReproError):
    """A guest thread terminated with an exception no handler caught."""

    def __init__(self, thread_name: str, exc_class: str, detail: str = ""):
        self.thread_name = thread_name
        self.exc_class = exc_class
        self.detail = detail
        super().__init__(
            f"uncaught guest exception {exc_class!r} in thread "
            f"{thread_name!r}{': ' + detail if detail else ''}"
        )


class DeadlockError(ReproError):
    """A deadlock was detected and the active policy could not resolve it.

    Carries the cycle of thread names so callers (and tests) can inspect the
    wait-for structure that caused the failure.
    """

    def __init__(self, cycle: list[str], reason: str = ""):
        self.cycle = list(cycle)
        self.reason = reason
        msg = " -> ".join(self.cycle + self.cycle[:1])
        super().__init__(
            f"unresolvable deadlock: {msg}{' (' + reason + ')' if reason else ''}"
        )


class ScheduleError(ReproError):
    """A scheduler decision hook made an unserviceable choice.

    Raised when the hook returns a thread id that is not among the ready
    candidates it was offered — a blocked, sleeping, dead or unknown
    thread.  Carries both sides so exploration tooling can print the
    decision that went wrong.
    """

    def __init__(self, chosen: object, candidates: list[int]):
        self.chosen = chosen
        self.candidates = list(candidates)
        super().__init__(
            f"decision hook chose thread id {chosen!r}; ready candidates "
            f"are {self.candidates}"
        )


class StarvationError(ReproError):
    """The VM ran past its configured cycle budget without quiescing.

    A safety valve for tests and benchmarks: virtual time is unbounded, so a
    livelocked guest program would otherwise spin the host forever.
    """

    def __init__(self, cycles: int):
        self.cycles = cycles
        super().__init__(f"VM exceeded its cycle budget ({cycles} cycles)")


class TransformError(ReproError):
    """The bytecode transformer could not rewrite a method safely."""


class InvariantViolation(ReproError):
    """The post-rollback invariant auditor found corrupted state.

    A revocation must leave the heap "as if the section never ran"
    (paper §3.1.2).  The auditor re-derives the expected pre-section value
    of every location the section logged and compares it against the heap
    after the undo log was processed; any mismatch — or an undo log whose
    length does not return to the section's mark, or section marks that no
    longer nest monotonically — raises this error.  Fault-injection
    campaigns assert that no run ever raises it.
    """

    def __init__(self, thread_name: str, detail: str):
        self.thread_name = thread_name
        self.detail = detail
        super().__init__(
            f"rollback invariant violated in thread {thread_name!r}: {detail}"
        )


def run_outcome(run: Callable[[], object]) -> str:
    """Call ``run`` and name how the run ended.

    ``"completed"``, ``"deadlock"``, ``"starvation"`` or
    ``"uncaught:<Class>"`` — the outcome strings that captures, the
    debugger's recordings and the schedule checker's fingerprints share.
    Any other error propagates.
    """
    try:
        run()
    except DeadlockError:
        return "deadlock"
    except StarvationError:
        return "starvation"
    except UncaughtGuestException as exc:
        return f"uncaught:{exc.exc_class}"
    return "completed"


def audited_run(
    vm: "JVM", check: Callable[["JVM"], list[str]]
) -> tuple[str, list[str]]:
    """Run an audited VM and return ``(outcome, violations)``.

    The fault campaign's and the server soak's one run: an auditor
    finding is ``"invariant-violation"``, a deadlock or starvation names
    its error class, and any other host error is a robustness bug, also
    named by its class.  Only a completed run is handed to ``check``,
    whose findings become the violations.
    """
    try:
        vm.run()
    except InvariantViolation as exc:
        return "invariant-violation", [str(exc)]
    except (DeadlockError, StarvationError) as exc:
        name = type(exc).__name__
        return name, [f"run did not complete: {name}"]
    except ReproError as exc:
        name = type(exc).__name__
        return name, [f"{name}: {exc}"]
    return "completed", list(check(vm))
