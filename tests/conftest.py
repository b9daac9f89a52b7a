"""Shared test helpers.

The dominant pattern: build a tiny guest class with static fields and one
or more methods, spawn threads, run the VM, and assert on statics, traces
and metrics.  ``make_vm``/``run_single`` wrap that wiring.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

import pytest

from repro import Asm, ClassDef, FieldDef, JVM, VMOptions
from repro.errors import run_outcome


def make_vm(mode: str = "unmodified", **options) -> JVM:
    options.setdefault("trace", True)
    options.setdefault("max_cycles", 50_000_000)
    return JVM(VMOptions(mode=mode, **options))


def static_fields(*specs: str) -> list[FieldDef]:
    """Parse ``"name:kind[:volatile]"`` field specs (static fields)."""
    fields = []
    for spec in specs:
        parts = spec.split(":")
        name = parts[0]
        kind = parts[1] if len(parts) > 1 else "int"
        volatile = len(parts) > 2 and parts[2] == "volatile"
        fields.append(
            FieldDef(name, kind, volatile=volatile, is_static=True)
        )
    return fields


def build_class(
    name: str,
    fields: Iterable[str] = (),
    methods: Iterable[Asm] = (),
) -> ClassDef:
    cls = ClassDef(name, fields=static_fields(*fields))
    for asm in methods:
        cls.add_method(asm.build())
    return cls


def run_single(
    emit: Callable[[Asm], None],
    *,
    mode: str = "unmodified",
    fields: Iterable[str] = (),
    args: list | tuple = (),
    argc: int = 0,
    priority: int = 5,
    **vm_options,
) -> JVM:
    """Build one method from ``emit``, run it in one thread, return the VM.

    ``emit`` receives the :class:`Asm` and must NOT emit the final
    ``ret()`` (added automatically).
    """
    asm = Asm("main", argc=argc)
    emit(asm)
    asm.ret()
    cls = build_class("T", fields, [asm])
    vm = make_vm(mode, **vm_options)
    vm.load(cls)
    vm.spawn("T", "main", args=list(args), priority=priority, name="main")
    vm.run()
    return vm


def counter_vm(mode: str = "rollback", **vm_options) -> JVM:
    """An un-run contended VM: ``low`` (priority 1) counts 2,000 times
    under a lock that ``high`` (priority 10) wants after a 6,000-cycle
    sleep."""
    run = Asm("run", argc=2)  # (iters, delay)
    run.load(1).sleep()
    run.getstatic("T", "lock")
    with run.sync():
        i = run.local()
        run.for_range(i, lambda: run.load(0), lambda: (
            run.getstatic("T", "counter"), run.const(1), run.add(),
            run.putstatic("T", "counter"),
        ))
    run.ret()
    cls = build_class("T", ["lock:ref", "counter:int"], [run])
    vm = make_vm(mode, seed=3, **vm_options)
    vm.load(cls)
    vm.set_static("T", "lock", vm.new_object("T"))
    vm.spawn("T", "run", args=[2_000, 1], priority=1, name="low")
    vm.spawn("T", "run", args=[60, 6_000], priority=10, name="high")
    return vm


def drain(vm: JVM) -> str:
    """Step a VM's scheduler to the end and finish the run;
    returns the outcome string, as ``run_outcome`` names it."""
    def drive() -> None:
        while vm.scheduler.step():
            pass
        vm.finish_run()

    return run_outcome(drive)


def _count_hoisted_runs(sb, fn, ran: list):
    """``fn`` compiled again from ``sb.source`` with one line added: it
    sets ``ran[0]`` where the hoisted body starts (the ``while True:``
    whose first line sizes a stretch).  The same source otherwise, in
    the same namespace, so it runs as the generated function does."""
    lines = sb.source.splitlines()
    for k, line in enumerate(lines[1:], 1):
        if line.lstrip().startswith("k = (B - dn) // "):
            while_ = lines[k - 1]
            pad = while_[:len(while_) - len(while_.lstrip())]
            lines.insert(k - 1, f"{pad}HOISTED[0] = True")
            break
    else:
        return fn
    ns = dict(fn.__globals__, HOISTED=ran)
    exec(compile("\n".join(lines) + "\n", fn.__code__.co_filename,
                 "exec"), ns)
    return ns[fn.__name__]


def probe_superblocks(monkeypatch, guard: bool = False,
                      hoisted: bool = False) -> list[tuple]:
    """Record every superblock run of VMs predecoded from now on as
    ``(exit, logged)``: ``exit`` is ``"preempt"`` (``return -1``),
    ``"branch"`` (a branch out of the loop), ``"guest"`` (a guest
    exception) or ``"starved"``; ``logged`` counts the undo-log entries
    the run appended, all at its exit.  With ``guard`` each record goes
    on with the read-barrier guard ``RG`` the run was entered with (False
    when its VM has no inline guard); with ``hoisted`` it ends with
    whether the run passed its entry guard into the hoisted,
    strip-mined body (False for a loop that has none).  Each wrapper
    keeps the function it calls as ``__wrapped__``."""
    from repro.errors import GuestRuntimeError, StarvationError
    from repro.vm import predecode

    runs: list[tuple] = []
    instantiate = predecode.MethodTemplate.instantiate

    def wrap(sb, fn):
        live = fn.__globals__.get("LV")
        ran = [False]
        if hoisted:
            fn = _count_hoisted_runs(sb, fn, ran)

        @functools.wraps(fn)
        def run(stack, locals_, F, A, T, PW):
            before = len(T.undo_log or ())
            rg = live is not None and len(live) > (T.tid in live)
            ran[0] = False
            exit = "other"
            try:
                r = fn(stack, locals_, F, A, T, PW)
                exit = "preempt" if r < 0 else "branch"
                return r
            except GuestRuntimeError:
                exit = "guest"
                raise
            except StarvationError:
                exit = "starved"
                raise
            finally:
                record = (exit, len(T.undo_log or ()) - before)
                if guard:
                    record += (rg,)
                if hoisted:
                    record += (ran[0],)
                runs.append(record)
        return run

    def probed(self, vm, method):
        dm = instantiate(self, vm, method)
        for sb in dm.superblock_list:
            sb.fn = wrap(sb, sb.fn)
        return dm

    monkeypatch.setattr(predecode.MethodTemplate, "instantiate", probed)
    return runs


@pytest.fixture
def vm() -> JVM:
    return make_vm()


@pytest.fixture
def rollback_vm() -> JVM:
    return make_vm("rollback")
