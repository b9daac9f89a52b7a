"""JMM-consistency integration tests (paper §2).

Recreates the paper's Figures 2 and 4 scenarios plus the §2.2 rules for
native methods and ``wait``, and checks that non-revocability actually
blocks revocation (the contender falls back to classic blocking).
"""

import pytest

from repro import Asm
from repro.check.scenarios import scenarios
from repro.errors import DeadlockError, UncaughtGuestException

from conftest import build_class, make_vm


def _writer_reader_contender(cls_name, *, volatile=False, nested=True):
    """Builds the Figure 2 (nested) / Figure 3 (volatile) programs.

    * writer (prio 1): enters outer (and inner when nested), writes v,
      exits inner, then spins holding outer.
    * reader (prio 5): after a delay, reads v (through inner's monitor in
      the nested variant; bare volatile read otherwise).
    * contender (prio 10): after a longer delay, tries to enter outer.
    """
    fields = ["outer:ref", "inner:ref", "seen:int"]
    fields.append("v:int:volatile" if volatile else "v:int")
    writer = Asm("writer", argc=0)
    writer.getstatic(cls_name, "outer")
    with writer.sync():
        if nested:
            writer.getstatic(cls_name, "inner")
            with writer.sync():
                writer.const(1).putstatic(cls_name, "v")
        else:
            writer.const(1).putstatic(cls_name, "v")
        i = writer.local()
        writer.for_range(i, lambda: writer.const(4_000), lambda:
                         writer.const(0).pop())
    writer.ret()

    reader = Asm("reader", argc=0)
    reader.const(2_000).sleep()
    if nested:
        reader.getstatic(cls_name, "inner")
        with reader.sync():
            reader.getstatic(cls_name, "v").putstatic(cls_name, "seen")
    else:
        reader.getstatic(cls_name, "v").putstatic(cls_name, "seen")
    reader.ret()

    contender = Asm("contender", argc=0)
    contender.const(6_000).sleep()
    contender.getstatic(cls_name, "outer")
    with contender.sync():
        contender.const(0).pop()
    contender.ret()
    return build_class(cls_name, fields, [writer, reader, contender])


def run_scenario(cls, *, spawn_reader=True):
    vm = make_vm("rollback")
    vm.load(cls)
    vm.set_static(cls.name, "outer", vm.new_object(cls.name))
    vm.set_static(cls.name, "inner", vm.new_object(cls.name))
    vm.spawn(cls.name, "writer", priority=1, name="T")
    if spawn_reader:
        vm.spawn(cls.name, "reader", priority=5, name="T2")
    vm.spawn(cls.name, "contender", priority=10, name="Th")
    vm.run()
    return vm


class TestFigure2Nesting:
    def test_exposed_write_pins_sections(self):
        vm = run_scenario(_writer_reader_contender("F", nested=True))
        assert vm.get_static("F", "seen") == 1  # the read was legal
        s = vm.metrics()["support"]
        assert s["nonrevocable_dependency"] >= 1
        assert s["revocations_completed"] == 0
        assert s["revocations_denied_nonrevocable"] >= 1

    def test_without_reader_revocation_proceeds(self):
        """Control: same program minus the reader — nothing is exposed, so
        the high-priority contender CAN revoke the writer."""
        vm = run_scenario(
            _writer_reader_contender("F", nested=True), spawn_reader=False
        )
        s = vm.metrics()["support"]
        assert s["revocations_completed"] >= 1

    def test_reader_with_same_monitor_discipline_is_safe(self):
        """Paper §2.2 intuition: 'programmers guard accesses to the same
        subset of shared data using the same set of monitors; in such cases
        there is no need to force non-revocability'.  A reader that takes
        the OUTER monitor is excluded until commit, so nothing is pinned
        by it."""
        cls_name = "G"
        writer = Asm("writer", argc=0)
        writer.getstatic(cls_name, "outer")
        with writer.sync():
            writer.const(1).putstatic(cls_name, "v")
            i = writer.local()
            writer.for_range(i, lambda: writer.const(4_000), lambda:
                             writer.const(0).pop())
        writer.ret()

        reader = Asm("reader", argc=0)
        reader.const(2_000).sleep()
        reader.getstatic(cls_name, "outer")
        with reader.sync():
            reader.getstatic(cls_name, "v").putstatic(cls_name, "seen")
        reader.ret()
        cls = build_class(cls_name, ["outer:ref", "v:int", "seen:int"],
                          [writer, reader])
        vm = make_vm("rollback")
        vm.load(cls)
        vm.set_static(cls_name, "outer", vm.new_object(cls_name))
        vm.spawn(cls_name, "writer", priority=1, name="T")
        vm.spawn(cls_name, "reader", priority=5, name="T2")
        vm.run()
        s = vm.metrics()["support"]
        assert s["nonrevocable_dependency"] == 0


class TestFigure3Volatile:
    def test_volatile_exposure_pins_section(self):
        vm = run_scenario(_writer_reader_contender(
            "V", volatile=True, nested=False,
        ))
        assert vm.get_static("V", "seen") == 1
        s = vm.metrics()["support"]
        assert s["revocations_completed"] == 0
        assert s["nonrevocable_marks"] >= 1

    def test_volatile_write_outside_section_is_free(self):
        """A volatile write by a thread in no section is committed
        immediately — it never pins anything."""
        cls_name = "W"
        writer = Asm("writer", argc=0)
        writer.const(1).putstatic(cls_name, "v")
        writer.ret()
        reader = Asm("reader", argc=0)
        reader.const(500).sleep()
        reader.getstatic(cls_name, "v").putstatic(cls_name, "seen")
        reader.ret()
        cls = build_class(cls_name, ["v:int:volatile", "seen:int"],
                          [writer, reader])
        vm = make_vm("rollback")
        vm.load(cls)
        vm.spawn(cls_name, "writer", priority=1, name="T")
        vm.spawn(cls_name, "reader", priority=5, name="T2")
        vm.run()
        assert vm.get_static(cls_name, "seen") == 1
        assert vm.metrics()["support"]["nonrevocable_marks"] == 0


class TestNativeRule:
    def test_native_call_pins_all_enclosing_sections(self):
        cls_name = "N"
        low = Asm("low", argc=0)
        low.getstatic(cls_name, "outer")
        with low.sync():
            low.getstatic(cls_name, "inner")
            with low.sync():
                low.const("inside").native("println", 1)
                i = low.local()
                low.for_range(i, lambda: low.const(4_000), lambda:
                              low.const(0).pop())
        low.ret()

        high = Asm("high", argc=0)
        high.const(3_000).sleep()
        high.getstatic(cls_name, "outer")
        with high.sync():
            high.const(0).pop()
        high.ret()
        cls = build_class(cls_name, ["outer:ref", "inner:ref"], [low, high])
        vm = make_vm("rollback")
        vm.load(cls)
        vm.set_static(cls_name, "outer", vm.new_object(cls_name))
        vm.set_static(cls_name, "inner", vm.new_object(cls_name))
        vm.spawn(cls_name, "low", priority=1, name="low")
        vm.spawn(cls_name, "high", priority=10, name="high")
        vm.run()
        s = vm.metrics()["support"]
        assert s["nonrevocable_native"] == 2  # outer AND inner pinned
        assert s["revocations_completed"] == 0
        assert vm.console == ["inside"]  # printed exactly once: no re-run

    def test_native_call_before_section_is_free(self):
        cls_name = "M"
        low = Asm("low", argc=0)
        low.const("outside").native("println", 1)
        low.getstatic(cls_name, "lock")
        with low.sync():
            i = low.local()
            low.for_range(i, lambda: low.const(4_000), lambda:
                          low.const(0).pop())
        low.ret()

        high = Asm("high", argc=0)
        high.const(3_000).sleep()
        high.getstatic(cls_name, "lock")
        with high.sync():
            high.const(0).pop()
        high.ret()
        cls = build_class(cls_name, ["lock:ref"], [low, high])
        vm = make_vm("rollback")
        vm.load(cls)
        vm.set_static(cls_name, "lock", vm.new_object(cls_name))
        vm.spawn(cls_name, "low", priority=1, name="low")
        vm.spawn(cls_name, "high", priority=10, name="high")
        vm.run()
        s = vm.metrics()["support"]
        assert s["nonrevocable_native"] == 0
        assert s["revocations_completed"] >= 1


class TestWaitRule:
    def test_wait_pins_enclosing_sections(self):
        """wait inside nested monitors -> enclosing sections become
        non-revocable; a later inversion on the outer lock is denied."""
        cls_name = "Q"
        low = Asm("low", argc=0)
        low.getstatic(cls_name, "outer")
        with low.sync():
            low.getstatic(cls_name, "inner")
            with low.sync():
                low.getstatic(cls_name, "inner").const(1_000).timed_wait()
            i = low.local()
            low.for_range(i, lambda: low.const(4_000), lambda:
                          low.const(0).pop())
        low.ret()

        high = Asm("high", argc=0)
        high.const(3_000).sleep()
        high.getstatic(cls_name, "outer")
        with high.sync():
            high.const(0).pop()
        high.ret()
        cls = build_class(cls_name, ["outer:ref", "inner:ref"], [low, high])
        vm = make_vm("rollback")
        vm.load(cls)
        vm.set_static(cls_name, "outer", vm.new_object(cls_name))
        vm.set_static(cls_name, "inner", vm.new_object(cls_name))
        vm.spawn(cls_name, "low", priority=1, name="low")
        vm.spawn(cls_name, "high", priority=10, name="high")
        vm.run()
        s = vm.metrics()["support"]
        assert s["nonrevocable_wait"] >= 2
        assert s["revocations_completed"] == 0


class TestFigure4Semantics:
    def test_producer_consumer_dependency_completes(self):
        """The paper's Figure 4: T' loops reading v under ``inner`` until T
        (inside ``outer``+``inner``) sets it.  Re-scheduling T' before T is
        semantically impossible; our runtime handles it by pinning T's
        sections once T' observes the write, and the program completes on
        both VMs."""
        cls_name = "P"
        t = Asm("t", argc=0)
        t.getstatic(cls_name, "outer")
        with t.sync():
            t.getstatic(cls_name, "inner")
            with t.sync():
                t.const(1).putstatic(cls_name, "v")
            i = t.local()
            t.for_range(i, lambda: t.const(2_000), lambda:
                        t.const(0).pop())
        t.ret()

        # T': while (true) { synchronized(inner) { if (v) break; } }
        # expressed as a flag-polling loop so the break lands cleanly
        # outside the monitorexit (javac compiles Figure 4 the same way:
        # the break jumps to code after the release).
        def _poll(a, cn, flag_local):
            a.getstatic(cn, "inner")
            with a.sync():
                a.getstatic(cn, "v").store(flag_local)

        t2 = Asm("t2", argc=0)
        flag = t2.local()
        t2.const(0).store(flag)
        t2.while_(
            lambda: t2.load(flag).not_(),
            lambda: _poll(t2, cls_name, flag),
        )
        t2.const(1).putstatic(cls_name, "observed")
        t2.ret()

        cls = build_class(
            cls_name, ["outer:ref", "inner:ref", "v:int", "observed:int"],
            [t, t2],
        )
        for mode in ("unmodified", "rollback"):
            vm = make_vm(mode)
            vm.load(cls)
            vm.set_static(cls_name, "outer", vm.new_object(cls_name))
            vm.set_static(cls_name, "inner", vm.new_object(cls_name))
            vm.spawn(cls_name, "t", priority=1, name="T")
            vm.spawn(cls_name, "t2", priority=5, name="T2")
            vm.run()
            assert vm.get_static(cls_name, "observed") == 1, mode
            assert vm.get_static(cls_name, "v") == 1, mode


# ------------------------------------------------- commit fast path, live
def _drop_scenario():
    """The victim's first execution of its section logs one write, to
    ``a``; the revocation drops that entry (``undo_drop_rate=1.0``), so its
    JMM record outlives the log.  The contender sets ``flag`` outside any
    section before contending, so the re-execution writes ``b`` instead
    and never touches ``a`` again.  A late reader then reads ``a``."""
    victim = Asm("victim", argc=0)
    victim.getstatic("D", "lock")
    with victim.sync():
        victim.if_then(
            lambda: victim.getstatic("D", "flag").const(0).eq(),
            lambda: victim.const(1).putstatic("D", "a"),
            lambda: victim.const(1).putstatic("D", "b"),
        )
        i = victim.local()
        victim.for_range(i, lambda: victim.const(3_000), lambda:
                         victim.const(0).pop())
    victim.ret()

    contender = Asm("contender", argc=0)
    contender.const(4_000).sleep()
    contender.const(1).putstatic("D", "flag")
    contender.getstatic("D", "lock")
    with contender.sync():
        contender.const(0).pop()
    contender.ret()

    reader = Asm("reader", argc=0)
    reader.const(200_000).sleep()
    reader.getstatic("D", "a").putstatic("D", "seen")
    reader.ret()
    return build_class(
        "D", ["lock:ref", "flag:int", "a:int", "b:int", "seen:int"],
        [victim, contender, reader],
    )


class TestCommitFastPath:
    def test_dropped_undo_takes_per_location_commit(self, monkeypatch):
        from repro import FaultPlan
        from repro.core.jmm import JmmTracker

        commits = []
        commit_all = JmmTracker.commit_all

        def spy(self, thread, log_len):
            took = commit_all(self, thread, log_len)
            commits.append((thread.name, dict(self.live), log_len, took))
            return took

        monkeypatch.setattr(JmmTracker, "commit_all", spy)
        vm = make_vm("rollback", faults=FaultPlan(undo_drop_rate=1.0))
        vm.load(_drop_scenario())
        vm.set_static("D", "lock", vm.new_object("D"))
        victim = vm.spawn("D", "victim", priority=1, name="V")
        vm.spawn("D", "contender", priority=10, name="H")
        vm.spawn("D", "reader", priority=5, name="R")
        vm.run()

        support = vm.support
        s = vm.metrics()["support"]
        assert s["revocations_completed"] == 1
        assert vm.fault_plane.counts["undo_drop"] == 1
        # the seeded defect: the dropped store to ``a`` survived
        assert vm.get_static("D", "a") == 1
        assert vm.get_static("D", "b") == 1
        # the victim's commit saw one record more than its log held, so
        # it took the per-location path, not the O(1) clear
        assert ("V", {victim.tid: 2}, 1, False) in commits
        # the stale record on ``a`` outlived the commit ...
        assert support.jmm.speculative_writers(("s", "D", "a")) == [
            victim.tid
        ]
        assert support.jmm.live == {victim.tid: 1}
        # ... so the late reader still pinned the section that wrote it
        pins = [e for e in vm.tracer.of_kind("nonrevocable")
                if e.thread == "R"]
        assert len(pins) == 1
        assert pins[0].details["reason"] == "read-write-dependency"
        assert s["nonrevocable_dependency"] == 1

    def test_perturbed_undo_keeps_live_balanced(self, monkeypatch):
        from repro import FaultPlan
        from repro.core.revocation import RollbackSupport

        balanced = []
        check_yield = RollbackSupport.check_yield

        def spy(self, thread):
            signal = check_yield(self, thread)
            if signal is not None:
                log = thread.undo_log
                balanced.append(
                    self.jmm.live.get(thread.tid, 0) == len(log)
                )
            return signal

        monkeypatch.setattr(RollbackSupport, "check_yield", spy)
        run = Asm("run", argc=0)
        run.getstatic("P", "lock")
        with run.sync():
            i = run.local()
            run.for_range(i, lambda: run.const(2_000), lambda: (
                run.getstatic("P", "counter"), run.const(1), run.add(),
                run.putstatic("P", "counter"),
            ))
        run.ret()
        vm = make_vm(
            "rollback",
            faults=FaultPlan(revocation_storm_rate=1.0,
                             undo_perturb_rate=1.0),
            livelock_grace=0, revocation_backoff=0,
            revocation_retry_budget=3, watchdog_interval=0,
        )
        vm.load(build_class("P", ["lock:ref", "counter:int"], [run]))
        vm.set_static("P", "lock", vm.new_object("P"))
        vm.spawn("P", "run", name="victim")
        vm.run()

        assert vm.get_static("P", "counter") == 2_000
        assert vm.fault_plane.counts["undo_perturb"] >= 1
        assert balanced and all(balanced)
        assert vm.support.jmm.live == {}
        assert len(vm.support.jmm) == 0


@pytest.mark.parametrize("interp", ("reference", "fast"))
@pytest.mark.parametrize("name", sorted(scenarios()))
def test_rollback_scenarios_quiesce_empty(name, interp):
    """Every checker scenario, run to quiescence on the rollback VM,
    leaves no JMM record behind: every speculative write was committed
    or undone, and ``live`` agrees."""
    scenario = scenarios()[name]
    vm = make_vm("rollback", interp=interp, **scenario.options)
    scenario.build().install(vm)
    try:
        vm.run()
    except (DeadlockError, UncaughtGuestException):
        pass
    assert len(vm.support.jmm) == 0
    assert vm.support.jmm.live == {}
