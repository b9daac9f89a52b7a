"""Tests for the RuntimeSupport seam: the NullSupport contract and the
equivalence guarantee that the unmodified VM pays no hidden costs."""

from repro import Asm
from repro.vm.support import NullSupport, RuntimeSupport

from conftest import build_class, make_vm


class TestNullSupportContract:
    def test_barrier_hooks_return_zero(self):
        """The write-barrier hooks charge zero; ``after_load`` is a
        notification (its cost is the cost model's, charged by the
        interpreters)."""
        sup = NullSupport()
        assert sup.before_store(None, None, None, None) == 0
        assert sup.before_store_batch(None, [(None, None, None)] * 3) == 0
        assert sup.after_load(None, None, None) is None
        assert sup.store_barrier_cost(None) == 0

    def test_notification_hooks_return_none(self):
        sup = NullSupport()
        assert sup.on_monitor_entered(None, None, None, None, False) is None
        assert sup.on_monitor_exited(None, None, None, None) is None
        assert sup.on_contended_acquire(None, None) is None
        assert sup.on_handoff(None, None, None) is None
        assert sup.on_rollback_handler(None, None, False) is None
        assert sup.on_native_call(None, "x") is None
        assert sup.on_wait(None, None) is None
        assert sup.on_wait_reacquired(None, None) is None

    def test_check_yield_never_signals(self):
        assert NullSupport().check_yield(None) is None

    def test_resolve_deadlock_declines(self):
        assert NullSupport().resolve_deadlock([]) is False

    def test_base_class_is_the_null_behaviour(self):
        assert isinstance(NullSupport(), RuntimeSupport)
        assert NullSupport().name == "unmodified"

    def test_attach_binds_vm(self):
        sup = NullSupport()
        sentinel = object()
        sup.attach(sentinel)
        assert sup.vm is sentinel


class TestProfiledVmSupport:
    def test_profiled_vm_runs_its_own_support(self):
        """The profiler wraps nothing: a profiled rollback VM runs the
        support ``_build_support`` made, and the profiler watches that
        support's own metrics, the object its read-barrier guard hands to
        generated code."""
        from repro.core.revocation import RollbackSupport
        from repro.vm.vmcore import JVM, VMOptions

        vm = JVM(VMOptions(mode="rollback", profile=True))
        assert type(vm.support) is RollbackSupport
        live, metrics = vm.support.read_barrier_guard()
        assert live is vm.support.jmm.live
        assert metrics is vm.support.metrics
        assert vm.profiler._watched is vm.support.metrics

    def test_guardless_support_is_not_watched(self):
        from repro.vm.vmcore import JVM, VMOptions

        vm = JVM(VMOptions(mode="unmodified", profile=True))
        assert type(vm.support) is NullSupport
        assert vm.support.read_barrier_guard() is None
        assert vm.profiler._watched is None


class TestUnmodifiedVmCostNeutrality:
    def test_same_virtual_time_regardless_of_sync_content(self):
        """On the unmodified VM, running the identical single-threaded
        program twice gives bit-identical virtual time (no hidden state in
        the support layer)."""
        def run_once():
            a = Asm("run", argc=0)
            a.getstatic("T", "lock")
            with a.sync():
                i = a.local()
                a.for_range(i, lambda: a.const(500), lambda: (
                    a.getstatic("T", "x"), a.const(1), a.add(),
                    a.putstatic("T", "x"),
                ))
            a.ret()
            vm = make_vm("unmodified", seed=1)
            vm.load(build_class("T", ["lock:ref", "x:int"], [a]))
            vm.set_static("T", "lock", vm.new_object("T"))
            vm.spawn("T", "run", name="t")
            vm.run()
            return vm.clock.now

        assert run_once() == run_once()

    def test_write_ratio_barely_changes_unmodified_time(self):
        """Paper fig. 5: the UNMODIFIED series is flat in the write ratio
        — reads and writes cost the same without barriers.  (The taken
        branch of the interleaving test costs one extra GOTO per write,
        so "flat" means within a couple of percent, as in the paper's
        plots.)"""
        from repro.bench.harness import run_microbench
        from repro.bench.microbench import MicrobenchConfig

        def elapsed(write_pct):
            cfg = MicrobenchConfig(
                high_threads=1, low_threads=1, iters_high=300,
                iters_low=300, sections=3, write_pct=write_pct, seed=9,
            )
            return run_microbench(cfg, "unmodified").high_elapsed

        lo, hi = sorted((elapsed(0), elapsed(100)))
        assert hi / lo < 1.02

    def test_modified_time_grows_with_write_ratio(self):
        """...while the MODIFIED series pays the slow-path barrier per
        write, so 100% writes cost more than 0%."""
        from repro.bench.harness import run_microbench
        from repro.bench.microbench import MicrobenchConfig

        def elapsed(write_pct):
            cfg = MicrobenchConfig(
                high_threads=1, low_threads=1, iters_high=300,
                iters_low=300, sections=3, write_pct=write_pct, seed=9,
            )
            return run_microbench(cfg, "rollback").high_elapsed

        assert elapsed(100) > elapsed(0)
