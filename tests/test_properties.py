"""Property-based tests (hypothesis) on the core invariants.

The heavyweight properties run whole guest programs per example, so their
example counts are deliberately small; the pure data-structure properties
run with the default budget.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Asm, ClassDef, FieldDef
from repro.core.jmm import JmmTracker
from repro.core.undolog import UndoLog
from repro.core.transform import insert_instructions
from repro.util.rng import DeterministicRng, derive_seed
from repro.vm import bytecode as bc
from repro.vm.bytecode import Instruction
from repro.vm.classfile import MethodDef
from repro.vm.heap import Heap
from repro.vm.interpreter import _idiv, _imod
from repro.vm.monitors import Monitor
from repro.vm.threads import VMThread

from conftest import build_class, make_vm


# --------------------------------------------------------------------- rng
class TestRngProperties:
    @given(st.integers(min_value=0), st.integers(-1000, 1000),
           st.integers(0, 1000))
    def test_randint_always_in_range(self, seed, lo, span):
        rng = DeterministicRng(seed)
        hi = lo + span
        for _ in range(5):
            assert lo <= rng.randint(lo, hi) <= hi

    @given(st.integers(min_value=0), st.lists(st.integers(), min_size=1))
    def test_shuffle_is_permutation(self, seed, xs):
        rng = DeterministicRng(seed)
        ys = list(xs)
        rng.shuffle(ys)
        assert sorted(ys) == sorted(xs)

    @given(st.integers(min_value=0),
           st.lists(st.text(max_size=5), max_size=4))
    def test_derive_seed_deterministic(self, base, path):
        assert derive_seed(base, *path) == derive_seed(base, *path)
        assert derive_seed(base, *path) != 0


# ------------------------------------------------------ java arithmetic
class TestJavaArithmeticProperties:
    @given(st.integers(-10**9, 10**9),
           st.integers(-10**9, 10**9).filter(lambda b: b != 0))
    def test_division_identity(self, a, b):
        """Java: a == (a / b) * b + (a % b), quotient truncates to zero."""
        q, r = _idiv(a, b), _imod(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)
        # truncation toward zero: quotient magnitude never rounds up
        assert abs(q) == abs(a) // abs(b)

    @given(st.integers(-10**6, 10**6),
           st.integers(1, 10**6))
    def test_remainder_sign_follows_dividend(self, a, b):
        r = _imod(a, b)
        assert r == 0 or (r > 0) == (a > 0)


# ----------------------------------------------------------------- undo log
def _location_ops():
    return st.lists(
        st.tuples(
            st.sampled_from(["field", "array", "static"]),
            st.integers(0, 3),      # which container / index
            st.integers(-50, 50),   # value to write
        ),
        min_size=1,
        max_size=40,
    )


class TestUndoLogProperties:
    @given(_location_ops(), st.data())
    def test_rollback_restores_exact_snapshot(self, ops, data):
        heap = Heap()
        cls = ClassDef("C", fields=[
            FieldDef(f"f{i}") for i in range(4)
        ] + [FieldDef(f"s{i}", is_static=True) for i in range(4)])
        heap.register_class(cls)
        objs = [heap.allocate(cls) for _ in range(4)]
        arr = heap.allocate_array(4)
        log = UndoLog(heap)

        def snapshot():
            return (
                [dict(o.fields) for o in objs],
                arr.snapshot(),
                dict(heap.statics),
            )

        mark_at = data.draw(st.integers(0, len(ops)))
        mark = None
        for k, (kind, idx, value) in enumerate(ops):
            if k == mark_at:
                mark = (log.mark(), snapshot())
            if kind == "field":
                log.append(objs[idx], f"f{idx}",
                           objs[idx].put(f"f{idx}", value))
            elif kind == "array":
                log.append(arr, idx, arr.put(idx, value))
            else:
                key = ("C", f"s{idx}")
                log.append(key, f"s{idx}", heap.put_static(key, value))
        if mark is None:
            mark = (log.mark(), snapshot())
        pos, snap = mark
        log.rollback_to(pos)
        assert snapshot() == snap

    @given(_location_ops())
    def test_full_rollback_restores_defaults(self, ops):
        heap = Heap()
        cls = ClassDef("C", fields=[FieldDef("f")])
        heap.register_class(cls)
        obj = heap.allocate(cls)
        arr = heap.allocate_array(4)
        log = UndoLog(heap)
        for kind, idx, value in ops:
            if kind == "array":
                log.append(arr, idx, arr.put(idx, value))
            else:
                log.append(obj, "f", obj.put("f", value))
        log.rollback_to(0)
        assert obj.get("f") == 0
        assert arr.snapshot() == [0, 0, 0, 0]


# ---------------------------------------------------------------- jmm model
class TestJmmTrackerModel:
    @given(st.lists(
        st.tuples(
            st.sampled_from(["write", "undo", "commit", "read"]),
            st.integers(0, 2),   # thread id
            st.integers(0, 3),   # location id
        ),
        max_size=60,
    ))
    def test_against_reference_model(self, ops):
        """The tracker must agree with a brute-force model: per location,
        per thread, a stack of section tuples."""
        tracker = JmmTracker()
        threads = {
            tid: VMThread(
                tid, f"t{tid}",
                MethodDef(name="r", code=[Instruction(bc.RETURN, 0)]),
                [],
            )
            for tid in range(3)
        }
        model: dict[tuple, dict[int, list]] = {}
        section_counter = [0]

        for op, tid, loc_id in ops:
            loc = ("f", loc_id, "x")
            thread = threads[tid]
            if op == "write":
                section_counter[0] += 1
                sections = (f"s{section_counter[0]}",)
                tracker.on_write(thread, loc, sections)
                model.setdefault(loc, {}).setdefault(tid, []).append(
                    sections
                )
            elif op == "undo":
                tracker.on_undo(thread, loc)
                stack = model.get(loc, {}).get(tid)
                if stack:
                    stack.pop()
                    if not stack:
                        del model[loc][tid]
                        if not model[loc]:
                            del model[loc]
            elif op == "commit":
                tracker.on_commit(thread, [loc])
                if loc in model and tid in model[loc]:
                    del model[loc][tid]
                    if not model[loc]:
                        del model[loc]
            else:  # read
                assert tracker.on_read(thread, loc) == self._model_read(
                    model, tid, loc
                )
            self._check_live(tracker, model)

    @staticmethod
    def _model_read(model: dict, tid: int, loc: tuple) -> tuple:
        expected = ()
        for other_tid, stack in model.get(loc, {}).items():
            if other_tid != tid and stack:
                expected += stack[-1]
        return expected

    def _check_live(self, tracker: JmmTracker, model: dict) -> None:
        """``live`` holds each tid's record total, and the read fast path
        (``len(live) > (tid in live)`` false) is taken for a tid exactly
        when the model's read of every location by that tid is empty."""
        totals: dict[int, int] = {}
        for per_tid in model.values():
            for tid, stack in per_tid.items():
                totals[tid] = totals.get(tid, 0) + len(stack)
        assert tracker.live == totals
        live = tracker.live
        for tid in range(3):
            fast = not len(live) > (tid in live)
            silent = all(
                self._model_read(model, tid, ("f", loc_id, "x")) == ()
                for loc_id in range(4)
            )
            assert fast == silent


# --------------------------------------------------------- monitor queues
class TestMonitorQueueProperties:
    @given(st.lists(st.integers(1, 10), min_size=1, max_size=8))
    def test_handoff_order_priority_then_fifo(self, priorities):
        """Whatever the queue contents, release hands to the highest
        priority, FIFO among equals."""
        from repro.vm.classfile import ClassDef as CD
        from repro.vm.heap import VMObject

        mon = Monitor(VMObject(1, CD("C")))
        holder = VMThread(
            99, "h", MethodDef(name="r", code=[Instruction(bc.RETURN, 0)]),
            [],
        )
        mon.try_acquire(holder)
        waiters = []
        for i, p in enumerate(priorities):
            t = VMThread(
                i, f"w{i}",
                MethodDef(name="r", code=[Instruction(bc.RETURN, 0)]),
                [], priority=p,
            )
            mon.enqueue(t)
            waiters.append(t)
        # reference order: stable sort by -priority
        expected = [
            t.tid for t in sorted(
                waiters, key=lambda t: -t.priority
            )
        ]
        actual = []
        current = holder
        while True:
            nxt = mon.release(current)
            if nxt is None:
                break
            actual.append(nxt.tid)
            current = nxt
        assert actual == expected


# ------------------------------------------------------ editor relocation
class TestRelocationProperties:
    @given(st.lists(st.integers(0, 30), min_size=0, max_size=6),
           st.integers(2, 12))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_nop_insertion_preserves_semantics(self, insert_points, n):
        """A loop summing 0..n-1 computes the same result after NOPs are
        inserted at arbitrary points (relocation correctness)."""
        def build():
            a = Asm("run", argc=0)
            i = a.local()
            a.for_range(i, lambda: a.const(n), lambda: (
                a.getstatic("T", "out"), a.load(i), a.add(),
                a.putstatic("T", "out"),
            ))
            a.ret()
            return build_class("T", ["out:int"], [a])

        def result(cls):
            vm = make_vm()
            vm.load(cls)
            vm.spawn("T", "run", name="t")
            vm.run()
            return vm.get_static("T", "out")

        expected = result(build())
        cls = build()
        method = cls.method("run")
        for point in insert_points:
            # never insert after the terminating RETURN: a trailing NOP is
            # (correctly) rejected by the verifier as falling off the end
            at = point % len(method.code)
            insert_instructions(method, at, [Instruction(bc.NOP)])
        method.verify()
        assert result(cls) == expected


# ----------------------------------------------- end-to-end transparency
@st.composite
def bench_params(draw):
    return dict(
        threads=draw(st.integers(2, 4)),
        iters=draw(st.integers(50, 400)),
        seed=draw(st.integers(0, 2**32)),
        priorities=draw(st.lists(st.integers(1, 10), min_size=4,
                                 max_size=4)),
    )


class TestRevocationTransparency:
    @given(bench_params())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_counter_exact_under_any_schedule(self, params):
        """THE transparency property: whatever revocations the schedule
        produces, a monitor-protected counter ends exactly at the sum of
        all increments, and the undo accounting balances."""
        run = Asm("run", argc=1)
        run.pause(800)
        run.getstatic("T", "lock")
        with run.sync():
            i = run.local()
            run.for_range(i, lambda: run.load(0), lambda: (
                run.getstatic("T", "counter"), run.const(1), run.add(),
                run.putstatic("T", "counter"),
            ))
        run.ret()
        cls = build_class("T", ["lock:ref", "counter:int"], [run])
        vm = make_vm("rollback", seed=params["seed"])
        vm.load(cls)
        vm.set_static("T", "lock", vm.new_object("T"))
        for k in range(params["threads"]):
            vm.spawn(
                "T", "run", args=[params["iters"]],
                priority=params["priorities"][k], name=f"t{k}",
            )
        vm.run()
        assert (
            vm.get_static("T", "counter")
            == params["threads"] * params["iters"]
        )
        s = vm.metrics()["support"]
        assert s["undo_entries_restored"] <= s["undo_entries_logged"]
        assert s["sections_committed"] >= params["threads"]

    @given(st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_replay(self, seed):
        from repro.bench.harness import run_microbench
        from repro.bench.microbench import MicrobenchConfig

        config = MicrobenchConfig(
            high_threads=1, low_threads=2, iters_high=40, iters_low=120,
            sections=2, write_pct=40, seed=seed,
        )
        a = run_microbench(config, "rollback")
        b = run_microbench(config, "rollback")
        assert a.total_cycles == b.total_cycles
        assert a.high_elapsed == b.high_elapsed
        assert a.rollbacks == b.rollbacks
        assert a.metrics["support"] == b.metrics["support"]
