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


# --------------------------------------------------------------- jmm oracle
class MapTracker:
    """The per-location JMM tracker the log-derived one replaced, kept
    here only as its oracle: every logged write pushes its section tuple
    onto a per-location, per-thread stack; an undo pops the top, an
    outermost commit drops the thread's stacks at every location its log
    touched, and a read by another thread reports the top of each
    writer's stack, writers in insertion order of their stacks."""

    def __init__(self) -> None:
        self.map: dict = {}
        self.live: dict[int, int] = {}

    def write(self, tid: int, loc, sections) -> None:
        self.map.setdefault(loc, {}).setdefault(tid, []).append(sections)
        self.live[tid] = self.live.get(tid, 0) + 1

    def undo(self, tid: int, loc) -> None:
        stack = self.map.get(loc, {}).get(tid)
        if not stack:
            return
        stack.pop()
        if not stack:
            del self.map[loc][tid]
            if not self.map[loc]:
                del self.map[loc]
        self._release(tid, 1)

    def commit(self, tid: int, locs) -> None:
        released = 0
        for loc in locs:
            stack = self.map.get(loc, {}).pop(tid, None)
            if stack is not None:
                released += len(stack)
                if not self.map[loc]:
                    del self.map[loc]
        if released:
            self._release(tid, released)

    def _release(self, tid: int, n: int) -> None:
        left = self.live[tid] - n
        if left:
            self.live[tid] = left
        else:
            del self.live[tid]

    def read(self, tid: int, loc) -> tuple:
        result = ()
        for writer, stack in self.map.get(loc, {}).items():
            if writer != tid:
                result += stack[-1]
        return result


class _Box:
    """A heap container, keyed by identity like VMObject and VMArray."""


#: two instance slots, an array element and a static (keyed by value)
_JMM_LOCS = (
    (_Box(), "x"), (_Box(), "x"), (_Box(), 0), (("C", "s"), "s"),
)
_JMM_THREADS = 4

settings.register_profile(
    "jmm-oracle", derandomize=True, max_examples=150, deadline=None,
)

#: one barrier call: a run of stores under a nested section tuple
_jmm_write = st.tuples(
    st.just("write"), st.integers(0, _JMM_THREADS - 1),
    st.lists(st.integers(0, len(_JMM_LOCS) - 1), min_size=1, max_size=4),
    st.integers(1, 3),
)
_jmm_ops = st.lists(
    st.one_of(
        # writes drawn twice as often, so several writers share locations
        _jmm_write, _jmm_write,
        st.tuples(st.just("rollback"), st.integers(0, _JMM_THREADS - 1),
                  st.integers(0, 8)),
        st.tuples(st.just("commit"), st.integers(0, _JMM_THREADS - 1)),
        # undo_perturb / undo_drop: mark, entry, then the rollback
        st.tuples(st.sampled_from(["perturb", "drop", "both"]),
                  st.integers(0, _JMM_THREADS - 1),
                  st.integers(0, 8), st.integers(0, 8)),
    ),
    min_size=8, max_size=40,
)


class TestJmmTrackerModel:
    @settings(settings.get_profile("jmm-oracle"))
    @given(st.integers(2, _JMM_THREADS), _jmm_ops)
    def test_against_reference_model(self, nthreads, ops):
        """Driven like RollbackSupport drives it, the tracker answers
        every read (order included) and holds the same ``live`` counts as
        the per-location map it replaced, through rollbacks, commits and
        both seeded undo-log faults."""
        tracker, oracle = JmmTracker(), MapTracker()
        threads = [
            VMThread(tid, f"t{tid}",
                     MethodDef(name="r", code=[Instruction(bc.RETURN, 0)]),
                     [])
            for tid in range(nthreads)
        ]
        logs: list[list] = [[] for _ in range(nthreads)]
        calls = [0]

        def rollback(tid: int, mark: int) -> None:
            log = logs[tid]
            tracker.on_rollback(threads[tid], mark)
            for container, slot, _ in reversed(log[mark:]):
                oracle.undo(tid, (container, slot))
            del log[mark:]

        for op in ops:
            kind, tid = op[0], op[1] % nthreads
            thread, log = threads[tid], logs[tid]
            if kind == "write":
                _, _, locs, depth = op
                calls[0] += 1
                sections = tuple(
                    f"t{tid}.{k}" for k in range(depth - 1)
                ) + (f"call{calls[0]}",)
                for i in locs:
                    container, slot = _JMM_LOCS[i]
                    log.append((container, slot, 0))
                    oracle.write(tid, (container, slot), sections)
                tracker.on_write(thread, log, len(locs), sections)
            elif kind == "rollback":
                rollback(tid, min(op[2], len(log)))
            elif kind == "commit":
                tracker.on_commit(thread)
                oracle.commit(tid, [(c, s) for c, s, _ in log])
                log.clear()
            elif log:
                mark = min(op[2], len(log) - 1)
                if kind in ("perturb", "both"):
                    # a copy of one segment entry, with a balancing record
                    entry = log[mark + op[3] % (len(log) - mark)]
                    log.append(entry)
                    oracle.write(tid, entry[:2], ("perturbed",))
                if kind in ("drop", "both"):
                    idx = mark + op[3] % (len(log) - mark)
                    tracker.on_drop(thread, idx)
                    del log[idx]
                rollback(tid, mark)
            assert tracker.live == oracle.live
            for reader in range(nthreads):
                for loc in _JMM_LOCS:
                    assert tracker.on_read(threads[reader], *loc) == (
                        oracle.read(reader, loc)
                    ), (op, reader, loc)
        # the read fast path holds exactly when no other thread has records
        live = tracker.live
        for reader in range(nthreads):
            silent = all(
                oracle.read(reader, loc) == () for loc in _JMM_LOCS
            )
            if not len(live) > (reader in live):
                assert silent


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
