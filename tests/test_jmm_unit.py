"""Unit tests for the JMM dependency tracker (paper §2.1–2.2).

The tracker's records are undo-log positions, so these tests drive real
log lists the way :class:`~repro.core.revocation.RollbackSupport` does: a
barrier call appends entries and reports them with ``on_write``, a
rollback reports its mark before the log is cut, an outermost commit
reports before the log is emptied, and the seeded ``undo-drop`` defect
reports the index it is about to delete.
"""

import pickle

import pytest

from repro.core.jmm import JmmTracker
from repro.vm.bytecode import Instruction, RETURN
from repro.vm.classfile import MethodDef
from repro.vm.threads import VMThread


def make_thread(tid):
    m = MethodDef(name="run", code=[Instruction(RETURN, 0)])
    m.class_name = "T"
    return VMThread(tid, f"t{tid}", m, [])


class FakeSection:
    """Stand-in for repro.core.sections.Section in unit tests."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"S({self.name})"


class Box:
    """A heap container: keyed by identity, like VMObject and VMArray."""


_A, _B = Box(), Box()
LOC_A = (_A, "x")
LOC_B = (_B, 3)
#: a static is keyed by its (class, field) symbol-table tuple, by value
LOC_S = (("C", "s"), "s")


class Logs:
    """Per-thread undo logs driven through one tracker."""

    def __init__(self):
        self.tracker = JmmTracker()
        self.entries = {}

    def log(self, thread):
        return self.entries.setdefault(thread.tid, [])

    def write(self, thread, sections, *locs):
        log = self.log(thread)
        log.extend((container, slot, 0) for container, slot in locs)
        self.tracker.on_write(thread, log, len(locs), sections)

    def mark(self, thread):
        return len(self.log(thread))

    def rollback(self, thread, mark):
        self.tracker.on_rollback(thread, mark)
        del self.log(thread)[mark:]

    def commit(self, thread):
        self.tracker.on_commit(thread)
        self.log(thread).clear()

    def drop(self, thread, idx):
        self.tracker.on_drop(thread, idx)
        del self.log(thread)[idx]

    def read(self, thread, loc):
        return self.tracker.on_read(thread, *loc)


@pytest.fixture
def logs():
    return Logs()


class TestReadWriteDependency:
    def test_read_by_other_thread_returns_writers_sections(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        s = FakeSection("s")
        logs.write(writer, (s,), LOC_A)
        assert logs.read(reader, LOC_A) == (s,)

    def test_read_by_writer_itself_is_free(self, logs):
        writer = make_thread(1)
        logs.write(writer, (FakeSection("s"),), LOC_A)
        assert logs.read(writer, LOC_A) == ()

    def test_read_of_untouched_location_is_free(self, logs):
        logs.write(make_thread(1), (FakeSection("s"),), LOC_A)
        assert logs.read(make_thread(2), LOC_B) == ()

    def test_latest_write_wins(self, logs):
        """The reader observes the latest value; only the latest write's
        enclosing sections matter."""
        writer, reader = make_thread(1), make_thread(2)
        s1, s2 = FakeSection("outer-only"), FakeSection("outer+inner")
        logs.write(writer, (s1,), LOC_A, LOC_B)
        logs.write(writer, (s1, s2), LOC_A)
        assert logs.read(reader, LOC_A) == (s1, s2)
        assert logs.read(reader, LOC_B) == (s1,)

    def test_multiple_writers_all_reported(self, logs):
        w1, w2, reader = make_thread(1), make_thread(2), make_thread(3)
        s1, s2 = FakeSection("a"), FakeSection("b")
        logs.write(w1, (s1,), LOC_A)
        logs.write(w2, (s2,), LOC_A)
        assert logs.read(reader, LOC_A) == (s1, s2)

    def test_reader_who_is_also_writer_sees_only_others(self, logs):
        w1, w2 = make_thread(1), make_thread(2)
        s1, s2 = FakeSection("a"), FakeSection("b")
        logs.write(w1, (s1,), LOC_A)
        logs.write(w2, (s2,), LOC_A)
        assert logs.read(w1, LOC_A) == (s2,)

    def test_static_keyed_by_value(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        s = FakeSection("s")
        logs.write(writer, (s,), (("C", "s"), "s"))
        assert logs.read(reader, LOC_S) == (s,)

    def test_live_counts_records(self, logs):
        w1, w2 = make_thread(1), make_thread(2)
        logs.write(w1, (FakeSection("a"),), LOC_A, LOC_B, LOC_A)
        logs.write(w2, (FakeSection("b"),), LOC_S)
        assert logs.tracker.live == {1: 3, 2: 1}
        assert len(logs.tracker) == 2


class TestWriterOrder:
    """Several writers at one location are reported in the order of each
    writer's oldest live record there."""

    def test_oldest_record_orders_writers(self, logs):
        w1, w2, reader = make_thread(1), make_thread(2), make_thread(3)
        a1, b, a2 = FakeSection("a1"), FakeSection("b"), FakeSection("a2")
        logs.write(w2, (b,), LOC_B)      # w2's oldest record elsewhere
        logs.write(w1, (a1,), LOC_A)
        logs.write(w2, (b,), LOC_A)
        logs.write(w1, (a1, a2), LOC_A)  # latest write, same oldest
        assert logs.read(reader, LOC_A) == (a1, a2, b)

    def test_rollback_of_oldest_record_reorders(self, logs):
        w1, w2, reader = make_thread(1), make_thread(2), make_thread(3)
        a, b = FakeSection("a"), FakeSection("b")
        logs.write(w1, (a,), LOC_B)
        mark = logs.mark(w1)
        logs.write(w1, (a,), LOC_A)
        logs.write(w2, (b,), LOC_A)
        logs.rollback(w1, mark)
        logs.write(w1, (a,), LOC_A)
        assert logs.read(reader, LOC_A) == (b, a)


class TestUndo:
    def test_undo_pops_latest_write(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        s1, s2 = FakeSection("a"), FakeSection("b")
        logs.write(writer, (s1,), LOC_A)
        mark = logs.mark(writer)
        logs.write(writer, (s1, s2), LOC_A)
        assert logs.read(reader, LOC_A) == (s1, s2)
        logs.rollback(writer, mark)
        assert logs.read(reader, LOC_A) == (s1,)
        logs.rollback(writer, 0)
        assert logs.read(reader, LOC_A) == ()

    def test_undo_cleans_empty_entries(self, logs):
        writer = make_thread(1)
        logs.write(writer, (FakeSection("s"),), LOC_A, LOC_B)
        logs.rollback(writer, 0)
        assert len(logs.tracker) == 0
        assert logs.tracker.live == {}

    def test_undo_of_unknown_location_is_noop(self, logs):
        logs.rollback(make_thread(1), 0)
        assert len(logs.tracker) == 0
        assert logs.tracker.live == {}

    def test_undo_only_affects_that_thread(self, logs):
        w1, w2, reader = make_thread(1), make_thread(2), make_thread(3)
        s1, s2 = FakeSection("a"), FakeSection("b")
        logs.write(w1, (s1,), LOC_A)
        logs.write(w2, (s2,), LOC_A)
        logs.rollback(w1, 0)
        assert logs.read(reader, LOC_A) == (s2,)

    def test_rollback_below_the_index_rebuilds_it(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        s1, s2, s3 = (FakeSection(n) for n in "abc")
        logs.write(writer, (s1,), LOC_A)
        mark = logs.mark(writer)
        logs.write(writer, (s2,), LOC_A, LOC_B)
        assert logs.read(reader, LOC_B) == (s2,)  # indexes the whole log
        logs.rollback(writer, mark)
        assert logs.read(reader, LOC_B) == ()
        logs.write(writer, (s3,), LOC_B)
        assert logs.read(reader, LOC_A) == (s1,)
        assert logs.read(reader, LOC_B) == (s3,)

    def test_duplicated_entry_is_its_own_record(self, logs):
        """``undo_perturb`` appends a copy of an entry with no barrier
        call; the rollback that follows removes it with the segment."""
        writer, reader = make_thread(1), make_thread(2)
        s1, s2 = FakeSection("a"), FakeSection("b")
        logs.write(writer, (s1,), LOC_A)
        mark = logs.mark(writer)
        logs.write(writer, (s2,), LOC_A, LOC_B)
        log = logs.log(writer)
        log.append(log[mark])
        logs.rollback(writer, mark)
        assert logs.tracker.live == {1: 1}
        assert logs.read(reader, LOC_A) == (s1,)


class TestCommit:
    def test_commit_clears_threads_writes(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        logs.write(writer, (FakeSection("s"),), LOC_A)
        logs.write(writer, (FakeSection("s"),), LOC_B)
        logs.commit(writer)
        assert logs.read(reader, LOC_A) == ()
        assert logs.read(reader, LOC_B) == ()
        assert len(logs.tracker) == 0

    def test_commit_keeps_other_threads_writes(self, logs):
        w1, w2, reader = make_thread(1), make_thread(2), make_thread(3)
        s2 = FakeSection("b")
        logs.write(w1, (FakeSection("a"),), LOC_A)
        logs.write(w2, (s2,), LOC_A)
        logs.commit(w1)
        assert logs.read(reader, LOC_A) == (s2,)
        assert logs.tracker.live == {2: 1}

    def test_commit_with_duplicate_locations(self, logs):
        writer = make_thread(1)
        logs.write(writer, (FakeSection("s"),), LOC_A, LOC_A, LOC_A)
        logs.commit(writer)
        assert len(logs.tracker) == 0
        assert logs.tracker.live == {}


class TestStaleRecord:
    """The seeded ``undo-drop`` defect deletes a log entry but keeps its
    record: per location, the records still behave as a LIFO stack."""

    def test_drop_leaves_the_oldest_segment_record(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        s0, s1, s2 = (FakeSection(n) for n in "abc")
        logs.write(writer, (s0,), LOC_B)
        mark = logs.mark(writer)
        logs.write(writer, (s1,), LOC_A)
        logs.write(writer, (s1, s2), LOC_A)
        logs.drop(writer, mark + 1)
        logs.rollback(writer, mark)
        # one restored entry popped the newest record; s1's stays
        assert logs.read(reader, LOC_A) == (s1,)
        assert logs.read(reader, LOC_B) == (s0,)
        assert logs.tracker.live == {1: 2}

    def test_later_write_stacks_above_the_stale_record(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        s1, s2 = FakeSection("a"), FakeSection("b")
        logs.write(writer, (s1,), LOC_A)
        logs.drop(writer, 0)
        logs.rollback(writer, 0)
        assert logs.read(reader, LOC_A) == (s1,)
        logs.write(writer, (s2,), LOC_A)
        assert logs.read(reader, LOC_A) == (s2,)
        logs.rollback(writer, 0)
        assert logs.read(reader, LOC_A) == (s1,)
        assert logs.tracker.live == {1: 1}

    def test_drop_below_an_earlier_stale_record(self, logs):
        """A second drop below where an earlier stale record's stack
        continues in the log: that record still pops only its own
        location's restored entries."""
        writer, reader = make_thread(1), make_thread(2)
        s1, s2, s3 = (FakeSection(n) for n in "abc")
        logs.write(writer, (s1,), LOC_B)
        logs.write(writer, (s1,), LOC_A)
        logs.drop(writer, 1)
        logs.rollback(writer, 1)          # stale record on A
        logs.write(writer, (s2,), LOC_A)  # stacks above it
        logs.drop(writer, 0)
        logs.rollback(writer, 0)          # stale record on B
        assert logs.read(reader, LOC_A) == (s1,)
        assert logs.read(reader, LOC_B) == (s1,)
        assert logs.tracker.live == {1: 2}
        logs.write(writer, (s3,), LOC_A)
        logs.rollback(writer, 0)
        assert logs.read(reader, LOC_A) == (s1,)

    def test_commit_clears_only_touched_locations(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        s1, s2 = FakeSection("a"), FakeSection("b")
        logs.write(writer, (s1,), LOC_A)
        logs.drop(writer, 0)
        logs.rollback(writer, 0)
        logs.write(writer, (s2,), LOC_B)
        logs.commit(writer)
        assert logs.read(reader, LOC_A) == (s1,)
        assert logs.read(reader, LOC_B) == ()
        assert logs.tracker.live == {1: 1}
        logs.write(writer, (s2,), LOC_A)
        logs.commit(writer)
        assert logs.read(reader, LOC_A) == ()
        assert logs.tracker.live == {}
        assert len(logs.tracker) == 0


class TestIntrospection:
    def test_speculative_writers(self, logs):
        w1, w2, reader = make_thread(1), make_thread(2), make_thread(3)
        a, b = FakeSection("a"), FakeSection("b")
        logs.write(w1, (a,), LOC_A)
        logs.write(w2, (b,), LOC_A)
        assert logs.read(reader, LOC_A) == (a, b)
        assert logs.read(reader, LOC_B) == ()
        assert sorted(logs.tracker.live) == [1, 2]

    def test_clear(self, logs):
        logs.write(make_thread(1), (FakeSection("s"),), LOC_A)
        logs.tracker.clear()
        assert len(logs.tracker) == 0
        assert logs.tracker.live == {}

    def test_pickle_leaves_the_index_out(self, logs):
        writer, reader = make_thread(1), make_thread(2)
        logs.write(writer, ("s1",), LOC_S)
        logs.write(writer, ("s2",), LOC_S, (("C", "t"), "t"))
        assert logs.read(reader, LOC_S) == ("s2",)
        state = pickle.loads(pickle.dumps((logs.tracker, logs.entries)))
        tracker, entries = state
        restored = tracker._writers[1]
        assert restored.entries is entries[1]
        assert restored.index == {} and restored.indexed == 0
        assert tracker.on_read(reader, *LOC_S) == ("s2",)
        assert tracker.live == {1: 3}
