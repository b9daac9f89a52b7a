"""Tests for the parallel run engine (repro.bench.parallel).

The engine's contract: execution strategy (worker count, cache) must never
reach the measured results — serial and parallel sweeps render
byte-identical reports, and a cache hit returns exactly what the run
would have computed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import types

import pytest

from repro.bench import parallel as par
from repro.bench.figures import FigurePanel, run_panel
from repro.bench.harness import compare_modes, run_microbench
from repro.bench.microbench import MicrobenchConfig
from repro.bench.parallel import (
    ResultCache,
    RunEngine,
    RunSpec,
    cache_key,
    execute_spec,
    run_key,
)
from repro.bench.report import panel_json, render_engine_stats, render_panel
from repro.check.explorer import CheckItem, run_check_cell
from repro.faults.campaign import CampaignCell, _campaign_cell, run_campaign
from repro.obs.capture import ObsSpec, capture_run
from repro.obs.debug import execute_debug_record
from repro.server.plane import ServerSpec, run_server_cell
from repro.vm.clock import CostModel
from repro.vm.vmcore import VMOptions

#: quick configuration: full engine path, small virtual workload
TINY = MicrobenchConfig(
    high_threads=1,
    low_threads=2,
    iters_high=20,
    iters_low=60,
    sections=2,
    seed=77,
)

PANEL_KW = dict(repetitions=2, write_ratios=(0, 100))

#: the names a jobs=N engine gives its loopback fleet workers
FLEET_LANES = ("w1", "w2", "w3", "w4")


def tiny_panel(engine, monkeypatch) -> object:
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.2")
    return run_panel(FigurePanel(5, "a"), engine=engine, **PANEL_KW)


# -------------------------------------------------------------- equivalence
class TestSerialParallelEquivalence:
    def test_fig5_panel_reports_byte_identical(self, monkeypatch):
        serial = tiny_panel(RunEngine(jobs=1), monkeypatch)
        with RunEngine(jobs=4) as engine:
            pooled = tiny_panel(engine, monkeypatch)
        assert render_panel(serial) == render_panel(pooled)
        assert panel_json(serial) == panel_json(pooled)

    def test_compare_modes_engine_matches_default(self):
        default = compare_modes(TINY, repetitions=2)
        with RunEngine(jobs=4) as engine:
            pooled = compare_modes(TINY, repetitions=2, engine=engine)
        for mode in ("unmodified", "rollback"):
            assert default.runs[mode] == pooled.runs[mode]

    def test_campaign_report_identical_across_jobs(self):
        serial = run_campaign(
            2, "storm-philosophers", engine=RunEngine(jobs=1)
        )
        with RunEngine(jobs=2) as engine:
            pooled = run_campaign(2, "storm-philosophers", engine=engine)
        assert serial == pooled

    def test_map_preserves_input_order(self):
        items = [RunSpec(config=TINY, mode=m) for m in
                 ("unmodified", "rollback", "unmodified", "rollback")]
        with RunEngine(jobs=3) as engine:
            results = engine.map(execute_spec, items)
        assert [r.mode for r in results] == [s.mode for s in items]
        assert results[0] == results[2]


# -------------------------------------------------------------------- cache
class TestResultCache:
    def test_hit_on_unchanged_inputs(self, tmp_path):
        first = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        a = compare_modes(TINY, repetitions=2, engine=first)
        assert first.last_stats.cache_hits == 0
        assert first.last_stats.executed == 4

        second = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        b = compare_modes(TINY, repetitions=2, engine=second)
        assert second.last_stats.cache_hits == 4
        assert second.last_stats.executed == 0
        assert a.runs == b.runs

    def test_cached_result_equals_direct_run(self, tmp_path):
        engine = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        compare_modes(TINY, repetitions=1, engine=engine)
        cached = compare_modes(TINY, repetitions=1, engine=engine)
        direct = compare_modes(TINY, repetitions=1)
        assert cached.runs == direct.runs

    def test_miss_when_cost_model_changes(self, tmp_path):
        cache = ResultCache(tmp_path)
        e1 = RunEngine(jobs=1, cache=cache)
        compare_modes(TINY, repetitions=1, engine=e1)
        e2 = RunEngine(jobs=1, cache=cache)
        compare_modes(
            TINY, repetitions=1, engine=e2,
            options=VMOptions(cost_model=CostModel().scaled(2.0)),
        )
        assert e2.last_stats.cache_hits == 0
        assert e2.last_stats.executed == 2

    def test_miss_when_source_digest_changes(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        e1 = RunEngine(jobs=1, cache=cache)
        compare_modes(TINY, repetitions=1, engine=e1)
        # a changed source tree must invalidate every prior entry
        monkeypatch.setattr(
            par, "_SOURCE_DIGEST", "0" * 64
        )
        e2 = RunEngine(jobs=1, cache=cache)
        compare_modes(TINY, repetitions=1, engine=e2)
        assert e2.last_stats.cache_hits == 0
        assert e2.last_stats.executed == 2

    def test_cached_engine_caches_every_map(self, tmp_path):
        """The engine's cache is the one switch: a map passes no key."""
        items = [RunSpec(config=TINY, mode=m)
                 for m in ("unmodified", "rollback")]
        engine = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        first = engine.map(execute_spec, items)
        assert engine.map(execute_spec, items) == first
        assert engine.last_stats.cache_hits == len(items)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = run_key(execute_spec, RunSpec(config=TINY))
        cache.put(key, {"ok": True})
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None


class TestCacheIntegrity:
    """Digest-verified reads: a damaged store recomputes, never poisons."""

    KEY = "ab" + "0" * 62

    def _entry(self, tmp_path) -> tuple[ResultCache, bytes]:
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, {"value": 123})
        return cache, cache._path(self.KEY).read_bytes()

    def test_roundtrip_bytes_and_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = cache.put_bytes(self.KEY, b"payload-bytes")
        assert digest == par.payload_digest(b"payload-bytes")
        assert cache.get_bytes(self.KEY) == (b"payload-bytes", digest)

    def test_flipped_payload_byte_detected(self, tmp_path, caplog):
        cache, data = self._entry(tmp_path)
        corrupted = data[:-1] + bytes([data[-1] ^ 0xFF])
        cache._path(self.KEY).write_bytes(corrupted)
        with caplog.at_level("WARNING", logger="repro.bench.cache"):
            assert cache.get(self.KEY) is None
        assert "corrupt" in caplog.text
        assert "digest mismatch" in caplog.text
        # the damaged file was removed so a recompute can rewrite it
        assert not cache._path(self.KEY).exists()

    def test_truncated_entry_detected(self, tmp_path, caplog):
        cache, data = self._entry(tmp_path)
        cache._path(self.KEY).write_bytes(data[: len(data) - 5])
        with caplog.at_level("WARNING", logger="repro.bench.cache"):
            assert cache.get(self.KEY) is None
        assert "corrupt" in caplog.text
        assert not cache._path(self.KEY).exists()

    def test_foreign_header_detected(self, tmp_path, caplog):
        cache, _ = self._entry(tmp_path)
        cache._path(self.KEY).write_bytes(b"totally foreign contents")
        with caplog.at_level("WARNING", logger="repro.bench.cache"):
            assert cache.get(self.KEY) is None
        assert "bad or missing header" in caplog.text

    def test_corruption_falls_back_to_recompute(self, tmp_path, caplog):
        """End-to-end: corrupt a real run's entry mid-campaign and the
        engine silently (but loudly-logged) recomputes the exact run."""
        cache = ResultCache(tmp_path)
        engine = RunEngine(jobs=1, cache=cache)
        clean = compare_modes(TINY, repetitions=1, engine=engine)
        # damage every stored entry
        for path in tmp_path.rglob("*.pkl"):
            data = path.read_bytes()
            path.write_bytes(data[:-3] + b"\x00\x00\x00")
        engine2 = RunEngine(jobs=1, cache=cache)
        with caplog.at_level("WARNING", logger="repro.bench.cache"):
            recomputed = compare_modes(TINY, repetitions=1, engine=engine2)
        assert "corrupt" in caplog.text
        assert engine2.last_stats.cache_hits == 0
        assert engine2.last_stats.executed == 2
        assert recomputed.runs == clean.runs
        # the recompute rewrote valid entries: third pass is all hits
        engine3 = RunEngine(jobs=1, cache=cache)
        compare_modes(TINY, repetitions=1, engine=engine3)
        assert engine3.last_stats.cache_hits == 2

    def test_put_bytes_rejects_mismatched_claim(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put_bytes(self.KEY, b"data", digest="0" * 64)


# ---------------------------------------------------------------- cache keys
#: cell type -> (task, base cell, {field: another value}).  Every field of
#: the cell needs an entry, so a field added to a cell type later fails
#: here until a value for it shows that it reaches the key.  The
#: ``(ObsSpec, interval)`` cell of the debugger also varies its interval.
KEY_CASES = {
    "RunSpec": (execute_spec, RunSpec(config=TINY), {
        "config": MicrobenchConfig(seed=78),
        "mode": "rollback",
        "options": VMOptions(scheduler="priority"),
    }),
    "CheckItem": (run_check_cell, CheckItem("handoff"), {
        "scenario": "barge",
        "prefix": (1,),
        "modes": ("rollback", "inheritance"),
        "inject": "undo-drop",
        "walk_seed": 3,
        "walk_bound": 2,
    }),
    "ObsSpec": (capture_run, ObsSpec("fig6b"), {
        "scenario": "deadlock-pair",
        "mode": "inheritance",
        "seed": 1,
        "interp": "reference",
        "profile": False,
        "write_pct": 20,
    }),
    "ObsSpec-interval": (execute_debug_record, (ObsSpec("fig6b"), 500), {
        "scenario": "deadlock-pair",
        "mode": "inheritance",
        "seed": 1,
        "interp": "reference",
        "profile": False,
        "write_pct": 20,
    }),
    # interp must split the key even though fragments are identical
    # across interpreters: a cached fast-engine fragment must never
    # answer a reference-engine repro
    "CampaignCell": (_campaign_cell, CampaignCell("storm-philosophers", 1), {
        "scenario": "exception-rain-bank",
        "seed_index": 2,
        "interp": "reference",
    }),
    "ServerSpec": (run_server_cell, ServerSpec(preset="chaos-smoke"), {
        "preset": "storm",
        "requests": 50,
        "seed_index": 2,
        "mode": "inheritance",
        "interp": "reference",
        "chaos": True,
        "inject_bug": "undo-drop",
        "profile": True,
    }),
}


def case_keys() -> dict[str, str]:
    """The derived key of every base cell in :data:`KEY_CASES`."""
    return {
        name: run_key(task, base)
        for name, (task, base, _) in KEY_CASES.items()
    }


def _clone(cell, *, grow: bool = False):
    """``cell``'s values in a throwaway frozen dataclass of the same
    qualname and fields; ``grow`` gives the type one more field."""
    fields = [(f.name, f.type) for f in dataclasses.fields(cell)]
    if grow:
        fields.append(("added", int, dataclasses.field(default=0)))
    cls = dataclasses.make_dataclass(
        type(cell).__name__, fields, frozen=True
    )
    cls.__qualname__ = type(cell).__qualname__
    return cls(**{f.name: getattr(cell, f.name)
                  for f in dataclasses.fields(cell)})


def _rebase(base, cell):
    """``base`` with its cell swapped for ``cell``."""
    return (cell, base[1]) if isinstance(base, tuple) else cell


@pytest.fixture(scope="module")
def foreign_hash_keys() -> dict[str, str]:
    """:func:`case_keys` computed by a subprocess under another
    ``PYTHONHASHSEED``."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(
        os.environ, PYTHONHASHSEED=seed,
        PYTHONPATH=os.pathsep.join([here] + [p for p in sys.path if p]),
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, test_bench_parallel as t; "
         "print(json.dumps(t.case_keys()))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


class TestCacheKeys:
    def test_stable_across_calls(self):
        spec = RunSpec(config=TINY, mode="rollback")
        assert run_key(execute_spec, spec) == run_key(execute_spec, spec)

    @pytest.mark.parametrize("name", sorted(KEY_CASES))
    def test_key_covers_the_cell(self, name, foreign_hash_keys):
        task, base, alternatives = KEY_CASES[name]
        cell = base[0] if isinstance(base, tuple) else base
        assert set(alternatives) == {
            f.name for f in dataclasses.fields(cell)
        }, "every field of the cell needs an alternative value"
        key = run_key(task, base)
        # changing any single field changes the key
        variants = [
            _rebase(base, dataclasses.replace(cell, **{field: value}))
            for field, value in alternatives.items()
        ]
        if isinstance(base, tuple):
            variants.append((cell, base[1] + 1))
        keys = {run_key(task, v) for v in variants}
        assert key not in keys and len(keys) == len(variants)
        # the key reads the type's name and fields, so a copy keys the
        # same and a type that gains a field keys anew
        assert run_key(task, _rebase(base, _clone(cell))) == key
        assert run_key(task, _rebase(base, _clone(cell, grow=True))) != key
        # the same cell under another task is another run
        assert run_key(repr, base) != key
        # no hash randomisation reaches the key
        assert foreign_hash_keys[name] == key

    def test_python_m_task_keeps_its_key(self, monkeypatch):
        """A task of a module run as ``python -m`` keys like the
        imported function."""
        cell = CampaignCell("storm-philosophers", 1)
        imported = run_key(_campaign_cell, cell)
        main = types.ModuleType("__main__")
        main.__spec__ = types.SimpleNamespace(name="repro.faults.campaign")
        monkeypatch.setitem(sys.modules, "__main__", main)
        as_main = types.FunctionType(_campaign_cell.__code__, {})
        as_main.__module__ = "__main__"
        as_main.__qualname__ = _campaign_cell.__qualname__
        assert run_key(as_main, cell) == imported

    def test_rejects_unencodable_objects(self):
        with pytest.raises(TypeError):
            cache_key(object())
        with pytest.raises(TypeError):
            cache_key({1: "non-str key"})

    def test_distinguishes_value_shapes(self):
        assert cache_key("ab", "c") != cache_key("a", "bc")
        assert cache_key(1) != cache_key("1")
        assert cache_key(True) != cache_key(1)
        assert cache_key([1, 2]) != cache_key([2, 1])


# ----------------------------------------------------------------- plumbing
class TestPickling:
    def test_run_result_roundtrip(self):
        result = run_microbench(TINY)
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.metrics == result.metrics

    def test_spec_roundtrip(self):
        spec = RunSpec(
            config=TINY,
            mode="rollback",
            options=VMOptions(
                mode="rollback", seed=9, cost_model=CostModel().scaled(0.5),
            ),
        )
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestEngineConfig:
    def test_from_env_jobs_and_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        engine = RunEngine.from_env()
        assert engine.jobs == 3
        assert engine.cache is not None
        assert engine.cache.directory == tmp_path

    def test_from_env_cache_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        assert RunEngine.from_env().cache is None

    @pytest.mark.parametrize("value", [None, "", " "])
    def test_from_env_unset_or_empty_means_default(self, monkeypatch, value):
        for name in ("REPRO_BENCH_JOBS", "REPRO_BENCH_CACHE"):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        engine = RunEngine.from_env()
        assert engine.jobs == (os.cpu_count() or 1)
        assert engine.cache is not None

    @pytest.mark.parametrize("name, value", [
        ("REPRO_BENCH_JOBS", "abc"),
        ("REPRO_BENCH_JOBS", "0"),
        ("REPRO_BENCH_JOBS", "-2"),
        ("REPRO_BENCH_JOBS", "3x"),
        ("REPRO_BENCH_CACHE", "false"),
        ("REPRO_BENCH_CACHE", "False"),
        ("REPRO_BENCH_CACHE", "disable"),
    ])
    def test_from_env_bad_value_names_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError) as excinfo:
            RunEngine.from_env()
        assert f"{name}={value!r}" in str(excinfo.value)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            RunEngine(jobs=0)

    def test_stats_accumulate_and_render(self, tmp_path):
        engine = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        compare_modes(TINY, repetitions=1, engine=engine)
        compare_modes(TINY, repetitions=1, engine=engine)
        assert engine.stats.runs == 4
        assert engine.stats.executed == 2
        assert engine.stats.cache_hits == 2
        text = render_engine_stats(engine.last_stats)
        assert "2 cache hits" in text

    def test_stats_track_guest_instructions(self, tmp_path):
        engine = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        results = compare_modes(TINY, repetitions=1, engine=engine)
        from repro.bench.parallel import guest_instructions

        expected = sum(
            guest_instructions(r)
            for runs in results.runs.values() for r in runs
        )
        assert expected > 0
        assert engine.stats.guest_instructions == expected
        assert sum(engine.stats.run_instructions) == expected
        assert engine.stats.ips() > 0
        assert "guest instructions" in engine.stats.render()
        # cache hits cost no host time, so they must not count
        engine2 = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        compare_modes(TINY, repetitions=1, engine=engine2)
        assert engine2.stats.cache_hits == 2
        assert engine2.stats.guest_instructions == 0

    def test_per_worker_breakdown_sums_to_aggregate(self, tmp_path):
        """Per-lane stats exist and sum exactly to the aggregate, on
        both the serial and the fleet paths."""
        engine = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        compare_modes(TINY, repetitions=1, engine=engine)
        stats = engine.last_stats
        assert list(stats.workers) == ["inline"]
        assert stats.workers["inline"]["tasks"] == stats.executed == 2
        # serial single-lane runs keep stderr unchanged: no worker lines
        assert stats.render_workers() == []

        with RunEngine(jobs=4) as pooled:
            pooled.map(execute_spec, [
                RunSpec(config=TINY, mode=mode)
                for mode in ("unmodified", "rollback", "inheritance",
                             "ceiling")
            ])
        pstats = pooled.last_stats
        lanes = [n for n in pstats.workers if n in FLEET_LANES[:4]]
        assert lanes and len(lanes) >= 2
        assert pstats.executed == sum(
            pstats.workers[n]["tasks"] for n in lanes
        )
        assert pstats.run_wall == pytest.approx(sum(
            pstats.workers[n]["run_wall"] for n in lanes
        ))
        rendered = render_engine_stats(pstats)
        assert any(f"worker {n}:" in rendered for n in lanes)

    def test_cache_hits_credit_no_lane(self, tmp_path):
        """Hits are served before dispatch: they count in the aggregate
        only, and no execution lane is credited for them."""
        cache = ResultCache(tmp_path)
        e1 = RunEngine(jobs=1, cache=cache)
        compare_modes(TINY, repetitions=1, engine=e1)
        e2 = RunEngine(jobs=1, cache=cache)
        compare_modes(TINY, repetitions=1, engine=e2)
        stats = e2.last_stats
        assert stats.cache_hits == 2
        assert stats.workers == {}
        assert stats.render_workers() == []


def _degraded_result(item):
    """A run result whose tracer lost events (worker-side shape)."""
    return {
        "metrics": {
            "trace": {"events": 5, "dropped": item, "sink_errors": 1},
        },
    }


class TestTraceHealthLanes:
    """Tracer degradation (dropped events, detached sinks) surfaces in
    the per-worker stat lanes instead of vanishing into the artifact."""

    def test_trace_health_reads_both_shapes(self):
        from repro.bench.parallel import trace_health

        assert trace_health(_degraded_result(3)) == (3, 1)
        # server reports carry a top-level trace block
        assert trace_health(
            {"trace": {"dropped": 2, "sink_errors": 0}}
        ) == (2, 0)
        assert trace_health({"clock": 7}) == (0, 0)
        assert trace_health(object()) == (0, 0)

    def test_degraded_runs_surface_in_stats(self):
        engine = RunEngine(jobs=1)
        engine.map(_degraded_result, [3, 4])
        stats = engine.last_stats
        assert stats.trace_dropped == 7
        assert stats.trace_sink_errors == 2
        assert "TRACE DEGRADED" in stats.render()
        lines = stats.render_workers()
        assert lines, "degraded lanes must render even single-lane"
        assert any("TRACE DEGRADED: 7 dropped / 2 sink errors" in line
                   for line in lines)

    def test_degraded_runs_surface_from_fleet_lanes(self):
        with RunEngine(jobs=2) as engine:
            engine.map(_degraded_result, [1, 2, 3])
        stats = engine.last_stats
        assert stats.trace_dropped == 6
        assert stats.trace_sink_errors == 3
        lanes = [n for n in stats.workers if n in FLEET_LANES[:2]]
        assert sum(
            stats.workers[n]["trace_dropped"] for n in lanes
        ) == 6

    def test_healthy_runs_stay_silent(self, tmp_path):
        engine = RunEngine(jobs=1, cache=ResultCache(tmp_path))
        compare_modes(TINY, repetitions=1, engine=engine)
        stats = engine.last_stats
        assert stats.trace_dropped == 0
        assert stats.trace_sink_errors == 0
        assert "TRACE DEGRADED" not in stats.render()
        assert stats.render_workers() == []

    def test_merge_sums_trace_lanes(self):
        from repro.bench.parallel import EngineStats

        a = EngineStats(jobs=1)
        a.trace_dropped, a.trace_sink_errors = 2, 1
        b = EngineStats(jobs=1)
        b.trace_dropped = 5
        a.merge(b)
        assert (a.trace_dropped, a.trace_sink_errors) == (7, 1)
