"""Fleet engine integration tests.

The contract under test: a fleet is just another execution strategy for
the ``RunEngine.map`` seam — reports must be byte-identical to serial
(cold and warm cache), the shared artifact store must verify digests
both ways, and a worker killed mid-campaign must cost wall-clock only,
never a cell.

Thread-backed workers (``serve`` in a daemon thread) cover the protocol
and stats behavior cheaply; subprocess workers cover the real
``FleetEngine.local`` path including worker death by SIGKILL.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time

import pytest

import fleet_tasks
from repro.bench.figures import FigurePanel, run_panel
from repro.bench.parallel import (
    ResultCache,
    RunEngine,
    execute_spec,
    payload_digest,
)
from repro.bench.report import panel_json, render_panel
from repro.fleet.coordinator import Coordinator, FleetError
from repro.fleet.engine import FleetEngine, _worker_pythonpath
from repro.fleet.protocol import FrameSocket, connect
from repro.fleet.worker import serve

PANEL_KW = dict(repetitions=2, write_ratios=(0, 100))

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def thread_fleet(n: int = 2, *, cache=None, **coord_kw) -> FleetEngine:
    """Coordinator + ``n`` in-process worker threads as a FleetEngine."""
    coordinator = Coordinator(**coord_kw)
    host, port = coordinator.address
    for i in range(n):
        threading.Thread(
            target=serve, args=(host, port), kwargs={"name": f"t{i + 1}"},
            daemon=True,
        ).start()
    coordinator.wait_for_workers(n, timeout=10)
    return FleetEngine(coordinator, jobs=n, cache=cache)


def tiny_panel(engine, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.2")
    return run_panel(FigurePanel(5, "a"), engine=engine, **PANEL_KW)


# ----------------------------------------------------------- thread fleet
class TestThreadFleet:
    def test_map_returns_input_order(self):
        engine = thread_fleet(2)
        try:
            assert engine.map(fleet_tasks.double, list(range(24))) == [
                i * 2 for i in range(24)
            ]
        finally:
            engine.close()

    def test_per_worker_stats_sum_to_aggregate(self):
        engine = thread_fleet(3)
        try:
            assert engine.map(
                fleet_tasks.meet_then_double, list(range(30))
            ) == [i * 2 for i in range(30)]
            stats = engine.last_stats
            assert stats.executed == 30
            assert stats.executed == sum(
                rec["tasks"] for rec in stats.workers.values()
            )
            # three workers pulling from one queue: items 0-2 meet at a
            # barrier, so all of them worked
            assert len(stats.workers) == 3
            assert all(
                rec["bytes_sent"] and rec["bytes_received"]
                for rec in stats.workers.values()
            )
        finally:
            engine.close()

    def test_bench_panel_byte_identical_and_store_shared(
        self, tmp_path, monkeypatch
    ):
        serial = tiny_panel(RunEngine(jobs=1), monkeypatch)
        cache = ResultCache(tmp_path / "store")
        engine = thread_fleet(2, cache=cache)
        try:
            cold = tiny_panel(engine, monkeypatch)
            assert render_panel(serial) == render_panel(cold)
            assert panel_json(serial) == panel_json(cold)
            assert engine.last_stats.cache_hits == 0
            # warm: served by the coordinator from the shared store
            warm = tiny_panel(engine, monkeypatch)
            assert panel_json(serial) == panel_json(warm)
            assert engine.last_stats.executed == 0
            assert engine.last_stats.cache_hits > 0
            assert engine.last_stats.workers == {}
        finally:
            engine.close()
        # the store the workers pushed into serves a *local* engine too
        local = RunEngine(jobs=1, cache=ResultCache(tmp_path / "store"))
        replay = tiny_panel(local, monkeypatch)
        assert panel_json(serial) == panel_json(replay)
        assert local.stats.executed == 0

    def test_none_results_are_never_stored(self, tmp_path):
        """The fleet stores what the inline path stores: a None result
        would read back as a miss, so it writes no entry."""
        store = tmp_path / "store"
        engine = thread_fleet(2, cache=ResultCache(store))
        try:
            for _ in range(2):
                results = engine.map(fleet_tasks.nothing, [1, 2])
                assert results == [None, None]
                assert engine.last_stats.executed == 2
        finally:
            engine.close()
        assert not list(store.rglob("*.pkl"))

    def test_check_explore_equal_to_serial(self):
        from repro.check.explorer import explore

        serial = explore("mini-handoff", 1, engine=RunEngine(jobs=1))
        engine = thread_fleet(2)
        try:
            fleet = explore("mini-handoff", 1, engine=engine)
        finally:
            engine.close()
        assert fleet == serial

    def test_server_cells_equal_to_serial(self):
        from repro.server.plane import ServerSpec, run_server_cell

        specs = [
            ServerSpec(preset="chaos-smoke", seed_index=i) for i in (1, 2)
        ]
        serial = RunEngine(jobs=1).map(run_server_cell, specs)
        engine = thread_fleet(2)
        try:
            fleet = engine.map(run_server_cell, specs)
        finally:
            engine.close()
        assert json.dumps(fleet, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_frames_carry_no_key_or_cached_flag(self, tmp_path, monkeypatch):
        """The engine owns the one store: even a cached fleet map sends
        no run key to its workers, and every result is an execution."""
        sent = []
        real_send = FrameSocket.send

        def recording_send(frame, msg, payload=b""):
            sent.append(msg)
            return real_send(frame, msg, payload)

        monkeypatch.setattr(FrameSocket, "send", recording_send)
        engine = thread_fleet(2, cache=ResultCache(tmp_path / "store"))
        try:
            engine.map(fleet_tasks.double, list(range(6)))
        finally:
            engine.close()
        tasks = [m for m in sent if m["type"] == "task"]
        results = [m for m in sent if m["type"] == "result"]
        assert len(tasks) == len(results) == 6
        assert not any("key" in m for m in tasks + results)
        assert not any("cached" in m for m in results)

    def test_task_error_fails_after_bounded_retries(self):
        engine = thread_fleet(
            2, max_attempts=2, retry_backoff=0.01
        )
        try:
            with pytest.raises(FleetError, match="negative"):
                engine.map(fleet_tasks.fail_on_negative, [1, -1, 3])
        finally:
            engine.close()

    def test_unimportable_task_fails_after_bounded_retries(self):
        """A worker that cannot import the task function reports a task
        error (and stays up) instead of dying with the lease."""
        def orphan(item):
            return item

        orphan.__qualname__ = "orphan"
        orphan.__module__ = "no_such_module_for_fleet_tests"
        engine = thread_fleet(2, max_attempts=2, retry_backoff=0.01)
        try:
            with pytest.raises(FleetError, match="no_such_module"):
                engine.map(orphan, [1, 2])
            assert len(engine.coordinator.worker_names()) == 2
        finally:
            engine.close()

    def test_corrupt_result_payload_is_requeued(self):
        """A worker that lies about its payload digest does not poison
        the campaign: the result is discarded, counted, and the task
        re-dispatched until an honest answer arrives."""
        coordinator = Coordinator(retry_backoff=0.01)
        host, port = coordinator.address
        frame = connect(host, port)
        frame.send({"type": "hello", "worker": "evil", "pid": 0})
        engine = FleetEngine(coordinator)

        outcome = {}

        def campaign():
            outcome["results"] = engine.map(fleet_tasks.double, [21])
            outcome["stats"] = engine.last_stats

        runner = threading.Thread(target=campaign, daemon=True)
        runner.start()
        try:
            frame.send({"type": "ready"})
            task, _payload = frame.recv()
            assert task["type"] == "task"
            bogus = pickle.dumps(999)
            frame.send(
                {
                    "type": "result",
                    "task": task["task"],
                    "digest": "0" * 64,  # does not match the payload
                    "wall": 0.0,
                },
                bogus,
            )
            frame.send({"type": "ready"})
            retry, payload = frame.recv()
            assert retry["type"] == "task"
            assert retry["task"] == task["task"]
            honest = pickle.dumps(
                fleet_tasks.double(pickle.loads(payload))
            )
            frame.send(
                {
                    "type": "result",
                    "task": retry["task"],
                    "digest": payload_digest(honest),
                    "wall": 0.0,
                },
                honest,
            )
            runner.join(15)
            assert not runner.is_alive()
            assert outcome["results"] == [42]
            assert outcome["stats"].digest_failures == 1
        finally:
            frame.close()
            coordinator.shutdown()


# ------------------------------------------------------- subprocess fleet
def _subprocess_env() -> dict[str, str]:
    """Worker PYTHONPATH that can import both repro and fleet_tasks."""
    return {
        "PYTHONPATH": _worker_pythonpath() + os.pathsep + TESTS_DIR,
    }


class TestSubprocessFleet:
    def test_local_fleet_matches_serial_panel(self, tmp_path, monkeypatch):
        serial = tiny_panel(RunEngine(jobs=1), monkeypatch)
        engine = FleetEngine.local(
            2, cache=ResultCache(tmp_path / "store")
        )
        try:
            cold = tiny_panel(engine, monkeypatch)
            warm = tiny_panel(engine, monkeypatch)
        finally:
            engine.close()
        assert render_panel(serial) == render_panel(cold)
        assert panel_json(serial) == panel_json(cold)
        assert panel_json(serial) == panel_json(warm)

    def test_worker_killed_mid_campaign_loses_nothing(self):
        """SIGKILL a worker while it holds leases: the coordinator
        reassigns them and the campaign result is identical to serial —
        no lost cells, no duplicates."""
        engine = FleetEngine.local(
            2, worker_env=_subprocess_env(), heartbeat_timeout=6.0
        )
        items = [(i, 0.6) for i in range(6)]
        box: dict = {}

        def campaign():
            box["results"] = engine.map(fleet_tasks.slow_double, items)

        runner = threading.Thread(target=campaign, daemon=True)
        try:
            runner.start()
            # wait until worker w1 actually leases a task, then kill it
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if "w1" in engine.coordinator.leases().values():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("w1 never leased a task")
            engine.procs[0].kill()
            runner.join(60)
            assert not runner.is_alive()
            assert box["results"] == [i * 2 for i in range(6)]
            stats = engine.last_stats
            assert stats.reassigned >= 1
            assert stats.executed == len(items)
            # every surviving result was executed by the live worker or
            # re-executed after reassignment; the sums must still close
            assert stats.executed == sum(
                rec["tasks"] for rec in stats.workers.values()
            )
        finally:
            engine.close()

    @pytest.mark.parametrize("build", [
        lambda: RunEngine(jobs=2, cache=None),
        lambda: FleetEngine.local(2, cache=None),
    ], ids=["run-engine", "fleet-local"])
    def test_uncached_engine_ignores_the_env_store(
        self, build, tmp_path, monkeypatch
    ):
        """An engine built without a cache never serves stored results,
        even when REPRO_BENCH_CACHE_DIR points at a warm store: workers
        keep no store of their own."""
        store = tmp_path / "store"
        items = list(range(6))
        warm = RunEngine(jobs=1, cache=ResultCache(store))
        warm.map(fleet_tasks.double, items)
        assert warm.last_stats.executed == len(items)
        monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(store))
        with build() as engine:
            results = engine.map(fleet_tasks.double, items)
        assert results == [i * 2 for i in items]
        stats = engine.last_stats
        assert stats.cache_hits == 0
        assert stats.executed == stats.runs == len(items)

    def test_uncached_fleet_map_derives_no_key(self, monkeypatch):
        """Run keys exist for the cache alone: an uncached map that
        fans out to the loopback fleet never hashes an item."""
        import repro.bench.parallel as parallel

        def refuse(fn, items):
            raise AssertionError("an uncached map derived run keys")

        monkeypatch.setattr(parallel, "run_keys", refuse)
        with RunEngine(jobs=2) as engine:
            results = engine.map(fleet_tasks.double, list(range(4)))
            assert len(engine.procs) == 2
        assert results == [0, 2, 4, 6]
        assert engine.last_stats.executed == 4

    def test_dispatch_fails_once_every_worker_exited(self):
        engine = FleetEngine.local(1, worker_env=_subprocess_env())
        try:
            engine.procs[0].kill()
            engine.procs[0].wait(10)
            with pytest.raises(FleetError, match="exited"):
                engine.map(fleet_tasks.double, [1, 2])
        finally:
            engine.close()

    def test_cli_module_tasks_run_on_the_fleet(self):
        """``python -m repro.faults.campaign`` maps a function of its own
        ``__main__`` module; loopback workers import it by module name."""
        import subprocess
        import sys

        argv = [sys.executable, "-m", "repro.faults.campaign",
                "--seeds", "2", "--scenario", "storm-philosophers",
                "--no-cache"]
        env = dict(os.environ, PYTHONPATH=_worker_pythonpath())
        outs = [
            subprocess.run(
                argv + ["--jobs", jobs], env=env, capture_output=True,
                text=True, timeout=120,
            )
            for jobs in ("1", "2")
        ]
        assert [out.returncode for out in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout
        assert "2 executed" in outs[1].stderr

    def test_jobs_engine_spawns_once_and_reaps_on_close(self):
        with RunEngine(jobs=2) as engine:
            assert engine.map(fleet_tasks.double, [7]) == [14]
            assert engine.procs == []  # one item: inline, no fleet
            engine.map(fleet_tasks.double, list(range(4)))
            procs = list(engine.procs)
            engine.map(fleet_tasks.double, list(range(4)))
            assert engine.procs == procs and len(procs) == 2
            assert set(engine.last_stats.workers) <= {"w1", "w2"}
        assert all(proc.poll() is not None for proc in procs)


# ------------------------------------------------------------ CLI plumbing
class TestEngineArgs:
    def _args(self, argv):
        import argparse

        from repro.fleet.cli import add_engine_args

        parser = argparse.ArgumentParser()
        add_engine_args(parser)
        return parser.parse_args(argv)

    def test_flags_layer_over_env(self, tmp_path, monkeypatch):
        from repro.fleet.cli import engine_from_args

        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
        engine = engine_from_args(self._args([]))
        assert engine.jobs == 3
        assert engine.cache.directory == tmp_path / "env"
        engine = engine_from_args(self._args(
            ["--jobs", "1", "--cache-dir", str(tmp_path / "flag")]
        ))
        assert engine.jobs == 1
        assert engine.cache.directory == tmp_path / "flag"
        assert engine_from_args(self._args(["--no-cache"])).cache is None

    @pytest.mark.parametrize("flag", ["--jobs", "--fleet-workers"])
    def test_zero_count_flag_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            self._args([flag, "0"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("module, argv", [
        ("repro.bench.__main__", ["5a"]),
        ("repro.check.__main__", ["--scenario", "handoff", "--bound", "1"]),
        ("repro.obs.__main__", ["summary", "--scenario", "fig6b"]),
        ("repro.server.__main__", ["--preset", "chaos-smoke"]),
        ("repro.faults.campaign", ["--seeds", "1"]),
    ])
    @pytest.mark.parametrize("name, value", [
        ("REPRO_BENCH_JOBS", "3x"),
        ("REPRO_BENCH_CACHE", "false"),
    ])
    def test_cli_bad_env_exits_2_naming_it(
        self, module, argv, name, value, capsys, monkeypatch
    ):
        import importlib

        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            importlib.import_module(module).main(argv)
        assert exc.value.code == 2
        assert f"{name}={value!r}" in capsys.readouterr().err

    def test_fleet_local_mode_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self._args(["--fleet", "local:2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("module", [
        "repro.bench.__main__",
        "repro.check.__main__",
        "repro.obs.__main__",
        "repro.server.__main__",
        "repro.faults.campaign",
    ])
    def test_cli_fleet_worker_is_an_invalid_choice(self, module, capsys):
        """``python -m repro.fleet worker`` is the one worker entry
        point; no campaign CLI starts a worker."""
        import importlib

        with pytest.raises(SystemExit) as exc:
            importlib.import_module(module).main(["--fleet", "worker"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'worker'" in err
