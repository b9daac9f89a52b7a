"""Guest server workload: config validation, request conservation, the
ring-queue guest library under real load, and report determinism.

The unit shape (``_SMALL``) is deliberately tiny — each run finishes in
well under a second — while still overloaded enough to exercise
shedding, timeouts and retries.
"""

from __future__ import annotations

import json

import pytest

from repro.check import final_fingerprint, fingerprint_digest
from repro.server.plane import (
    AbortStormDetector,
    check_server_invariants,
)
from repro.server.report import build_report, latency_summary
from repro.server.workload import (
    ServerConfig,
    TierSpec,
    build_server,
    expected_cycle_cap,
    server_streams,
    tier_streams,
)
from repro.vm.vmcore import JVM, VMOptions

SEED = 0x5EED


def _small() -> ServerConfig:
    return ServerConfig(
        name="unit-small",
        tiers=(
            TierSpec(
                "gold", priority=8, requests=24, mean_gap=900,
                arrival="bursty", workers=2, write_pct=80, svc_iters=24,
                timeout=10_000, max_retries=2, backoff=700, jitter=300,
                shed_depth=8,
            ),
            TierSpec(
                "bronze", priority=3, requests=16, mean_gap=1_300,
                arrival="heavy", workers=1, write_pct=70, svc_iters=30,
                heavy_service=True, timeout=14_000, max_retries=2,
                backoff=900, jitter=400, shed_depth=6,
            ),
        ),
        locks=2, cells=8, hot_lock_pct=75,
        storm_window=12_000, storm_enter=5, storm_exit=1,
    )


def _run(config, seed=SEED, mode="rollback", detector=True, **overrides):
    options = VMOptions(
        mode=mode,
        scheduler="priority",
        seed=seed,
        raise_on_uncaught=False,
        max_cycles=expected_cycle_cap(config, seed),
        **overrides,
    )
    vm = JVM(options)
    build_server(config, seed).install(vm)
    storm = AbortStormDetector(config) if detector else None
    if storm is not None:
        vm.slice_hooks.append(storm)
    vm.run()
    return vm, storm


class TestConfigValidation:
    def test_needs_tiers(self):
        with pytest.raises(ValueError):
            ServerConfig(name="x", tiers=())

    def test_duplicate_tier_names_rejected(self):
        tier = _small().tiers[0]
        with pytest.raises(ValueError):
            ServerConfig(name="x", tiers=(tier, tier))

    def test_generator_must_outrank_workers(self):
        tier = TierSpec("t", priority=12, requests=4, mean_gap=100)
        with pytest.raises(ValueError):
            ServerConfig(name="x", tiers=(tier,), generator_priority=12)

    def test_scaled_preserves_shape(self):
        config = _small()
        scaled = config.scaled(400)
        assert len(scaled.tiers) == len(config.tiers)
        assert 380 <= scaled.total_requests <= 400
        # proportions survive the rescale
        assert scaled.tiers[0].requests > scaled.tiers[1].requests
        # non-request knobs are untouched
        assert scaled.tiers[0].timeout == config.tiers[0].timeout
        assert scaled.locks == config.locks

    def test_scaled_rejects_too_few(self):
        with pytest.raises(ValueError):
            _small().scaled(1)


class TestServerRun:
    def test_invariants_hold_rollback(self):
        vm, _ = _run(_small())
        assert check_server_invariants(vm, _small(), SEED) == []

    def test_invariants_hold_unmodified(self):
        vm, _ = _run(_small(), mode="unmodified")
        assert check_server_invariants(vm, _small(), SEED) == []

    def test_every_request_accounted(self):
        config = _small()
        vm, _ = _run(config)
        for ti, tier in enumerate(config.tiers):
            shed = vm.get_static("Server", "shed").get(ti)
            dropped = vm.get_static("Server", "exhausted").get(ti)
            done = vm.get_static("Server", "completed").get(ti)
            assert shed + dropped + done == tier.requests
            assert vm.get_static("Server", "errors").get(ti) == 0

    def test_overload_engages_under_pressure(self):
        """The tiny shape is overloaded: at least one protection layer
        (shedding, timeout/retry) must visibly engage."""
        config = _small()
        vm, _ = _run(config)
        shed = sum(
            vm.get_static("Server", "shed").get(ti)
            for ti in range(len(config.tiers))
        )
        retries = sum(
            vm.get_static("Server", "retries").get(ti)
            for ti in range(len(config.tiers))
        )
        assert shed + retries > 0

    def test_data_cells_match_write_stream(self):
        config = _small()
        vm, _ = _run(config)
        total = 0
        cells = vm.get_static("Server", "cells")
        for li in range(config.locks):
            row = cells.get(li)
            total += sum(row.get(ci) for ci in range(len(row)))
        expected = 0
        for ti, tier in enumerate(config.tiers):
            lat = vm.get_static("Server", "lat").get(ti)
            streams = tier_streams(config, tier, SEED)
            expected += sum(
                streams.svc[i]
                for i in range(tier.requests)
                if lat.get(i) >= 0 and streams.iswrite[i]
            )
        assert total == expected

    def test_corrupted_counter_is_flagged(self):
        """The invariant checker actually detects tampering (it is not
        vacuously green)."""
        config = _small()
        vm, _ = _run(config)
        completed = vm.get_static("Server", "completed")
        completed.put(0, completed.get(0) + 1)
        problems = check_server_invariants(vm, config, SEED)
        assert problems and "gold" in problems[0]


class TestStreams:
    def test_a_cell_builds_each_tier_stream_once(self, monkeypatch):
        """The program, the cycle cap and the invariant check of one
        cell all read one build of its streams."""
        from repro.server import workload
        from repro.server.plane import ServerSpec, run_server_cell
        from repro.server.presets import get_preset

        built: dict[str, int] = {}
        real = workload.tier_streams

        def counted(config, tier, seed):
            built[tier.name] = built.get(tier.name, 0) + 1
            return real(config, tier, seed)

        monkeypatch.setattr(workload, "tier_streams", counted)
        workload.server_streams.cache_clear()
        report = run_server_cell(
            ServerSpec("chaos-smoke", requests=40, chaos=True))
        assert report["violations"] == []
        assert built == {t.name: 1 for t in get_preset("chaos-smoke").tiers}

    def test_shared_streams_are_tuples(self):
        shared = server_streams(_small(), SEED)
        assert server_streams(_small(), SEED) is shared
        for streams in shared:
            for name in ("gaps", "svc", "lockidx", "iswrite", "jitter"):
                assert type(getattr(streams, name)) is tuple, name


class TestDeterminism:
    def test_interp_parity_byte_identical(self):
        config = _small()
        reports = {}
        for interp in ("fast", "reference"):
            vm, storm = _run(config, interp=interp)
            report = build_report(
                vm, config, seed=SEED, mode="rollback",
                outcome="completed", violations=[],
                storm_events=storm.events, injected={},
            )
            reports[interp] = json.dumps(report, sort_keys=True)
        assert reports["fast"] == reports["reference"]

    def test_fingerprints_match_across_interps(self):
        config = _small()
        digests = set()
        for interp in ("fast", "reference"):
            vm, _ = _run(config, interp=interp)
            digests.add(
                fingerprint_digest(final_fingerprint(vm, "completed"))
            )
        assert len(digests) == 1

    def test_rerun_is_byte_identical(self):
        config = _small()
        a, _ = _run(config)
        b, _ = _run(config)
        assert fingerprint_digest(
            final_fingerprint(a, "completed")
        ) == fingerprint_digest(final_fingerprint(b, "completed"))


class TestReport:
    def test_latency_summary_nearest_rank(self):
        samples = list(range(1, 101))
        summary = latency_summary(samples)
        assert summary["count"] == 100
        assert summary["p50"] == 50
        assert summary["p99"] == 99
        assert summary["p999"] == 100
        assert summary["max"] == 100
        assert summary["mean"] == 50

    def test_latency_summary_empty(self):
        assert latency_summary([])["count"] == 0

    def test_latency_summary_empty_uses_null_sentinel(self):
        # A fully-shed tier served nothing: percentiles must be the
        # explicit None sentinel, not a misleading 0-cycle latency.
        summary = latency_summary([])
        for key in ("p50", "p99", "p999", "max", "mean"):
            assert summary[key] is None, key

    def test_latency_summary_single_sample(self):
        summary = latency_summary([37])
        assert summary == {
            "count": 1, "p50": 37, "p99": 37, "p999": 37,
            "max": 37, "mean": 37,
        }

    def test_render_report_shows_dash_for_shed_tier(self):
        from repro.server.report import render_report

        report = {
            "format": "repro.server/1", "config": "synthetic",
            "seed": "0x1", "mode": "rollback", "scheduler": "priority",
            "outcome": "completed", "violations": [],
            "elapsed_cycles": 1000, "requests": 4, "threads": 2,
            "context_switches": 7, "injected": {},
            "storm": {"events": [], "entries": 0},
            "robustness": {"watchdog_trips": 0},
            "tiers": {
                "shed-out": {
                    "priority": 1, "requests": 4, "completed": 0,
                    "shed": 4, "timeouts": 0, "retries": 0,
                    "dropped": 0, "errors": 0, "goodput_per_mcycle": 0,
                    "latency": latency_summary([]),
                    "cycles": 0, "blocked_cycles": 0, "revocations": 0,
                },
            },
        }
        text = render_report(report)
        row = next(l for l in text.splitlines() if "shed-out" in l)
        assert "None" not in row
        assert row.count("-") >= 3  # p50/p99/p999 all render as "-"

    def test_report_shape(self):
        config = _small()
        vm, storm = _run(config)
        report = build_report(
            vm, config, seed=SEED, mode="rollback",
            outcome="completed", violations=[],
            storm_events=storm.events, injected={},
        )
        assert report["format"] == "repro.server/1"
        assert report["seed"] == f"0x{SEED:x}"
        assert set(report["tiers"]) == {"gold", "bronze"}
        for tier in report["tiers"].values():
            assert tier["latency"]["count"] == tier["completed"]
        assert "interp" not in json.dumps(report)
        rb = report["robustness"]
        assert set(rb) == {
            "retry_budget_exhausted", "degradations_to_inheritance",
            "degradations_to_nonrevocable", "starvations_detected",
            "watchdog_trips",
        }

    def test_report_integers_only(self):
        config = _small()
        vm, storm = _run(config)
        report = build_report(
            vm, config, seed=SEED, mode="rollback",
            outcome="completed", violations=[],
            storm_events=storm.events, injected={},
        )

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, (list, tuple)):
                for v in node:
                    walk(v)
            else:
                assert not isinstance(node, float), node

        walk(report)


class TestEpisodeAttribution:
    """Per-tier priority-inversion episode counts in the cell report,
    fed by the always-on streaming tracer + online episode sink."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.server.plane import ServerSpec, run_server_cell

        return run_server_cell(ServerSpec(preset="baseline"))

    def test_episode_totals_pinned(self, report):
        assert report["episodes"] == {
            "total": 78,
            "inversion_cycles": 46784,
            "by_resolution": {
                "natural-release": 21, "other": 50, "revocation": 7,
            },
        }

    def test_tier_attribution_pinned(self, report):
        tiers = report["tiers"]
        assert (tiers["gold"]["episodes"],
                tiers["gold"]["inversion_cycles"]) == (78, 46784)
        for name in ("silver", "bronze"):
            assert tiers[name]["episodes"] == 0
            assert tiers[name]["inversion_cycles"] == 0

    def test_tier_counts_reconcile_with_totals(self, report):
        assert sum(
            t["episodes"] for t in report["tiers"].values()
        ) == report["episodes"]["total"]
        assert sum(
            t["inversion_cycles"] for t in report["tiers"].values()
        ) == report["episodes"]["inversion_cycles"]
        assert sum(
            report["episodes"]["by_resolution"].values()
        ) == report["episodes"]["total"]

    def test_streaming_tracer_stays_healthy(self, report):
        """The sink runs in streaming mode: nothing stored, nothing
        dropped, no sink detached — however long the cell runs."""
        assert report["trace"] == {"dropped": 0, "sink_errors": 0}

    def test_report_renders_episode_columns(self, report):
        from repro.server.report import render_report

        text = render_report(report)
        assert "episd" in text and "inv-cyc" in text
        assert "inversion episodes: 78 (46784 blocked cycles)" in text
        assert "revocation=7" in text
