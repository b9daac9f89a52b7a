"""Named server shapes (``python -m repro.server --preset ...``).

Each preset is a pure function returning a :class:`ServerConfig`; the
registry is source code, so worker processes rebuild identical configs
and the content-addressed result cache stays coherent.  ``--requests``
rescales any preset's tier request counts proportionally.

Remember the simulated machine is a **uniprocessor**: stability is
governed by the *combined* arrival rate against the per-request service
cost, not per-tier rates.  ``baseline`` sits near 50% utilization;
``storm`` and ``chaos-smoke`` are deliberately overloaded so admission
control, timeouts and the abort-storm ladder all engage; ``soak`` is the
scalable acceptance shape; ``fleet`` demonstrates thousand-thread scale.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.workloads import unknown_name
from repro.server.workload import ServerConfig, TierSpec


def _baseline() -> ServerConfig:
    """Three SLA tiers at ~50% utilization: the well-behaved server."""
    return ServerConfig(
        name="baseline",
        tiers=(
            TierSpec(
                "gold", priority=9, requests=240, mean_gap=2_000,
                arrival="poisson", workers=3, write_pct=40, svc_iters=18,
                timeout=30_000, max_retries=3, backoff=1_500, jitter=700,
                shed_depth=48,
            ),
            TierSpec(
                "silver", priority=6, requests=150, mean_gap=3_200,
                arrival="bursty", workers=2, write_pct=60, svc_iters=24,
                timeout=40_000, max_retries=3, backoff=2_000, jitter=900,
                shed_depth=32,
            ),
            TierSpec(
                "bronze", priority=3, requests=110, mean_gap=4_500,
                arrival="heavy", workers=2, write_pct=70, svc_iters=30,
                heavy_service=True, timeout=60_000, max_retries=2,
                backoff=2_500, jitter=1_100, shed_depth=24,
            ),
        ),
        locks=4, cells=16, hot_lock_pct=55,
        storm_window=25_000, storm_enter=10, storm_exit=2,
    )


def _storm() -> ServerConfig:
    """Heavily overloaded single hot lock: priority inversions, abort
    storms, shedding, retry exhaustion — the ladder's proving ground."""
    return ServerConfig(
        name="storm",
        tiers=(
            TierSpec(
                "gold", priority=9, requests=140, mean_gap=600,
                arrival="bursty", workers=3, write_pct=90, svc_iters=80,
                timeout=60_000, max_retries=3, backoff=800, jitter=400,
                shed_depth=24,
            ),
            TierSpec(
                "silver", priority=5, requests=120, mean_gap=800,
                arrival="poisson", workers=3, write_pct=90, svc_iters=80,
                timeout=60_000, max_retries=3, backoff=1_000, jitter=500,
                shed_depth=24,
            ),
            TierSpec(
                "bronze", priority=2, requests=100, mean_gap=1_000,
                arrival="heavy", workers=2, write_pct=90, svc_iters=240,
                heavy_service=True, timeout=80_000, max_retries=2,
                backoff=1_200, jitter=600, shed_depth=16,
            ),
        ),
        locks=1, cells=8, hot_lock_pct=100,
        storm_window=15_000, storm_enter=6, storm_exit=1,
        storm_escalations=1,
    )


def _chaos_smoke() -> ServerConfig:
    """CI-sized overload shape (~1 minute with chaos + auditor)."""
    return ServerConfig(
        name="chaos-smoke",
        tiers=(
            TierSpec(
                "gold", priority=8, requests=90, mean_gap=900,
                arrival="bursty", workers=2, write_pct=80, svc_iters=36,
                timeout=10_000, max_retries=2, backoff=700, jitter=300,
                shed_depth=12,
            ),
            TierSpec(
                "bronze", priority=3, requests=70, mean_gap=1_200,
                arrival="heavy", workers=2, write_pct=80, svc_iters=48,
                heavy_service=True, timeout=14_000, max_retries=2,
                backoff=900, jitter=400, shed_depth=10,
            ),
        ),
        locks=2, cells=8, hot_lock_pct=80,
        storm_window=12_000, storm_enter=5, storm_exit=1,
    )


def _soak() -> ServerConfig:
    """The scalable acceptance shape: moderate overload across four
    tiers; ``--requests 100000`` turns it into the 10^5-request soak."""
    return ServerConfig(
        name="soak",
        tiers=(
            TierSpec(
                "platinum", priority=9, requests=1_200, mean_gap=3_400,
                arrival="poisson", workers=4, write_pct=50, svc_iters=24,
                timeout=60_000, max_retries=3, backoff=1_200, jitter=600,
                shed_depth=48,
            ),
            TierSpec(
                "gold", priority=7, requests=1_100, mean_gap=4_000,
                arrival="bursty", workers=4, write_pct=60, svc_iters=30,
                timeout=70_000, max_retries=3, backoff=1_400, jitter=700,
                shed_depth=40,
            ),
            TierSpec(
                "silver", priority=5, requests=900, mean_gap=5_000,
                arrival="heavy", workers=4, write_pct=70, svc_iters=36,
                timeout=90_000, max_retries=3, backoff=1_600, jitter=800,
                shed_depth=36,
            ),
            TierSpec(
                "bronze", priority=2, requests=800, mean_gap=6_000,
                arrival="heavy", workers=4, write_pct=80, svc_iters=42,
                heavy_service=True, timeout=120_000, max_retries=2,
                backoff=2_000, jitter=1_000, shed_depth=28,
            ),
        ),
        locks=3, cells=12, hot_lock_pct=50,
        storm_window=20_000, storm_enter=8, storm_exit=2,
    )


def _fleet() -> ServerConfig:
    """Thousand-thread scale demonstrator: 12 tiers, 84 workers each."""
    tiers = tuple(
        TierSpec(
            f"t{i:02d}", priority=2 + (i % 8), requests=40,
            mean_gap=8_000 + 500 * i,
            arrival=("poisson", "bursty", "heavy")[i % 3],
            workers=84, write_pct=50, svc_iters=20, timeout=60_000,
            max_retries=2, backoff=2_000, jitter=1_000, shed_depth=40,
        )
        for i in range(12)
    )
    return ServerConfig(
        name="fleet", tiers=tiers, locks=6, cells=16, hot_lock_pct=40,
        storm_window=40_000, storm_enter=12, storm_exit=2,
    )


PRESETS: dict[str, Callable[[], ServerConfig]] = {
    "baseline": _baseline,
    "storm": _storm,
    "chaos-smoke": _chaos_smoke,
    "soak": _soak,
    "fleet": _fleet,
}


def get_preset(name: str) -> ServerConfig:
    preset = PRESETS.get(name)
    if preset is None:
        raise unknown_name("server preset", name, PRESETS)
    return preset()
