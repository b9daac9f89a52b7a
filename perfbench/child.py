"""One measured process of the benchmark (started by ``run.py``).

Every role runs in a fresh interpreter, so imports, lazily built state
and peak RSS never leak between workloads or between set-up probes::

    child.py setup WORKLOAD SEED SCALE           one set-up probe
    child.py run   WORKLOAD SEED SCALE SECONDS   the closed loop + checks
    child.py trace WORKLOAD SEED SCALE           the per-layer pass
    child.py fleet fig-sweep SEED SCALE          serial vs pool vs fleet

Each prints one JSON object as its last stdout line.  Times are in
reference-speed seconds (``calibrate.py``) unless a key says ``wall``.
"""

import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPRO_ROOT = str(ROOT / "src" / "repro")

#: steps of the per-layer pass: write ratios 0/40/80% of both fig panels,
#: a few cells elsewhere
TRACE_STEPS = {"fig-sweep": (0, 2, 4, 6, 8, 10), "server-soak": (0, 1, 2, 3),
               "dpor-trio": (0,), "obs-export": (0, 1)}


def _scratch() -> Path:
    path = ROOT / ".perfbench-tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _drop(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def _warm_check(step, seed, cache_dir, first) -> list[str]:
    """Re-run step 0 against the cache it filled: every cell must hit
    and the outputs must be byte-identical to the cold run."""
    warm, _ = step(seed, 0, cache_dir)
    problems = []
    if warm["fingerprint"] != first["fingerprint"]:
        problems.append("warm-cache outputs differ from cold-cache outputs")
    if warm["executed"]:
        problems.append(f"warm cache re-executed {warm['executed']} cells")
    return problems


def role_setup(workload: str, seed: int) -> dict:
    import workloads
    from calibrate import Timed

    with Timed() as timed:
        workloads.setup(workload, seed)
    return {"secs": timed.secs}


def role_run(workload: str, seed: int, scale: float, seconds: float) -> dict:
    import time

    import workloads

    workloads.setup(workload, seed)
    step = workloads.STEPS[workload]
    scratch = _scratch()
    records, outputs = [], []
    try:
        deadline = time.monotonic() + seconds
        k = 0
        while True:
            record, (_, _, output) = step(seed, k, scratch / str(k))
            records.append(record)
            if k < workloads.minimum_steps(workload):
                outputs.append(output)
            if k:
                shutil.rmtree(scratch / str(k), ignore_errors=True)
            k += 1
            if (time.monotonic() >= deadline
                    and k >= workloads.minimum_steps(workload)):
                break
        records[0]["problems"] += _warm_check(
            step, seed, scratch / "0", records[0])
    finally:
        _drop(scratch)
    if seed == workloads.DEFAULT_SEED and scale == 1.0:
        records[0]["problems"] += workloads.pin_problems(
            workload, records, outputs)
    return {
        "records": records,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _cache_probe(key_fn, inputs, cache_dir: Path, scratch: Path) -> dict:
    """Time the public cache calls on one step's real artifacts: re-key
    its inputs, read every entry it stored, write each to a new cache."""
    from calibrate import Timed
    from repro.bench.parallel import ResultCache

    source, sink = ResultCache(cache_dir), ResultCache(scratch / "probe")
    with Timed() as key:
        keys = [key_fn(item) for item in inputs]
    with Timed() as get:
        values = [source.get(k) for k in keys]
    with Timed() as put:
        for k, value in zip(keys, values):
            sink.put(k, value)
    shutil.rmtree(scratch / "probe", ignore_errors=True)
    return {
        "key_s": key.secs, "get_s": get.secs, "put_s": put.secs,
        "bytes": sum(p.stat().st_size for p in cache_dir.rglob("*.pkl")),
        "hits": sum(v is not None for v in values),
    }


def _profile_counts(stats: dict) -> dict:
    """Counters read off the profile: tracer events recorded and the
    cumulative seconds spent restoring snapshots."""
    events, restore_s = 0, 0.0
    for (filename, _, func), (_, nc, _, ct, _) in stats.items():
        if filename.endswith("repro/vm/tracing.py") and func == "record":
            events += nc
        if filename.endswith("repro/vm/snapshot.py") and func == "restore_vm":
            restore_s += ct
    return {"events": events, "restore_s": restore_s}


def role_trace(workload: str, seed: int) -> dict:
    import cProfile
    import pstats

    import layers
    import workloads
    from calibrate import Sampler

    workloads.setup(workload, seed)
    step = workloads.STEPS[workload]
    steps = TRACE_STEPS[workload]
    scratch = _scratch()
    out: dict = {"untraced": [], "traced": [], "cache": []}
    try:
        with Sampler():
            for k in steps:
                record, (key_fn, inputs, _) = step(seed, k, scratch / f"u{k}")
                out["untraced"].append(record)
                out["cache"].append(
                    _cache_probe(key_fn, inputs, scratch / f"u{k}", scratch))
            warm, _ = step(seed, steps[0], scratch / f"u{steps[0]}")
            out["warm"] = {
                "hits": warm["hits"], "executed": warm["executed"],
                "same": warm["fingerprint"]
                == out["untraced"][0]["fingerprint"],
            }
            if workload == "fig-sweep":
                from repro.vm.vmcore import VMOptions

                # panel 5a on each interpreter, uncached
                out["interp"] = {
                    interp: [
                        step(seed, k, None,
                             options=VMOptions(interp=interp))[0]
                        for k in steps if k < len(workloads.FIG_RATIOS)
                    ]
                    for interp in ("fast", "reference")
                }
            if workload == "obs-export":
                out["profile_on"] = [step(seed, k, None)[0] for k in steps]
                out["profile_off"] = [
                    step(seed, k, None, profile=False)[0] for k in steps
                ]
        # the profiled steps run without the sampler, whose kernels the
        # profiler would otherwise charge to whatever frame they interrupt
        profiler = cProfile.Profile()
        for k in steps:
            record, _ = step(seed, k, scratch / f"t{k}", profiler)
            out["traced"].append(record)
        stats = pstats.Stats(profiler).stats
        out["layers"] = layers.attribute(stats, REPRO_ROOT)
        out["profile"] = _profile_counts(stats)
    finally:
        _drop(scratch)
    return out


def role_fleet(seed: int) -> dict:
    """Panel 5a on the process pool, on a loopback fleet of two workers
    and serially, uncached; the three panel JSONs must be identical.
    Serial runs last, so that no lane is charged the process's first
    VM runs; the pool and fleet lanes pay their own workers' start-up."""
    import workloads
    from calibrate import Timed
    from repro.bench.figures import FigurePanel, run_panel
    from repro.bench.parallel import RunEngine
    from repro.bench.report import panel_json
    from repro.fleet.engine import FleetEngine

    workloads.setup("fig-sweep", seed)
    out = {}

    def lane(name, engine):
        with Timed() as timed:
            result = run_panel(FigurePanel(5, "a"), repetitions=2,
                               seed=seed, engine=engine)
        out[name] = {"secs": timed.secs, "wall": timed.wall,
                     "fingerprint": workloads.digest(panel_json(result))}

    lane("pool", RunEngine(jobs=2))
    fleet = FleetEngine.local(2, worker_env={"REPRO_BENCH_CACHE": "0"})
    try:
        lane("fleet", fleet)
        out["fleet_bytes"] = sum(
            w["bytes_sent"] + w["bytes_received"]
            for w in fleet.last_stats.workers.values())
    finally:
        fleet.close()
    lane("serial", RunEngine(jobs=1))
    return out


def main(argv: list[str]) -> int:
    role, workload, seed, scale = argv[0], argv[1], int(argv[2]), \
        float(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from calibrate import Sampler

    workloads.scale_env(scale)
    if role == "setup":
        with Sampler():
            result = role_setup(workload, seed)
    elif role == "run":
        with Sampler():
            result = role_run(workload, seed, scale, float(argv[4]))
    elif role == "trace":
        result = role_trace(workload, seed)
    elif role == "fleet":
        result = role_fleet(seed)
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
