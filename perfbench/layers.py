"""Module-to-layer map and cProfile self-time attribution.

Every module under ``src/repro`` belongs to exactly one named layer
(:data:`MODULE_LAYERS` names single modules, :data:`PACKAGE_LAYERS` whole
packages; a few functions are re-homed by :data:`FUNCTION_LAYERS`).  Code that is not ``repro`` code --
C builtins and stdlib frames such as ``copy``, ``pickle``, ``hashlib`` and
``json`` -- has no layer of its own: its self time is credited to the
``repro`` frames that called it, split by the per-edge self time cProfile
records, and followed through stdlib-to-stdlib calls (``deepcopy``
recursion) until a ``repro`` caller is reached.  Self time that never
reaches a ``repro`` frame is ``other``.

Run ``python3 perfbench/layers.py`` for the self-check that every module
under ``src/repro`` maps to a named layer.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the layers the ledger reports, in report order
LAYERS = (
    "vm.superblock",
    "vm.predecode",
    "vm.fallback",
    "vm.model",
    "core.barrier",
    "core.undolog",
    "core.revocation",
    "vm.sched",
    "trace.sink",
    "obs.export",
    "obs.profile",
    "vm.snapshot",
    "check",
    "server",
    "faults",
    "cache",
    "fleet",
    "harness",
)

#: whole packages (relative to ``repro``) -> layer, unless a module of
#: the package is listed in :data:`MODULE_LAYERS`
PACKAGE_LAYERS = {
    "core": "core.revocation",
    "check": "check",
    "server": "server",
    "faults": "faults",
    "fleet": "fleet",
    "lang": "vm.model",
}

#: single modules (relative to ``repro``; ``""`` is the package itself)
#: -> layer.  A module added later that is in neither map fails the
#: self-check until someone decides which layer it belongs to.
MODULE_LAYERS = {
    "vm.tracecomp": "vm.superblock",
    "vm.predecode": "vm.predecode",
    "vm.fastinterp": "vm.fallback",
    "vm.interpreter": "vm.fallback",
    # the guest program model: values, bytecode, class files, the
    # assembler and the host-side helpers guest code calls into
    "vm": "vm.model",
    "vm.values": "vm.model",
    "vm.bytecode": "vm.model",
    "vm.classfile": "vm.model",
    "vm.assembler": "vm.model",
    "vm.guestlib": "vm.model",
    "vm.native": "vm.model",
    "vm.support": "vm.model",
    "vm.inspector": "vm.model",
    "vm.timeline": "vm.model",
    "vm.heap": "core.barrier",
    "core.jmm": "core.barrier",
    "core.transform": "core.barrier",
    "core.undolog": "core.undolog",
    "vm.scheduler": "vm.sched",
    "vm.monitors": "vm.sched",
    "vm.threads": "vm.sched",
    "vm.clock": "vm.sched",
    "vm.vmcore": "vm.sched",
    "vm.tracing": "trace.sink",
    "obs.spans": "trace.sink",
    "obs.episodes": "trace.sink",
    "obs.capture": "obs.export",
    "obs.export": "obs.export",
    "obs.profile": "obs.profile",
    "vm.snapshot": "vm.snapshot",
    "util.rng": "server",
    "util.reservoir": "server",
    # the pool lane of RunEngine.map; the cache half of this module is
    # re-homed function by function below
    "bench.parallel": "fleet",
    # figure sweeps, report rendering, scenario registries and CLIs
    "": "harness",
    "errors": "harness",
    "bench": "harness",
    "bench.__main__": "harness",
    "bench.figures": "harness",
    "bench.harness": "harness",
    "bench.hostperf": "harness",
    "bench.microbench": "harness",
    "bench.report": "harness",
    "bench.workloads": "harness",
    "obs": "harness",
    "obs.__main__": "harness",
    "obs.debug": "harness",
    "obs.scenarios": "harness",
    "util": "harness",
    "util.fmt": "harness",
    "util.stats": "harness",
}

#: (module, function name) -> layer, overriding the module's layer
FUNCTION_LAYERS = {
    ("core.revocation", "after_load"): "core.barrier",
    ("core.revocation", "before_store"): "core.barrier",
    ("core.revocation", "before_store_batch"): "core.barrier",
    ("vm.support", "after_load"): "core.barrier",
    ("vm.support", "before_store"): "core.barrier",
    ("vm.support", "before_store_batch"): "core.barrier",
    ("vm.vmcore", "trace"): "trace.sink",
    ("bench.parallel", "_feed"): "cache",
    ("bench.parallel", "cache_key"): "cache",
    ("bench.parallel", "source_digest"): "cache",
    ("bench.parallel", "payload_digest"): "cache",
    ("bench.parallel", "spec_key"): "cache",
    ("bench.parallel", "_path"): "cache",
    ("bench.parallel", "get_bytes"): "cache",
    ("bench.parallel", "get"): "cache",
    ("bench.parallel", "put_bytes"): "cache",
    ("bench.parallel", "put"): "cache",
    ("server.plane", "server_cell_key"): "cache",
    ("obs.capture", "obs_spec_key"): "cache",
    ("check.explorer", "check_cell_key"): "cache",
}

#: filename prefix of code that ``vm.predecode`` generates at run time
GENERATED_PREFIX = "<decoded "


def module_layer(module: str) -> str | None:
    """Layer of a dotted module path relative to ``repro``, or None."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    return PACKAGE_LAYERS.get(module.split(".")[0])


def repro_module(filename: str, repro_root: str) -> str | None:
    """Dotted module of ``filename`` if it lies under ``repro_root``."""
    if not filename.startswith(repro_root) or not filename.endswith(".py"):
        return None
    rel = filename[len(repro_root):].lstrip("/")[:-3].replace("/", ".")
    return "" if rel == "__init__" else rel.removesuffix(".__init__")


def frame_layer(filename: str, func: str, repro_root: str) -> str | None:
    """Layer of one profiled function; None for builtins and stdlib."""
    if filename.startswith(GENERATED_PREFIX):
        return "vm.superblock"
    module = repro_module(filename, repro_root)
    if module is None:
        return None
    layer = FUNCTION_LAYERS.get((module, func)) or module_layer(module)
    return layer or "other"


def attribute(stats: dict, repro_root: str) -> dict[str, float]:
    """Fold pstats-shaped ``stats`` into per-layer self seconds.

    ``stats`` maps ``(file, line, func)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping caller keys to ``(nc, cc, tt,
    ct)`` edge tuples, as :class:`pstats.Stats` stores them.  The result
    has every layer in :data:`LAYERS` plus ``other``; its values sum to
    the total profiled self time.
    """
    share: dict = {}
    pending = []
    for key in stats:
        layer = frame_layer(key[0], key[2], repro_root)
        if layer is None:
            pending.append(key)
        else:
            share[key] = {layer: 1.0}
    # Fixed-point iteration: a non-repro frame's share is the normalized,
    # edge-weighted mix of the shares of those callers that already have
    # one, so recursion inside the stdlib (deepcopy -> _deepcopy_dict ->
    # deepcopy) inherits the mix of the repro frames that entered it.
    # Only frames that no repro frame reaches stay unassigned: ``other``.
    for _ in range(64):
        changed = False
        for key in pending:
            callers = stats[key][4]
            weights = {c: e[2] for c, e in callers.items()}
            if not any(weights.values()):
                weights = {c: e[0] for c, e in callers.items()}
            mix: dict[str, float] = {}
            for caller, w in weights.items():
                for layer, frac in share.get(caller, {}).items():
                    mix[layer] = mix.get(layer, 0.0) + frac * w
            total = sum(mix.values())
            if not total:
                continue
            mix = {layer: v / total for layer, v in mix.items()}
            old = share.get(key, {})
            if any(abs(mix.get(k, 0.0) - old.get(k, 0.0)) > 1e-9
                   for k in set(mix) | set(old)):
                share[key] = mix
                changed = True
        if not changed:
            break
    out = {layer: 0.0 for layer in LAYERS}
    out["other"] = 0.0
    for key, entry in stats.items():
        tt = entry[2]
        mix = share.get(key, {})
        for layer, frac in mix.items():
            out[layer] += tt * frac
        out["other"] += tt * max(0.0, 1.0 - sum(mix.values()))
    return out


def self_check(src_root: Path) -> list[str]:
    """Modules under ``src_root/repro`` whose layer is not a named one."""
    root = src_root / "repro"
    problems = []
    for path in sorted(root.rglob("*.py")):
        module = repro_module(str(path), str(root))
        if module_layer(module) not in LAYERS:
            problems.append(module or "repro")
    for (module, _), layer in FUNCTION_LAYERS.items():
        if not (root / (module.replace(".", "/") + ".py")).is_file():
            problems.append(f"function override names missing {module}")
        if layer not in LAYERS:
            problems.append(f"{module} override -> {layer}")
    return problems


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    bad = self_check(src)
    for line in bad:
        print(f"unmapped: {line}", file=sys.stderr)
    count = sum(1 for _ in (src / "repro").rglob("*.py"))
    print(f"{count} modules checked, {len(bad)} unmapped")
    sys.exit(1 if bad else 0)
