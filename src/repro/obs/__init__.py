"""Deterministic observability plane.

Layered on the three seams the VM already exposes — the :class:`Tracer`
sink list, the :class:`VirtualClock` advance path, and the
:class:`RuntimeSupport` hook set — this package turns a run into
analyzable artifacts without perturbing it:

* :mod:`repro.obs.spans` — folds the raw trace-event stream into typed,
  causally-linked spans (sections, blocking, waits, revocation chains,
  degradations, fault windows) with exact virtual-cycle durations;
* :mod:`repro.obs.profile` — the virtual-cycle profiler: per-track /
  per-category / per-method cycle attribution whose totals equal the
  final virtual clock *exactly*, plus folded-stack flamegraph data;
* :mod:`repro.obs.export` — byte-stable exporters: the versioned
  ``repro.obs/1`` JSONL span schema, Chrome trace-event JSON
  (Perfetto / chrome://tracing), and folded-stack text;
* :mod:`repro.obs.capture` — one-call capture of any registered
  scenario into the full artifact bundle, cacheable through the
  :class:`repro.bench.parallel.RunEngine`;
* ``python -m repro.obs`` — ``spans`` / ``profile`` / ``export`` /
  ``summary`` subcommands over any scenario, figure cell or workload.

Everything here is deterministic: the same scenario + seed produces
byte-identical artifacts on every interpreter, worker count and cache
state — the property that makes traces diffable across commits.
"""

from repro.obs.capture import ObsSpec, capture_run, obs_spec_key
from repro.obs.export import (
    chrome_trace_bytes,
    folded_stacks,
    spans_jsonl_bytes,
)
from repro.obs.profile import CycleProfiler
from repro.obs.spans import Span, SpanBuilder, build_spans

__all__ = [
    "CycleProfiler",
    "ObsSpec",
    "Span",
    "SpanBuilder",
    "build_spans",
    "capture_run",
    "chrome_trace_bytes",
    "folded_stacks",
    "obs_spec_key",
    "spans_jsonl_bytes",
]
