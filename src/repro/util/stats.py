"""Summary statistics used by the benchmark harness.

The paper (§4.1) reports the mean of five benchmark iterations with 90%
confidence intervals; :func:`summarize` reproduces that methodology for any
sample of repetitions.

The confidence level is fixed at the paper's 90%.  Critical values come
from the embedded Student-t table (two-sided, 90%, 1..40 degrees of
freedom), so every environment computes the same half-widths and
benchmark reports and EXPERIMENTS.md numbers are byte-stable.  Beyond
the table the two-sided 90% normal quantile ``z = 1.645`` stands in; at
41 degrees of freedom the exact t value is 1.683, so the half-width is
understated by at most ~2.3% there and the error shrinks as 1/dof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Two-sided 90% critical values of Student's t for 1..40 degrees of freedom.
_T90 = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
    1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
    1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    1.696, 1.694, 1.692, 1.691, 1.690, 1.688, 1.687, 1.686, 1.685, 1.684,
]
_Z90 = 1.645  # normal approximation beyond the table (documented above)


def _t_critical(dof: int) -> float:
    if dof < 1:
        raise ValueError("need at least 2 samples for an interval")
    return _T90[dof - 1] if dof <= len(_T90) else _Z90


@dataclass(frozen=True)
class Summary:
    """Mean, spread and confidence half-width of a sample."""

    n: int
    mean: float
    stdev: float
    ci_halfwidth: float
    minimum: float
    maximum: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_halfwidth

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci_halfwidth:.2g} (n={self.n})"


def summarize(samples: Sequence[float]) -> Summary:
    """Summarize a sample as the paper does: mean with a 90% t-based CI."""
    xs = [float(x) for x in samples]
    if not xs:
        raise ValueError("empty sample")
    n = len(xs)
    mean = math.fsum(xs) / n
    if n == 1:
        return Summary(1, mean, 0.0, 0.0, xs[0], xs[0])
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    stdev = math.sqrt(var)
    half = _t_critical(n - 1) * stdev / math.sqrt(n)
    return Summary(n, mean, stdev, half, min(xs), max(xs))


def confidence_interval(samples: Sequence[float]) -> tuple[float, float]:
    """Convenience wrapper returning the 90% ``(low, high)`` bounds of
    the mean."""
    s = summarize(samples)
    return (s.ci_low, s.ci_high)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("empty sample")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    return math.exp(math.fsum(math.log(v) for v in vals) / len(vals))


def normalize_series(values: Sequence[float], baseline: float) -> list[float]:
    """Divide every value by ``baseline`` (the paper normalizes each panel to
    the unmodified VM's 100%-reads configuration)."""
    if baseline == 0:
        raise ValueError("baseline must be non-zero")
    return [float(v) / baseline for v in values]


def nearest_rank(sorted_samples: Sequence[int], numer: int, denom: int) -> int:
    """Nearest-rank percentile of an ascending integer sample.

    ``numer/denom`` is the percentile as a fraction (p99 = 99/100,
    p999 = 999/1000).  Pure integer arithmetic — the latency reports built
    on this must stay byte-identical across hosts, so no float rounding is
    allowed anywhere near them.  Raises on an empty sample.
    """
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("empty sample")
    if not (0 < numer <= denom):
        raise ValueError(f"percentile {numer}/{denom} outside (0, 1]")
    rank = (n * numer + denom - 1) // denom  # ceil(n * p), 1-based
    return sorted_samples[rank - 1]
