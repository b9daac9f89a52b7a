"""Utility helpers shared across the library: deterministic RNG streams,
summary statistics with confidence intervals, and plain-text rendering of
tables and line charts for benchmark reports."""

from repro.util.rng import DeterministicRng, derive_seed
from repro.util.stats import (
    Summary,
    confidence_interval,
    geometric_mean,
    normalize_series,
    summarize,
)
from repro.util.fmt import ascii_chart, format_table

__all__ = [
    "DeterministicRng",
    "derive_seed",
    "Summary",
    "confidence_interval",
    "geometric_mean",
    "normalize_series",
    "summarize",
    "ascii_chart",
    "format_table",
]
