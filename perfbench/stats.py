"""Small statistics helpers shared by the benchmark and its spread tool."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it.

    Nearest rank never interpolates, so a reported p99 is a latency some
    operation really had.  Raises ``ValueError`` on an empty sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100]: {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q`` percentile (the sample-support rule: report a percentile only
    with at least ten samples beyond it)."""
    if count <= 0:
        return 0
    return count - max(math.ceil(q / 100.0 * count), 1)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, with quartiles
    taken the way ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return math.inf
    return (q3 - q1) / abs(median)


def summarize(runs: List[Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per-metric median and relative spread over several runs."""
    names = sorted({name for run in runs for name in run})
    out = {}
    for name in names:
        values = [run[name] for run in runs if name in run]
        out[name] = {
            "median": statistics.median(values),
            "spread": relative_spread(values) if len(values) >= 2 else 0.0,
            "runs": len(values),
        }
    return out
