"""Order statistics for per-op latencies.

Kept free of numpy and of regcert so the parent process and the tests can
use it without importing the program under test.
"""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    mid = len(vals) // 2
    if len(vals) % 2:
        return float(vals[mid])
    return 0.5 * (vals[mid - 1] + vals[mid])


def tail_percentile(n_min: int, beyond: int = TAIL_BEYOND) -> float:
    """Highest percentile that leaves `beyond` samples above it in n_min.

    The nearest-rank position of percentile p in n samples is
    ceil(p/100 * n), so p = 100 * (n_min - beyond) / n_min puts exactly
    `beyond` samples above the reported one.  A workload fixes n_min (ops
    per pass times its minimum pass count), so the percentile it reports
    does not drift with how many passes a run happens to complete.
    """
    if n_min <= beyond:
        raise ValueError(f"need more than {beyond} samples, have {n_min}")
    return 100.0 * (n_min - beyond) / n_min


def nearest_rank(values, p: float):
    """(value, rank, beyond): the nearest-rank percentile of values.

    rank is 1-based; beyond counts the samples ranked above it.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("percentile of no values")
    # the epsilon keeps an exact product such as 0.75 * 40 from rounding up
    rank = min(n, max(1, math.ceil(p / 100.0 * n - 1e-9)))
    return float(vals[rank - 1]), rank, n - rank


def tail(values, n_min: int, beyond: int = TAIL_BEYOND):
    """(value, percentile, samples beyond) of the latency tail."""
    p = tail_percentile(n_min, beyond)
    value, _, above = nearest_rank(values, p)
    return value, p, above
