"""Summary statistics the benchmark reports, and the ladder's stop rule.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (capped at the percentile asked for),
together with the sample count, so a tail figure never rests on one or
two outliers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass(frozen=True)
class Tail:
    """A tail percentile as reported: which percentile, its value, n."""

    pct: float
    value: float
    n: int

    def label(self) -> str:
        return f"p{self.pct:g} of n={self.n}"


def tail_percentile(values: list[float], want: float = 99.0) -> Tail:
    """The highest percentile <= ``want`` with >= 10 samples beyond it.

    With ``n`` samples, ``BEYOND`` of them lie above the
    ``100 * (1 - BEYOND / n)`` percentile, so p99 needs 1000 samples and
    100 samples give p90.  Below 20 samples the rule would fall under the
    median; the median is reported then.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    allowed = 100.0 * (1.0 - BEYOND / n)
    pct = max(50.0, min(want, math.floor(allowed * 10) / 10))
    return Tail(pct, percentile(values, pct), n)


def backlog_growing(
    due: list[float], sent: list[float], min_growth_s: float = 0.25
) -> bool:
    """Whether requests waited longer and longer to be sent.

    Requests are ordered by due time and split into thirds; the backlog
    grows when the median wait (send time minus due time) of the last
    third exceeds that of the first third by more than ``min_growth_s``.
    A rate the system sustains keeps the wait flat however bursty the
    arrivals; a rate above capacity makes it climb for as long as the
    rung lasts.
    """
    waits = [s - d for d, s in sorted(zip(due, sent))]
    if len(waits) < 6:
        return False
    third = len(waits) // 3
    growth = statistics.median(waits[-third:]) - statistics.median(waits[:third])
    return growth > min_growth_s


@dataclass(frozen=True)
class RungVerdict:
    rate: float
    attempted: int
    failed: int
    tail: Tail
    backlog: bool
    slo_s: float

    @property
    def passed(self) -> bool:
        return self.failed == 0 and not self.backlog and self.tail.value <= self.slo_s


def judge_rung(
    rate: float,
    due: list[float],
    sent: list[float],
    latency: list[float],
    failed: int,
    slo_s: float,
) -> RungVerdict:
    """Verdict for one rung: tail latency (from due time) within the SLO,
    nothing failed, no growing backlog.  A failed request counts as
    missing the SLO, so ``latency`` holds ``math.inf`` for it."""
    return RungVerdict(
        rate=rate,
        attempted=len(latency),
        failed=failed,
        tail=tail_percentile(latency),
        backlog=backlog_growing(due, sent),
        slo_s=slo_s,
    )


def rate_at_slo(verdicts: list[RungVerdict]) -> float:
    """Highest rate before the first failing rung (0.0 if the first fails).

    The ladder climbs in order and stops at the first failure, so later
    rungs are never consulted even if they were run.
    """
    best = 0.0
    for verdict in verdicts:
        if not verdict.passed:
            break
        best = verdict.rate
    return best
