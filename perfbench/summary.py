"""Order statistics and failure accounting for one benchmark run."""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a percentile for it to count as measured.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    samples: int
    beyond: int  # samples strictly above the reported rank

    @property
    def resolved(self) -> bool:
        """Whether at least ``TAIL_MIN_BEYOND`` samples lie beyond it."""
        return self.beyond >= TAIL_MIN_BEYOND


def _rank(percentile: float, n: int) -> int:
    # Nearest-rank percentile: the smallest rank covering that share.
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def tail(samples) -> Tail:
    """The highest ladder percentile with at least ten samples beyond it.

    With fewer than 20 samples no rung qualifies; the median rank is
    reported instead and :attr:`Tail.resolved` is false.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            break
    rank = _rank(p, n)
    return Tail(p, xs[rank - 1], n, n - rank)


def median(samples) -> float:
    return statistics.median(samples)


@dataclass
class Tally:
    """Tasks attempted and failed; a task fails when its verdict is false or
    it raises.  Failures are logged to stderr and never stop the run."""

    attempted: int = 0
    failed: int = 0
    verdicts: list = field(default_factory=list)

    def run(self, task):
        """Run ``task()``, which returns a verdict with an ``ok`` attribute;
        returns the verdict, or None if the task raised."""
        self.attempted += 1
        try:
            verdict = task()
        except Exception:  # a raising task is a failed task, not a stopped run
            self.failed += 1
            print(f"task {self.attempted} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.verdicts.append(None)
            return None
        if not verdict.ok:
            self.failed += 1
            print(f"task {self.attempted} failed its verdict: {verdict}", file=sys.stderr)
        self.verdicts.append(verdict)
        return verdict

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
