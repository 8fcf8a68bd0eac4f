"""Order statistics and failure accounting shared by the benchmark parts.

Nothing here imports the program under test.
"""

import math
from typing import Iterable, List, Optional, Sequence, Tuple

# Ladder searched from the top by tail_percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def nearest_rank(xs: Sequence[float], pct: float) -> Tuple[int, float]:
    """1-based nearest rank of `pct` in sorted `xs` and its value."""
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return rank, xs[rank - 1]


def tail_percentile(values: Iterable[float]
                    ) -> Optional[Tuple[float, float, int]]:
    """(percentile, value, samples beyond it) at the highest ladder
    percentile that still has at least ten samples beyond it, or None
    when even the median has fewer than ten beyond."""
    xs = sorted(values)
    for pct in TAIL_LADDER:
        if not xs:
            break
        rank, value = nearest_rank(xs, pct)
        beyond = len(xs) - rank
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    return None


class Ledger:
    """Attempted and failed operations of one workload run.

    A failure is anything the workload's gates reject: a nonzero exit,
    `"ok": false`, a failed gate, a raised exception or a non-finite
    field.  Failures are counted, never raised, so one bad operation
    does not hide the rest of the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, label: str, ok: bool, why: str = "gate failed") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(f"{label}: {why}")
        return ok

    def call(self, label: str, fn, *args, **kwargs):
        """Run fn; an exception counts as a failure and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must keep running
            self.check(label, False, f"{type(exc).__name__}: {exc}")
            return None

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.reasons.extend(other["reasons"])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons[:20]}

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
