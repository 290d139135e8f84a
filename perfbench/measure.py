"""Summary statistics for the benchmark's timings, and its process bookkeeping."""

from __future__ import annotations

import math
import multiprocessing
import resource
from multiprocessing import resource_tracker

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples.

    Rounded before the ceiling so that e.g. 99.9 % of 10,000 is rank 9,990,
    not 9,991 through a floating-point excess.
    """
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p`` % of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least 10 of ``n`` samples beyond it.

    ``None`` when even the median has fewer than 10 samples beyond it
    (``n < 20``): such a run has no tail worth reporting.
    """
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def rss_peak_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def start_tracker() -> None:
    """Start multiprocessing's resource tracker now, as a child of this process.

    Call before any pool forks its workers.  A worker forked before the
    tracker runs starts a tracker of its own when it attaches the
    shared-memory broadcast; that tracker outlives the worker, and this
    process cannot wait for a grandchild.  Workers forked afterwards share
    this one, which :func:`stop_children` stops.
    """
    resource_tracker.ensure_running()


def stop_children() -> None:
    """Stop every process this one started, and wait until each has ended.

    The fusion workspace joins its pool workers when it closes; this also
    reaps any worker an error path left behind, and stops multiprocessing's
    resource tracker.  The shared-memory broadcast starts that tracker, and
    left alone it outlives this process by the time it takes to notice the
    exit.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
