"""Measurement math for the repository benchmark.

Percentiles, due-time request latency and the serving ladder rule are pure
functions so that ``test_perfbench_math.py`` can pin them down; the peak-RSS
reader reads ``/proc``.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile with linear interpolation between closest ranks.

    The same definition as numpy's default (``method="linear"``): rank
    ``(n - 1) * q / 100`` of the sorted values, interpolated.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if ordered[low] == ordered[high]:
        # Also keeps equal infinite values (failed requests) from giving NaN.
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """50th percentile."""
    return percentile(values, 50.0)


def windowed_percentile(values: Sequence[float], q: float, window: int) -> float:
    """Median, over consecutive full windows of ``window`` values, of each
    window's ``q``-th percentile.

    A tail percentile pooled over a whole run is set by its single worst
    stretch; the median over windows reports the tail a typical stretch
    shows.  With fewer than ``window`` values the pooled percentile is
    returned.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    count = len(values) // window
    if count == 0:
        return percentile(values, q)
    return median(
        [percentile(values[k * window : (k + 1) * window], q) for k in range(count)]
    )


def due_latencies(due: Sequence[float], done: Sequence[float]) -> list[float]:
    """Per-request latency measured from when each request was due to be sent.

    Timing from the due time (not from the moment the generator got round
    to sending) charges a generator or event-loop stall to every request
    it delayed, as an open-loop client would see it.
    """
    if len(due) != len(done):
        raise ValueError("due and done differ in length")
    return [end - start for start, end in zip(due, done)]


def rung_passes(
    due: Sequence[float], done: Sequence[float], limit_ms: float
) -> bool:
    """Whether one ladder rung met the latency limit without a growing backlog.

    The rung passes when its 99th-percentile due-time latency is within
    ``limit_ms`` and its last request also completed within ``limit_ms`` of
    its due time: a backlog still growing when the schedule ends shows up as
    a late final completion.
    """
    latencies_ms = [1e3 * value for value in due_latencies(due, done)]
    drain_ms = 1e3 * (done[-1] - due[-1])
    return percentile(latencies_ms, 99.0) <= limit_ms and drain_ms <= limit_ms


def ladder_should_stop(passed: Sequence[bool]) -> bool:
    """Stop climbing once two consecutive rungs have failed.

    One failing rung can be a noisy stretch; two in a row mean the service
    is past its capacity and higher rates can only fail.
    """
    return len(passed) >= 2 and not passed[-1] and not passed[-2]


def max_ok_rate(rates: Sequence[float], passed: Sequence[bool]) -> float:
    """Highest ladder rate that passed, or 0.0 when none did."""
    if len(rates) != len(passed):
        raise ValueError("rates and passed differ in length")
    ok = [rate for rate, good in zip(rates, passed) if good]
    return max(ok) if ok else 0.0


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Peak resident set size, in MiB, of this process plus ``pids``.

    Reads ``VmHWM`` from ``/proc/<pid>/status``.  Pages a forked child
    still shares with its parent are counted in both.
    """
    total_kb = 0
    for pid in ("self", *pids):
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0

