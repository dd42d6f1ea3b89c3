"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time

import numpy as np

# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3


# The speed probe: a fixed pure-Python loop, timed in CPU time.  The
# reference machine (a 2-vCPU KVM guest on a shared host) changes speed by
# up to 1.5x within a second and between minutes, and the engine's run time
# follows the probe's (see README, Steadiness).  Every timing the benchmark reports is
# therefore scaled to the reference speed: a span measured while the probe
# took ``p`` ms counts ``REFERENCE_PROBE_MS / p`` times its wall time.
PROBE_LOOPS = 5_000
# The probe's median CPU time on the reference machine; it only sets the
# scale, so a faster machine reports faster timings as before.
REFERENCE_PROBE_MS = 0.45
# A span's probe time is the median of this many probes either side of it.
PROBE_HALF_WINDOW = 4
# Probes taken just before and just after each set-up.
SETUP_PROBES = 5
# Served throughput: the span is cut into windows of this many seconds,
# each scaled by the median probe taken in it.
RATE_WINDOW_S = 1.0


def probe_ms(loops: int = PROBE_LOOPS) -> float:
    """CPU time of a fixed pure-Python loop: how fast the machine is now.

    CPU time, not wall time, so that a thread preempted by the benchmark's
    own other threads or processes does not read as a slow machine."""
    start = time.thread_time()
    total = 0
    for i in range(loops):
        total += i * i
    return 1000.0 * (time.thread_time() - start)


class SpeedProbe:
    """Probes interleaved with the measured calls of one thread."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: list[float] = []

    def tick(self) -> int:
        """Take a probe now; returns its index."""
        self.at.append(time.perf_counter())
        self.ms.append(probe_ms())
        return len(self.ms) - 1

    def scale(self, index: int) -> float:
        """Reference-speed factor for a call made right after probe ``index``."""
        lo = max(0, index - PROBE_HALF_WINDOW)
        return REFERENCE_PROBE_MS / median(self.ms[lo:index + PROBE_HALF_WINDOW + 1])

    def scaled(self, seconds: list[float], ticks: list[int]) -> list[float]:
        return [s * self.scale(i) for s, i in zip(seconds, ticks)]


def scaled_span(probes: list[SpeedProbe], start: float, end: float) -> float:
    """Seconds from ``start`` to ``end`` at the reference speed, window by
    window, from the probes several threads took meanwhile."""
    samples = sorted((at, ms) for p in probes for at, ms in zip(p.at, p.ms)
                     if start <= at < end)
    overall = median([ms for _, ms in samples])
    total = 0.0
    lo = start
    while lo < end:
        hi = min(lo + RATE_WINDOW_S, end)
        window = [ms for at, ms in samples if lo <= at < hi]
        total += (hi - lo) * REFERENCE_PROBE_MS / (median(window) if window else overall)
        lo = hi
    return total


def timed_build(build, times: list[float], raw_times: list[float]):
    """``build()``; its wall time goes to ``raw_times`` and, scaled to the
    reference speed by probes taken just before and after, to ``times``."""
    probes = [probe_ms() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    result = build()
    elapsed = time.perf_counter() - start
    probes += [probe_ms() for _ in range(SETUP_PROBES)]
    raw_times.append(elapsed)
    times.append(elapsed * REFERENCE_PROBE_MS / median(probes))
    return result


def median(values) -> float:
    return float(statistics.median(values))


def percentile_ms(seconds: list[float], q: float) -> float:
    return 1000.0 * float(np.percentile(seconds, q))


def iqm_ms(seconds: list[float]) -> float:
    """Interquartile mean: the mean of the samples between the quartiles."""
    values = np.asarray(seconds)
    lo, hi = np.percentile(values, [25, 75])
    return 1000.0 * float(values[(values >= lo) & (values <= hi)].mean())


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters_digest(rows: list[tuple]) -> str:
    """A short digest of per-query paper counters, equal iff they repeat."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def paper_counters(stats) -> tuple:
    return (stats.node_accesses, stats.data_page_reads, stats.prob_computations,
            stats.validated_directly, stats.result_count)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
