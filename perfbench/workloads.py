"""The reference inputs: fixed object sets plus seeded query and update streams.

The object sets are the fixed reference data of the benchmark (the LB and
CA stand-ins of the paper at a fixed dataset seed), so every run indexes the
same objects, and the served workload's hot rectangles are fixed the same
way.  Everything a run *does* to them — fresh query centres, the order of
sizes and thresholds, which hot rectangle a read picks, which objects
re-report and where they move, and which answers the correctness gate
re-checks — comes from the ``--seed`` the benchmark is given.
"""

from __future__ import annotations

import numpy as np

from repro import ExecConfig, RangeSpec, Rect
from repro.datasets.synthetic import (
    DOMAIN_HIGH,
    DOMAIN_LOW,
    california_like,
    long_beach_like,
    to_uncertain_objects,
)

# Object count of every workload.  Database.create inserts one object at a
# time and takes 2 to 3.5 s for 600 objects on a 2-vCPU x86 VM; each run
# sets up three times (setup_s is their median), which bounds the size.
N_OBJECTS = 600
RADIUS = 250.0
SIGMA = 125.0
LB_DATA_SEED = 11
CA_DATA_SEED = 23
HOT_DISTRICT_SEED = 5

# The paper's query parameters: side length qs and threshold pq.
QUERY_SIDES = (500.0, 1000.0, 1500.0)
THRESHOLDS = (0.3, 0.6, 0.9)
# Jitter (standard deviation) of a query centre around its data point.
CENTRE_JITTER = 100.0

# congau-exact: Monte-Carlo samples per object cloud.  A 2-D cloud costs
# 24 bytes per sample (two float64 coordinates plus a float64 weight), so
# 600 objects need 600 * 60_000 * 24 B = 864 MB of clouds against the
# SampleCache budget of 512 MiB (ratio ~1.6): the working set does not fit
# and the cache evicts.
CONGAU_MC_SAMPLES = 60_000
CLOUD_BYTES_PER_SAMPLE = 24

# Re-reports move an object by a normal step of this standard deviation.
MOVE_STEP = 60.0


def lb_points() -> np.ndarray:
    return long_beach_like(N_OBJECTS, seed=LB_DATA_SEED)


def ca_points() -> np.ndarray:
    return california_like(N_OBJECTS, seed=CA_DATA_SEED)


def lb_objects(points: np.ndarray) -> list:
    return to_uncertain_objects(points, radius=RADIUS, pdf="uniform")


def ca_objects(points: np.ndarray) -> list:
    return to_uncertain_objects(points, radius=RADIUS, pdf="congau", sigma=SIGMA)


def lb_config() -> ExecConfig:
    """Default engine configuration at one worker, no WAL (no fsync)."""
    return ExecConfig(parallelism=1, wal=False)


def served_config() -> ExecConfig:
    """``lb_config`` with no batch window: the dispatcher batches whatever
    is queued when it is free, without holding a request for companions.
    With the default 2 ms window the two closed-loop clients either stay in
    step (most batches cross-client) or drift apart, and throughput jumped
    between about 90 and 130 operations/s from run to run (README,
    Steadiness)."""
    return lb_config().with_options(batch_window_ms=0.0)


def congau_config() -> ExecConfig:
    return ExecConfig.paper_exact().with_options(mc_samples=CONGAU_MC_SAMPLES)


def moved_object(oid: int, point: np.ndarray, pdf: str):
    """The object ``oid`` re-reported at ``point`` (same pdf family)."""
    pts = np.asarray(point, dtype=np.float64).reshape(1, -1)
    sigma = SIGMA if pdf == "congau" else None
    return to_uncertain_objects(pts, radius=RADIUS, pdf=pdf, sigma=sigma, first_oid=oid)[0]


class SpecStream:
    """Fresh range specs: centres drawn from the data and jittered.

    Sizes and thresholds are stratified — every block of nine specs holds
    each (qs, pq) pair once, in a seeded order — so the query mix, and with
    it the cost per query, is the same in every run; only the centres vary.
    """

    def __init__(self, points: np.ndarray, rng: np.random.Generator):
        self._points = points
        self._rng = rng
        self._block: list[tuple[float, float]] = []

    def _pair(self) -> tuple[float, float]:
        if not self._block:
            pairs = [(qs, pq) for qs in QUERY_SIDES for pq in THRESHOLDS]
            order = self._rng.permutation(len(pairs))
            self._block = [pairs[i] for i in order]
        return self._block.pop()

    def next(self) -> RangeSpec:
        qs, pq = self._pair()
        centre = self._points[self._rng.integers(len(self._points))]
        centre = centre + self._rng.normal(0.0, CENTRE_JITTER, size=centre.shape)
        return RangeSpec(Rect.from_center(centre, qs / 2.0), pq)

    def take(self, k: int) -> list[RangeSpec]:
        return [self.next() for _ in range(k)]


def hot_specs(points: np.ndarray, count: int = 16) -> list[RangeSpec]:
    """The served workload's hot district rectangles (repeated by every client).

    Like the object set they are fixed reference data, not drawn from the
    run's seed: which 16 places are hot changes the cost of half of all
    reads, and a per-seed choice made that cost swing from run to run.
    """
    return SpecStream(points, np.random.default_rng(HOT_DISTRICT_SEED)).take(count)


def move(point: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    step = rng.normal(0.0, MOVE_STEP, size=point.shape)
    return np.clip(point + step, DOMAIN_LOW, DOMAIN_HIGH)


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) so streams never shift."""
    return np.random.default_rng((seed, *stream))
