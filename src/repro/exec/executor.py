"""The shared single-query driver and update-cost measurement helpers.

Before this layer existed, each access method duplicated the same ~25-line
query loop: start a timer, allocate stats, run its filter, hand survivors
to the refinement step, finalise counters.  :func:`execute_query` is that
loop written once against the :class:`~repro.exec.access.AccessMethod`
protocol, so structures only implement their filter phase.

Refinement runs through the :class:`~repro.exec.refine.RefinementEngine`:
by default every executor bound to a method shares that method's engine
(one per estimator), so a workload draws each object's Monte-Carlo cloud
once and every later query — from any executor — reuses it
(bit-identical values: the cache replays the estimator's seeded stream).

The executor also attributes I/O more finely than the original loops: it
snapshots the method's :class:`~repro.storage.pager.IOCounter` around the
query, so each :class:`~repro.core.stats.QueryStats` reports *physical*
page reads and buffer-pool hits alongside the logical counts.  Without a
buffer pool the physical and logical numbers coincide (the paper's
accounting).  Phase wall-clock (filter / fetch / refine) lands in the
same stats object.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.core.stats import QueryStats, WorkloadStats
from repro.exec.access import AccessMethod
from repro.exec.refine import RefinementEngine, refine_with_engine

__all__ = [
    "QueryExecutor",
    "execute_query",
    "execute_workload",
    "measure_insert_build",
    "measure_delete_drain",
]


def execute_query(
    method: AccessMethod,
    query: ProbRangeQuery,
    *,
    engine: RefinementEngine | None = None,
) -> QueryAnswer:
    """Answer one prob-range query: shared filter → engine refinement.

    With ``engine=None`` the method's shared engine serves the call
    (one sample cache per estimator, reused by every executor); pass an
    explicit engine to isolate reuse or accounting.
    """
    start = time.perf_counter()
    stats = QueryStats()
    answer = QueryAnswer(stats=stats)
    io = method.io
    reads_before = io.reads
    hits_before = io.cache_hits
    if engine is None:
        engine = RefinementEngine.for_method(method)

    filter_start = time.perf_counter()
    filtered = method.filter_candidates(query)
    stats.filter_seconds = time.perf_counter() - filter_start
    stats.node_accesses = filtered.node_accesses
    stats.validated_directly = len(filtered.validated)
    stats.pruned = filtered.pruned
    stats.shard_probes = filtered.shard_probes
    stats.shards_pruned = filtered.shards_pruned
    answer.object_ids.extend(filtered.validated)

    refine_with_engine(
        engine,
        filtered.candidates,
        query,
        method.data_file,
        stats,
        answer.object_ids,
    )

    stats.physical_reads = io.reads - reads_before
    stats.cache_hits = io.cache_hits - hits_before
    stats.result_count = len(answer.object_ids)
    stats.wall_seconds = time.perf_counter() - start
    return answer


class QueryExecutor:
    """A bound executor: one access method, many queries.

    Holds the method plus one :class:`RefinementEngine`, so consecutive
    queries share cached sample clouds — the workload-level win the
    engine exists for.  Harness code holds "the thing that answers
    queries" without caring which structure (or engine) is underneath.
    """

    def __init__(self, method: AccessMethod, *, engine: RefinementEngine | None = None):
        self.method = method
        self.engine = engine if engine is not None else RefinementEngine.for_method(method)

    def execute(self, query: ProbRangeQuery) -> QueryAnswer:
        """Answer one query."""
        return execute_query(self.method, query, engine=self.engine)

    def run(self, queries: Iterable[ProbRangeQuery]) -> WorkloadStats:
        """Answer every query, aggregating workload statistics."""
        stats = WorkloadStats()
        for query in queries:
            stats.add(self.execute(query).stats)
        return stats


def execute_workload(
    method: AccessMethod,
    queries: Iterable[ProbRangeQuery],
    *,
    engine: RefinementEngine | None = None,
) -> WorkloadStats:
    """Run a workload through the shared executor (convenience form)."""
    return QueryExecutor(method, engine=engine).run(queries)


# ----------------------------------------------------------------------
# Update-cost measurement (the Fig. 11 harness), shared here so any
# updatable structure measures builds/drains identically.
# ----------------------------------------------------------------------

def measure_insert_build(tree, objects) -> list:
    """Insert every object, returning the per-insert ``UpdateCost`` list."""
    return [tree.insert(obj) for obj in objects]


def measure_delete_drain(tree, oids: Sequence[int], rng: np.random.Generator) -> list:
    """Delete all ``oids`` in random order, returning per-delete costs.

    Raises if any oid is missing — a drain that silently skips objects
    would under-report amortised deletion cost.
    """
    costs = []
    for idx in rng.permutation(len(oids)):
        cost = tree.delete(oids[idx])
        if cost is None:
            raise KeyError(f"object {oids[idx]} not present in the tree")
        costs.append(cost)
    return costs
