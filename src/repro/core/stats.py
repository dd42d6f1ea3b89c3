"""Cost accounting for queries and updates.

The paper reports, per workload: average node accesses (I/O), average
number of appearance-probability computations plus the percentage of
qualifying objects validated without computation (CPU), and total elapsed
time.  These dataclasses collect exactly those series so the experiment
harness can print paper-style rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = ["QueryStats", "ShardStats", "WorkloadStats", "format_aligned"]


def format_aligned(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """One fixed-width text table (shared by stats summaries and CLIs)."""
    cells = [[_format_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


@dataclass
class QueryStats:
    """Per-query cost breakdown."""

    node_accesses: int = 0
    data_page_reads: int = 0
    prob_computations: int = 0
    validated_directly: int = 0
    pruned: int = 0
    result_count: int = 0
    wall_seconds: float = 0.0
    # Filled by the execution layer: physical (disk) reads vs buffer-pool
    # hits during this query.  Without a pool, physical == logical.
    physical_reads: int = 0
    cache_hits: int = 0
    # Appearance probabilities served from the batch memo instead of being
    # recomputed (only the batched executor produces nonzero values).
    memoized_probs: int = 0
    # Sample-cache accounting from the refinement engine: a hit reuses an
    # object's cached Monte-Carlo cloud, a miss draws (and density-weights)
    # a fresh one.  Short-circuited pairs touch the cache not at all.
    sample_cache_hits: int = 0
    sample_cache_misses: int = 0
    # Wall-clock phase split filled by the execution layer: filter walk,
    # data-page fetches, and Monte-Carlo refinement.  ``wall_seconds``
    # remains the end-to-end figure (>= the sum of the phases).  For a
    # sharded method each phase field is accumulated once per *query* —
    # a probe contributes only its own elapsed time, never the whole
    # query window again.
    filter_seconds: float = 0.0
    fetch_seconds: float = 0.0
    refine_seconds: float = 0.0
    # Sharded execution: per-shard filter passes run for this query and
    # shards the router pruned without probing (0/0 for monolithic runs).
    shard_probes: int = 0
    shards_pruned: int = 0

    @property
    def total_io(self) -> int:
        """Filter-step node accesses plus refinement-step data pages.

        These are *logical* accesses — the paper's metric, independent of
        any buffer pool in front of the simulated disk.
        """
        return self.node_accesses + self.data_page_reads

    @property
    def validated_fraction(self) -> float:
        """Fraction of qualifying objects reported without computing P_app.

        This is the percentage annotated on the CPU panels of Figs. 9-10.
        """
        if self.result_count == 0:
            return 0.0
        return self.validated_directly / self.result_count

    def __repr__(self) -> str:
        return (
            f"QueryStats(io={self.total_io}, nodes={self.node_accesses}, "
            f"pages={self.data_page_reads}, P_app={self.prob_computations}, "
            f"validated={self.validated_directly}, results={self.result_count}, "
            f"wall={1000 * self.wall_seconds:.2f}ms)"
        )

    def summary(self) -> str:
        """One human line: the paper's three cost views plus the phases."""
        parts = [
            f"{self.result_count} results",
            f"{self.total_io} logical I/O ({self.node_accesses} nodes + "
            f"{self.data_page_reads} data pages)",
            f"{self.prob_computations} P_app ({self.validated_directly} validated free)",
            f"{1000 * self.filter_seconds:.2f}/{1000 * self.fetch_seconds:.2f}/"
            f"{1000 * self.refine_seconds:.2f} ms filter/fetch/refine",
        ]
        if self.shard_probes:
            parts.append(
                f"{self.shard_probes} shard probes ({self.shards_pruned} pruned)"
            )
        return " | ".join(parts)


@dataclass
class ShardStats:
    """One shard's share of a batch: filter load, I/O and refine feed.

    Produced by the sharded :class:`~repro.exec.batch.BatchExecutor`
    path, one instance per shard per batch.  ``physical_reads`` and
    ``cache_hits`` are exact per shard under either batch backend,
    because every shard owns a private ``IOCounter`` that only its own
    filter probes touch (refinement I/O lands on the shared data file
    and is accounted at batch level).
    """

    shard: int = 0
    probes: int = 0
    routed_away: int = 0
    node_accesses: int = 0
    validated: int = 0
    candidates: int = 0
    pruned: int = 0
    physical_reads: int = 0
    cache_hits: int = 0
    filter_seconds: float = 0.0

    def __repr__(self) -> str:
        return (
            f"ShardStats(#{self.shard}: {self.probes} probes, "
            f"{self.node_accesses} nodes, {self.candidates} candidates, "
            f"{self.validated} validated, {self.pruned} pruned, "
            f"{self.physical_reads} reads/{self.cache_hits} hits)"
        )

    def row(self) -> list:
        """This shard as one table row (see :meth:`BatchStats.summary`)."""
        return [
            self.shard, self.probes, self.routed_away, self.node_accesses,
            self.validated, self.candidates, self.pruned,
            self.physical_reads, self.cache_hits,
            f"{1000 * self.filter_seconds:.2f}",
        ]


@dataclass
class WorkloadStats:
    """Aggregate over a workload (the paper uses 100 queries/workload)."""

    queries: list[QueryStats] = field(default_factory=list)

    def add(self, stats: QueryStats) -> None:
        self.queries.append(stats)

    @property
    def count(self) -> int:
        return len(self.queries)

    def _mean(self, values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def avg_node_accesses(self) -> float:
        return self._mean([q.node_accesses for q in self.queries])

    @property
    def avg_total_io(self) -> float:
        return self._mean([q.total_io for q in self.queries])

    @property
    def avg_physical_reads(self) -> float:
        return self._mean([q.physical_reads for q in self.queries])

    @property
    def total_physical_reads(self) -> int:
        return sum(q.physical_reads for q in self.queries)

    @property
    def total_cache_hits(self) -> int:
        return sum(q.cache_hits for q in self.queries)

    @property
    def avg_prob_computations(self) -> float:
        """Average P_app values actually computed per query.

        Under the batched executor, memoised lookups are *not* counted
        here (see :attr:`avg_memoized_probs`); per-query uncached
        execution computes every value, matching the paper's metric.
        """
        return self._mean([q.prob_computations for q in self.queries])

    @property
    def avg_memoized_probs(self) -> float:
        """Average P_app values served from the batch memo per query."""
        return self._mean([q.memoized_probs for q in self.queries])

    @property
    def total_sample_cache_hits(self) -> int:
        return sum(q.sample_cache_hits for q in self.queries)

    @property
    def total_sample_cache_misses(self) -> int:
        return sum(q.sample_cache_misses for q in self.queries)

    @property
    def sample_cache_hit_rate(self) -> float:
        """Fraction of Monte-Carlo estimates served from cached clouds."""
        total = self.total_sample_cache_hits + self.total_sample_cache_misses
        return self.total_sample_cache_hits / total if total else 0.0

    @property
    def avg_filter_seconds(self) -> float:
        return self._mean([q.filter_seconds for q in self.queries])

    @property
    def avg_fetch_seconds(self) -> float:
        return self._mean([q.fetch_seconds for q in self.queries])

    @property
    def avg_refine_seconds(self) -> float:
        return self._mean([q.refine_seconds for q in self.queries])

    @property
    def avg_shard_probes(self) -> float:
        """Average per-shard filter passes per query (0 unsharded)."""
        return self._mean([q.shard_probes for q in self.queries])

    @property
    def total_shards_pruned(self) -> int:
        """Shard probes the router avoided across the workload."""
        return sum(q.shards_pruned for q in self.queries)

    @property
    def avg_result_count(self) -> float:
        return self._mean([q.result_count for q in self.queries])

    @property
    def avg_wall_seconds(self) -> float:
        return self._mean([q.wall_seconds for q in self.queries])

    @property
    def validated_percentage(self) -> float:
        """Workload-level percentage of results validated without P_app."""
        results = sum(q.result_count for q in self.queries)
        if results == 0:
            return 0.0
        validated = sum(q.validated_directly for q in self.queries)
        return 100.0 * validated / results

    def summary(self) -> dict[str, float]:
        """All headline numbers in one dict (for tables and benchmarks)."""
        return {
            "queries": float(self.count),
            "avg_node_accesses": self.avg_node_accesses,
            "avg_total_io": self.avg_total_io,
            "avg_physical_reads": self.avg_physical_reads,
            "avg_prob_computations": self.avg_prob_computations,
            "avg_result_count": self.avg_result_count,
            "avg_wall_seconds": self.avg_wall_seconds,
            "validated_percentage": self.validated_percentage,
            "sample_cache_hit_rate": self.sample_cache_hit_rate,
            "avg_filter_seconds": self.avg_filter_seconds,
            "avg_fetch_seconds": self.avg_fetch_seconds,
            "avg_refine_seconds": self.avg_refine_seconds,
        }
