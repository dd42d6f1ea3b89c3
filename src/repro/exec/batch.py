"""Batched execution: amortise I/O and Monte-Carlo work across a workload.

Running a workload query-by-query repeats two kinds of work whenever the
queries overlap:

* the same **data page** is fetched once per query that has a candidate on
  it (the refinement step of Section 5.2 dedupes within one query only);
* the same ``(object, query rectangle)`` **appearance probability** is
  recomputed whenever two queries share a rectangle at different
  thresholds — the exact access pattern of the Fig. 10 experiment, where
  one set of rectangles is swept across five thresholds.

The :class:`BatchExecutor` closes both gaps.  It runs every query's filter
phase first, fetches each candidate data page once for the entire batch
(skipping pages whose every candidate is already memoised), then refines
per query through the :class:`~repro.exec.refine.RefinementEngine`
(shared sample clouds, stacked mask evaluation) with a memo keyed on
``(disk address, query_rect)`` — addresses are append-only, so a reused
object id can never be served a stale probability.  The Monte-Carlo
estimator derives its sample stream from ``(seed, object_id)``, so
memoised and engine-computed values are bit-identical to freshly
recomputed ones — batching changes cost, never answers.

The executor runs strictly serially, so every per-query counter is
exact, which is what the accounting tests pin.  Multi-core execution is the process backend's job
(:class:`~repro.exec.mpexec.ProcessBatchExecutor`, a subclass that
forks per-shard workers and merges counters equal to this path's).

Per-query :class:`~repro.core.stats.QueryStats` keep their *logical*
meaning (a query that needed three data pages reports three data-page
reads even if the batch fetched them earlier); the batch-level savings
show up in the physical counters and in :class:`BatchStats`.

Against a :class:`~repro.exec.shard.ShardedAccessMethod` the executor is
shard-aware: it probes every query's routed shards itself, and
:class:`BatchStats` then carries one :class:`~repro.core.stats.ShardStats`
per shard (probes, filter node accesses, exact per-shard physical
reads / cache hits — each shard owns its counter — and the candidates it
fed refinement).  Per-phase wall-clock fields stay *per query*: each
shard probe contributes its own elapsed time exactly once to its query's
``filter_seconds``, never the whole query window once per probe.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.core.stats import QueryStats, ShardStats, WorkloadStats
from repro.exec.access import AccessMethod, FilterResult
from repro.exec.refine import RefinementEngine, refine_with_engine
from repro.geometry.rect import Rect
from repro.storage.bufferpool import pool_counters, pools_of
from repro.storage.pager import DiskAddress

__all__ = ["BatchExecutor", "BatchResult", "BatchStats"]


@dataclass
class BatchStats:
    """Batch-level cost summary (what batching saved)."""

    queries: int = 0
    parallelism: int = 1
    # Which backend executed the batch: "serial" or "process".
    executor: str = "serial"
    # Sharded execution (zero / empty for monolithic methods): shard
    # count, per-shard filter probes actually executed, probes the
    # router pruned, and the per-shard cost breakdown.  Per-phase
    # wall-clock fields below stay *per query*: a query probed against
    # three shards contributes each probe's own elapsed time once —
    # never the whole query window once per probe.
    shards: int = 0
    shard_probes: int = 0
    shards_pruned: int = 0
    shard_stats: list[ShardStats] = field(default_factory=list)
    unique_data_pages: int = 0
    data_page_fetches: int = 0
    logical_data_page_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    cache_hits: int = 0
    # Buffer-pool accounting across every pool the method touches (node
    # stores plus data files, all shards).  Under the process backend the
    # workers' forked pool copies do the filtering, so the parent-side
    # deltas reported here stay near zero.
    pool_hits: int = 0
    pool_misses: int = 0
    prob_computations: int = 0
    memo_hits: int = 0
    sample_cache_hits: int = 0
    sample_cache_misses: int = 0
    filter_seconds: float = 0.0
    fetch_seconds: float = 0.0
    refine_seconds: float = 0.0
    wall_seconds: float = 0.0
    # Resilience accounting (all zero/empty on a fault-free run, so the
    # seed's repr/summary and every equality-based test are untouched).
    # ``degraded_to`` names the ladder level that finally answered when
    # the batch fell below its configured backend ("" = no degradation);
    # ``fault_events`` lists the absorbed faults in order.
    degraded_to: str = ""
    fault_events: list[str] = field(default_factory=list)
    fault_retries: int = 0  # supervised fault-domain retry rounds
    worker_respawns: int = 0  # workers killed and re-forked mid-batch
    corrupt_pages: int = 0  # crc mismatches detected during the batch
    pages_scrubbed: int = 0  # of those, quarantined and rebuilt
    io_retries: int = 0  # transient read failures absorbed by retry

    @property
    def degraded(self) -> bool:
        """Whether any fault was absorbed while producing this batch."""
        return bool(
            self.degraded_to
            or self.fault_events
            or self.fault_retries
            or self.worker_respawns
            or self.pages_scrubbed
            or self.io_retries
        )

    @property
    def data_pages_saved(self) -> int:
        """Page fetches avoided by batch dedup and the warm memo.

        With ``dedupe_pages=False`` and a cold memo every query fetches
        its own pages, so ``data_page_fetches ==
        logical_data_page_reads``; dedup collapses repeats to one fetch
        and a warm memo can skip a page's fetch entirely.
        """
        return self.logical_data_page_reads - self.data_page_fetches

    @property
    def memo_hit_rate(self) -> float:
        total = self.prob_computations + self.memo_hits
        return self.memo_hits / total if total else 0.0

    @property
    def sample_cache_hit_rate(self) -> float:
        total = self.sample_cache_hits + self.sample_cache_misses
        return self.sample_cache_hits / total if total else 0.0

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of buffer-pool accesses served from memory this batch."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def __repr__(self) -> str:
        text = (
            f"BatchStats({self.queries} queries, parallelism={self.parallelism}, "
            f"{self.data_page_fetches} fetches for {self.logical_data_page_reads} "
            f"logical page reads, {self.prob_computations} P_app + "
            f"{self.memo_hits} memo hits, "
            f"sample-cache {100 * self.sample_cache_hit_rate:.0f}%, "
            f"wall={1000 * self.wall_seconds:.1f}ms"
        )
        if self.shards:
            text += f", {self.shards} shards/{self.shard_probes} probes"
        return text + ")"

    def summary(self) -> str:
        """The whole batch as one aligned table (plus per-shard rows)."""
        from repro.core.stats import format_aligned

        rows = [
            ["queries", self.queries],
            ["parallelism", self.parallelism],
            ["unique data pages", self.unique_data_pages],
            ["data page fetches", self.data_page_fetches],
            ["logical page reads", self.logical_data_page_reads],
            ["pages saved", self.data_pages_saved],
            ["physical reads", self.physical_reads],
            ["cache hits", self.cache_hits],
            ["pool hit rate", f"{100 * self.pool_hit_rate:.1f}%"],
            ["P_app computed", self.prob_computations],
            ["P_app memo hits", self.memo_hits],
            ["sample-cache hit rate", f"{100 * self.sample_cache_hit_rate:.1f}%"],
            ["filter / fetch / refine (ms)",
             f"{1000 * self.filter_seconds:.1f} / {1000 * self.fetch_seconds:.1f}"
             f" / {1000 * self.refine_seconds:.1f}"],
            ["wall (ms)", f"{1000 * self.wall_seconds:.1f}"],
        ]
        if self.degraded:
            rows.append([
                "resilience",
                f"degraded_to={self.degraded_to or 'none'} "
                f"retries={self.fault_retries} respawns={self.worker_respawns} "
                f"scrubbed={self.pages_scrubbed}/{self.corrupt_pages} "
                f"io_retries={self.io_retries}",
            ])
        if self.shards:
            rows.insert(2, ["shards (probes / pruned)",
                            f"{self.shards} ({self.shard_probes} / {self.shards_pruned})"])
        table = format_aligned(["metric", "value"], rows)
        if self.shard_stats:
            table += "\n" + format_aligned(
                ["shard", "probes", "routed away", "nodes", "validated",
                 "candidates", "pruned", "reads", "hits", "filter ms"],
                [s.row() for s in self.shard_stats],
            )
        return table


@dataclass
class BatchResult:
    """Answers (in submission order) plus per-query and batch statistics."""

    answers: list[QueryAnswer] = field(default_factory=list)
    workload: WorkloadStats = field(default_factory=WorkloadStats)
    batch: BatchStats = field(default_factory=BatchStats)


class BatchExecutor:
    """Run workloads against one access method with cross-query reuse.

    Args:
        method: the structure to execute against.
        memoize: share appearance-probability results across queries keyed
            on ``(disk_address, query_rect)``.  The memo persists across
            :meth:`run` calls until :meth:`clear_memo`.
        dedupe_pages: fetch each candidate data page once per batch rather
            than once per query.
        engine: refinement engine to use; defaults to one bound to the
            method's estimator.  The engine (and its sample cache)
            persists across :meth:`run` calls.
    """

    def __init__(
        self,
        method: AccessMethod,
        *,
        memoize: bool = True,
        dedupe_pages: bool = True,
        engine: RefinementEngine | None = None,
    ):
        self.method = method
        self.memoize = memoize
        self.dedupe_pages = dedupe_pages
        self.engine = engine if engine is not None else RefinementEngine.for_method(method)
        self._prob_memo: dict[tuple[DiskAddress, Rect], float] = {}
        self._pools = pools_of(method)

    def clear_memo(self) -> None:
        """Drop memoised appearance probabilities."""
        self._prob_memo.clear()

    @property
    def memo_size(self) -> int:
        return len(self._prob_memo)

    # ------------------------------------------------------------------
    # sharded-method support
    # ------------------------------------------------------------------
    @property
    def _sharded(self):
        """The method, when it is a routed shard set (else ``None``).

        Duck-typed so this module needs no import of
        :mod:`repro.exec.shard`: anything exposing ``shards`` plus the
        ``route``/``merge_filter``/``filter_with`` trio gets per-shard
        probing and accounting.
        """
        method = self.method
        if (
            getattr(method, "shards", None)
            and callable(getattr(method, "route", None))
            and callable(getattr(method, "merge_filter", None))
            and callable(getattr(method, "filter_with", None))
        ):
            return method
        return None

    def _new_shard_stats(self) -> list[ShardStats] | None:
        sharded = self._sharded
        if sharded is None:
            return None
        return [ShardStats(shard=i) for i in range(len(sharded.shards))]

    def _shard_io_baseline(self) -> list[tuple[int, int]] | None:
        sharded = self._sharded
        if sharded is None:
            return None
        return [(s.io.reads, s.io.cache_hits) for s in sharded.shards]

    def _probe_serial(
        self,
        query: ProbRangeQuery,
        shard_stats: list[ShardStats],
    ) -> FilterResult:
        """Route one query and probe its shards inline, tallying per shard.

        Delegates to the facade's single serial filter implementation
        (:meth:`ShardedAccessMethod.filter_with`), hooking the per-shard
        tallies into its probe callback.
        """
        return self.method.filter_with(
            query,
            on_probe=lambda shard_id, filtered, elapsed: self._tally_probe(
                shard_stats[shard_id], filtered, elapsed
            ),
        )

    @staticmethod
    def _tally_probe(
        stats: ShardStats, filtered: FilterResult, elapsed: float
    ) -> None:
        stats.probes += 1
        stats.node_accesses += filtered.node_accesses
        stats.validated += len(filtered.validated)
        stats.candidates += len(filtered.candidates)
        stats.pruned += filtered.pruned
        stats.filter_seconds += elapsed

    def _settle_shard_stats(
        self,
        result: BatchResult,
        shard_stats: list[ShardStats] | None,
        baseline: list[tuple[int, int]] | None,
    ) -> None:
        """Attach per-shard I/O deltas and totals to the batch summary.

        Exact: only a shard's own filter probes touch its private counter (refinement reads land on the shared
        data file), so a batch-window delta is that shard's filter I/O.
        """
        if shard_stats is None or baseline is None:
            return
        sharded = self._sharded
        for stats, (reads0, hits0), shard in zip(
            shard_stats, baseline, sharded.shards
        ):
            stats.physical_reads = shard.io.reads - reads0
            stats.cache_hits = shard.io.cache_hits - hits0
            stats.routed_away = result.batch.queries - stats.probes
        result.batch.shards = len(shard_stats)
        result.batch.shard_stats = shard_stats

    def run(self, queries: Sequence[ProbRangeQuery]) -> BatchResult:
        """Execute the whole workload, amortising page fetches and P_app."""
        start = time.perf_counter()
        method = self.method
        io = method.io
        reads0, writes0, hits0 = io.reads, io.writes, io.cache_hits
        cache_hits0, cache_misses0 = self.engine.cache.counters()
        pool0 = pool_counters(self._pools)
        memo = self._prob_memo if self.memoize else None

        result = BatchResult()
        result.batch.queries = len(queries)
        shard_stats = self._new_shard_stats()
        shard_baseline = self._shard_io_baseline()

        # Phase 1: every query's filter pass (per-query node accounting;
        # the filter's physical/cache split is attributed per query).
        # Sharded methods route here and probe shard by shard, so the
        # per-shard tallies are exact; the query's own filter_seconds is
        # the single whole-filter window (once per query, not per probe).
        per_query: list[tuple[ProbRangeQuery, QueryStats, QueryAnswer, list]] = []
        needed_pages: set[int] = set()
        for query in queries:
            q_start = time.perf_counter()
            q_reads, q_hits = io.reads, io.cache_hits
            stats = QueryStats()
            answer = QueryAnswer(stats=stats)
            if shard_stats is None:
                filtered = method.filter_candidates(query)
            else:
                filtered = self._probe_serial(query, shard_stats)
            stats.node_accesses = filtered.node_accesses
            stats.validated_directly = len(filtered.validated)
            stats.pruned = filtered.pruned
            stats.shard_probes = filtered.shard_probes
            stats.shards_pruned = filtered.shards_pruned
            answer.object_ids.extend(filtered.validated)
            stats.physical_reads = io.reads - q_reads
            stats.cache_hits = io.cache_hits - q_hits
            stats.filter_seconds = time.perf_counter() - q_start
            stats.wall_seconds = stats.filter_seconds
            needed_pages.update(addr.page_id for _, addr in filtered.candidates)
            per_query.append((query, stats, answer, filtered.candidates))

        # Phase 2: fetch the union of candidate pages once for the batch —
        # except pages whose every (candidate, query) pair is already
        # memoised, which need no payload at all.  These shared fetches
        # belong to no single query, so their I/O is in BatchStats only.
        fetch_start = time.perf_counter()
        page_payloads: dict[int, list] = {}
        if self.dedupe_pages:
            fetch_pages: set[int] = set()
            for query, _, _, candidates in per_query:
                rect = query.rect
                fetch_pages.update(
                    addr.page_id
                    for _, addr in candidates
                    if memo is None or (addr, rect) not in memo
                )
            for page_id in sorted(fetch_pages):
                page_payloads[page_id] = method.data_file.read_page(page_id)
            result.batch.data_page_fetches = len(fetch_pages)
        result.batch.unique_data_pages = len(needed_pages)
        result.batch.fetch_seconds = time.perf_counter() - fetch_start

        # Phase 3: refine per query from the shared pages + probability memo.
        for query, stats, answer, candidates in per_query:
            q_start = time.perf_counter()
            q_reads, q_hits = io.reads, io.cache_hits
            fetched = refine_with_engine(
                self.engine,
                candidates,
                query,
                method.data_file,
                stats,
                answer.object_ids,
                pages=page_payloads if self.dedupe_pages else None,
                memo=memo,
            )
            if not self.dedupe_pages:
                result.batch.data_page_fetches += fetched
            stats.physical_reads += io.reads - q_reads
            stats.cache_hits += io.cache_hits - q_hits
            stats.result_count = len(answer.object_ids)
            stats.wall_seconds += time.perf_counter() - q_start
            result.answers.append(answer)
            result.workload.add(stats)

        if not self.dedupe_pages:
            result.batch.fetch_seconds += sum(
                s.fetch_seconds for _, s, _, _ in per_query
            )
        self._settle_shard_stats(result, shard_stats, shard_baseline)
        self._finalise(
            result, per_query, io, reads0, writes0, hits0,
            (cache_hits0, cache_misses0), pool0, start,
        )
        return result

    def _finalise(
        self,
        result: BatchResult,
        per_query: list,
        io,
        reads0: int,
        writes0: int,
        hits0: int,
        cache_baseline: tuple[int, int],
        pool_baseline: tuple[int, int],
        start: float,
    ) -> None:
        result.batch.logical_data_page_reads = sum(
            s.data_page_reads for _, s, _, _ in per_query
        )
        result.batch.shard_probes = sum(
            s.shard_probes for _, s, _, _ in per_query
        )
        result.batch.shards_pruned = sum(
            s.shards_pruned for _, s, _, _ in per_query
        )
        result.batch.prob_computations = sum(
            s.prob_computations for _, s, _, _ in per_query
        )
        result.batch.memo_hits = sum(s.memoized_probs for _, s, _, _ in per_query)
        result.batch.filter_seconds = sum(
            s.filter_seconds for _, s, _, _ in per_query
        )
        result.batch.refine_seconds = sum(
            s.refine_seconds for _, s, _, _ in per_query
        )
        result.batch.physical_reads = io.reads - reads0
        result.batch.physical_writes = io.writes - writes0
        result.batch.cache_hits = io.cache_hits - hits0
        cache_hits1, cache_misses1 = self.engine.cache.counters()
        result.batch.sample_cache_hits = cache_hits1 - cache_baseline[0]
        result.batch.sample_cache_misses = cache_misses1 - cache_baseline[1]
        pool1 = pool_counters(self._pools)
        result.batch.pool_hits = pool1[0] - pool_baseline[0]
        result.batch.pool_misses = pool1[1] - pool_baseline[1]
        result.batch.wall_seconds = time.perf_counter() - start
