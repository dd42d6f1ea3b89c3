"""Exact-equivalence suite for sharded query execution (repro.exec.shard).

The shard layer's contract is *observable equivalence*: for every pdf
family and both partitioners, a sharded structure returns bit-identical
answers (object sets **and** P_app values, asserted with ``==``) to the
monolithic structure over the same objects — across threshold queries,
nearest-neighbour queries and both executors.
``shards=1`` degenerates to the plain structure down to its node-access
counts; with pruning disabled the refinement phase performs identical
physical page fetches; empty and degenerate shards are legal.  The
process backend's sharded batches are pinned against the serial ones in
``tests/test_multicore.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nn import expected_nearest_neighbors, probabilistic_nearest_neighbors
from repro.core.query import ProbRangeQuery
from repro.core.scan import SequentialScan
from repro.core.utree import UTree
from repro.exec import (
    AccessMethod,
    BatchExecutor,
    Planner,
    ShardedAccessMethod,
    execute_query,
    hash_partition,
    str_tile_partition,
)
from repro.geometry.rect import Rect
from repro.storage.bufferpool import BufferPool
from repro.storage.pager import CompositeIOCounter, IOCounter
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import (
    ConstrainedGaussianDensity,
    MixtureDensity,
    RadialExponentialDensity,
    UniformDensity,
    zipf_histogram,
)
from repro.uncertainty.regions import BallRegion, BoxRegion

N_SAMPLES = 1500
FAMILIES = ("uniform", "congau", "histogram", "radial", "mixture")
PARTITIONERS = ("str", "hash")
# BatchExecutor is the serial backend: width 1.
PARALLELISMS = (1,)


def _estimator() -> AppearanceEstimator:
    return AppearanceEstimator(n_samples=N_SAMPLES, seed=1)


def _family_objects(family: str, n: int = 30, seed: int = 17) -> list[UncertainObject]:
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        centre = rng.uniform(2500, 7500, 2)
        radius = float(rng.uniform(150, 400))
        if family == "uniform":
            pdf = UniformDensity(BallRegion(centre, radius), marginal_seed=i)
        elif family == "congau":
            pdf = ConstrainedGaussianDensity(
                BallRegion(centre, radius), sigma=radius / 2, marginal_seed=i
            )
        elif family == "histogram":
            pdf = zipf_histogram(
                BoxRegion(Rect(centre - radius, centre + radius)),
                4, skew=1.2, seed=i, marginal_seed=i,
            )
        elif family == "radial":
            pdf = RadialExponentialDensity(
                BallRegion(centre, radius), scale=radius / 3, marginal_seed=i
            )
        elif family == "mixture":
            region = BallRegion(centre, radius)
            pdf = MixtureDensity(
                [
                    UniformDensity(region, marginal_seed=i),
                    ConstrainedGaussianDensity(region, sigma=radius / 3, marginal_seed=i),
                ],
                weights=[0.5, 1.0],
                marginal_seed=i,
            )
        else:  # pragma: no cover - parametrisation guard
            raise ValueError(family)
        objects.append(UncertainObject(i, pdf))
    return objects


def _workload(n: int = 8, seed: int = 29) -> list[ProbRangeQuery]:
    """Threshold queries at varied sizes, positions and thresholds."""
    rng = np.random.default_rng(seed)
    thresholds = (0.25, 0.5, 0.8)
    return [
        ProbRangeQuery(
            Rect.from_center(rng.uniform(2500, 7500, 2), float(rng.uniform(250, 900))),
            thresholds[i % len(thresholds)],
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def registry():
    """Per-module cache of built structures (builds dominate runtime)."""
    return {}


def _mono(registry, family: str) -> UTree:
    key = ("mono", family)
    if key not in registry:
        tree = UTree(2, estimator=_estimator())
        for obj in _family_objects(family):
            tree.insert(obj)
        registry[key] = tree
    return registry[key]


def _sharded(
    registry, family: str, partitioner: str, shards: int = 3
) -> ShardedAccessMethod:
    key = ("sharded", family, partitioner, shards)
    if key not in registry:
        registry[key] = ShardedAccessMethod.build(
            _family_objects(family),
            shards=shards,
            partitioner=partitioner,
            estimator=_estimator(),
        )
    sharded = registry[key]
    sharded.prune = True  # tests toggle this; reset to the default
    return sharded


class TestExactEquivalence:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_threshold_queries_bit_identical(self, registry, family, partitioner):
        """Same objects and same P_app values, for every pdf family."""
        mono = _mono(registry, family)
        sharded = _sharded(registry, family, partitioner)
        workload = _workload()
        mono_exec = BatchExecutor(mono)
        shard_exec = BatchExecutor(sharded)
        mono_res = mono_exec.run(workload)
        shard_res = shard_exec.run(workload)
        for mono_ans, shard_ans in zip(mono_res.answers, shard_res.answers):
            assert mono_ans.sorted_ids() == shard_ans.sorted_ids()
        # The executors memoise every computed P_app keyed on
        # (disk address, rect); shared-global-order data files make the
        # addresses identical, so the memos must be *equal* — the same
        # (object, query) pairs with bit-identical probabilities.
        assert shard_exec._prob_memo == mono_exec._prob_memo
        assert len(shard_exec._prob_memo) > 0

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_plain_executor_matches_per_query(self, registry, partitioner):
        mono = _mono(registry, "uniform")
        sharded = _sharded(registry, "uniform", partitioner)
        for query in _workload(6, seed=31):
            assert (
                execute_query(sharded, query).sorted_ids()
                == execute_query(mono, query).sorted_ids()
            )

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_nearest_neighbor_queries_bit_identical(self, registry, partitioner):
        mono = _mono(registry, "uniform")
        sharded = _sharded(registry, "uniform", partitioner)
        rng = np.random.default_rng(47)
        for _ in range(4):
            point = rng.uniform(1500, 8500, 2)
            mono_nn = probabilistic_nearest_neighbors(mono, point, rounds=600, seed=3)
            shard_nn = probabilistic_nearest_neighbors(sharded, point, rounds=600, seed=3)
            assert [
                (c.oid, c.probability, c.expected_distance)
                for c in mono_nn.candidates
            ] == [
                (c.oid, c.probability, c.expected_distance)
                for c in shard_nn.candidates
            ]
            mono_k = expected_nearest_neighbors(mono, point, k=3, rounds=600, seed=3)
            shard_k = expected_nearest_neighbors(sharded, point, k=3, rounds=600, seed=3)
            assert [(c.oid, c.expected_distance) for c in mono_k.candidates] == [
                (c.oid, c.expected_distance) for c in shard_k.candidates
            ]

    def test_protocol_satisfied(self, registry):
        assert isinstance(_sharded(registry, "uniform", "str"), AccessMethod)


class TestShardsOneDegeneracy:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_single_shard_equals_plain_executor(self, registry, partitioner):
        """One shard is the monolithic tree — even its I/O counts match."""
        mono = _mono(registry, "uniform")
        single = _sharded(registry, "uniform", partitioner, shards=1)
        for query in _workload(6, seed=37):
            mono_ans = execute_query(mono, query)
            single_ans = execute_query(single, query)
            assert mono_ans.object_ids == single_ans.object_ids
            assert mono_ans.stats.node_accesses == single_ans.stats.node_accesses
            assert mono_ans.stats.data_page_reads == single_ans.stats.data_page_reads
            assert mono_ans.stats.physical_reads == single_ans.stats.physical_reads

    def test_single_shard_batch_counters_match(self, registry):
        mono = _mono(registry, "uniform")
        single = _sharded(registry, "uniform", "str", shards=1)
        workload = _workload(6, seed=41)
        mono_res = BatchExecutor(mono).run(workload)
        single_res = BatchExecutor(single).run(workload)
        assert mono_res.batch.data_page_fetches == single_res.batch.data_page_fetches
        assert mono_res.batch.unique_data_pages == single_res.batch.unique_data_pages
        assert single_res.batch.shards == 1
        assert single_res.batch.shard_probes == len(workload)


class TestPruning:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_pruning_disabled_identical_physical_fetches(self, registry, partitioner):
        """The acceptance contract: prune off => same physical page reads."""
        mono = _mono(registry, "uniform")
        sharded = _sharded(registry, "uniform", partitioner)
        sharded.prune = False
        workload = _workload(8, seed=43)
        mono_exec = BatchExecutor(mono)
        shard_exec = BatchExecutor(sharded)
        mono_res = mono_exec.run(workload)
        shard_res = shard_exec.run(workload)
        for mono_ans, shard_ans in zip(mono_res.answers, shard_res.answers):
            assert mono_ans.sorted_ids() == shard_ans.sorted_ids()
        # Refinement-phase physical reads are identical: same candidate
        # addresses over identically packed data files, deduped the same.
        assert mono_res.batch.data_page_fetches == shard_res.batch.data_page_fetches
        assert mono_res.batch.unique_data_pages == shard_res.batch.unique_data_pages
        assert shard_exec._prob_memo == mono_exec._prob_memo
        # Every query probed every shard: nothing was pruned.
        assert shard_res.batch.shard_probes == len(workload) * sharded.shard_count
        assert shard_res.batch.shards_pruned == 0

    def test_pruning_skips_disjoint_shards_soundly(self):
        """Two distant clusters, STR shards: local queries probe locally."""
        rng = np.random.default_rng(53)
        objects = []
        for i in range(24):
            centre = (
                rng.uniform(500, 2500, 2) if i % 2 == 0 else rng.uniform(7500, 9500, 2)
            )
            objects.append(
                UncertainObject(
                    i, UniformDensity(BallRegion(centre, 150.0), marginal_seed=i)
                )
            )
        mono = UTree(2, estimator=_estimator())
        for obj in objects:
            mono.insert(obj)
        sharded = ShardedAccessMethod.build(
            objects, shards=2, partitioner="str", estimator=_estimator()
        )
        local = ProbRangeQuery(Rect([1000, 1000], [2000, 2000]), 0.5)
        answer = execute_query(sharded, local)
        assert answer.sorted_ids() == execute_query(mono, local).sorted_ids()
        assert answer.stats.shard_probes == 1
        assert answer.stats.shards_pruned == 1
        # A pruned shard's objects are accounted as pruned: the distant
        # cluster's 12 objects are part of this query's pruned count.
        assert answer.stats.pruned >= 12
        # Far-out query: nothing intersects, no shard is probed.
        nowhere = ProbRangeQuery(Rect([20000, 20000], [21000, 21000]), 0.5)
        empty = execute_query(sharded, nowhere)
        assert empty.object_ids == []
        assert empty.stats.shard_probes == 0
        assert empty.stats.shards_pruned == 2
        assert empty.stats.node_accesses == 0
        assert empty.stats.pruned == len(objects)


class TestEmptyAndDegenerateShards:
    def test_hash_partition_with_empty_shards(self):
        """All oids congruent mod 4 => three empty shards; still correct."""
        objects = [
            UncertainObject(
                4 * i,
                UniformDensity(
                    BallRegion([2000.0 + 600 * i, 5000.0], 200.0), marginal_seed=i
                ),
            )
            for i in range(8)
        ]
        mono = UTree(2, estimator=_estimator())
        for obj in objects:
            mono.insert(obj)
        sharded = ShardedAccessMethod.build(
            objects, shards=4, partitioner="hash", estimator=_estimator()
        )
        assert sharded.shard_sizes == [8, 0, 0, 0]
        assert sharded.shard_bounds[1] is None
        query = ProbRangeQuery(Rect([1500, 4500], [5200, 5500]), 0.4)
        assert (
            execute_query(sharded, query).sorted_ids()
            == execute_query(mono, query).sorted_ids()
        )
        # Empty shards are never probed with pruning on...
        assert execute_query(sharded, query).stats.shard_probes == 1
        # ... and probing them with pruning off is harmless.
        sharded.prune = False
        assert (
            execute_query(sharded, query).sorted_ids()
            == execute_query(mono, query).sorted_ids()
        )

    def test_more_shards_than_objects(self):
        objects = _family_objects("uniform", n=5, seed=61)
        sharded = ShardedAccessMethod.build(
            objects, shards=9, partitioner="str", estimator=_estimator()
        )
        assert sum(sharded.shard_sizes) == 5
        assert sharded.shard_count == 9
        mono = UTree(2, estimator=_estimator())
        for obj in objects:
            mono.insert(obj)
        for query in _workload(4, seed=67):
            assert (
                execute_query(sharded, query).sorted_ids()
                == execute_query(mono, query).sorted_ids()
            )

    def test_empty_object_list_requires_dim(self):
        with pytest.raises(ValueError):
            ShardedAccessMethod.build([], shards=2)
        sharded = ShardedAccessMethod.build([], shards=2, dim=2)
        assert len(sharded) == 0
        query = ProbRangeQuery(Rect([0, 0], [100, 100]), 0.5)
        assert execute_query(sharded, query).object_ids == []


class TestBatchParallelism:
    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_batch_answers_match_mono_at_any_parallelism(
        self, registry, partitioner, parallelism
    ):
        mono = _mono(registry, "congau")
        sharded = _sharded(registry, "congau", partitioner)
        workload = _workload(8, seed=71)
        expected = [execute_query(mono, q).sorted_ids() for q in workload]
        result = BatchExecutor(sharded).run(workload)
        assert [a.sorted_ids() for a in result.answers] == expected
        assert result.batch.shards == sharded.shard_count
        assert result.batch.parallelism == parallelism

    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    def test_shard_stats_merge(self, registry, parallelism):
        """Per-shard accounting is exact and consistent."""
        sharded = _sharded(registry, "uniform", "str")
        workload = _workload(8, seed=73)
        result = BatchExecutor(sharded).run(workload)
        stats = result.batch.shard_stats
        assert len(stats) == sharded.shard_count
        assert sum(s.probes for s in stats) == result.batch.shard_probes
        assert result.batch.shard_probes + result.batch.shards_pruned == (
            len(workload) * sharded.shard_count
        )
        # Every filter node access came from exactly one shard probe.
        assert sum(s.node_accesses for s in stats) == sum(
            q.node_accesses for q in result.workload.queries
        )
        # Uncached: a shard's physical reads are its node accesses.
        assert all(s.physical_reads == s.node_accesses for s in stats)
        assert all(
            s.probes + s.routed_away == len(workload) for s in stats
        )
        # Candidates fed to refinement, attributed per shard: every
        # refined (object, query) pair came from exactly one probe, so the
        # per-query computed + memoised counts equal the candidate feed.
        shard_candidates = sum(s.candidates for s in stats)
        refined_pairs = sum(
            q.prob_computations + q.memoized_probs
            for q in result.workload.queries
        )
        assert shard_candidates > 0
        assert shard_candidates == refined_pairs

    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    def test_phase_wallclock_summed_once_per_query(self, registry, parallelism):
        """The stats-merging contract: batch phase clocks are per-query
        sums, and a query's filter_seconds bills each probe exactly once
        (never the whole query window once per shard probe)."""
        sharded = _sharded(registry, "uniform", "str")
        sharded.prune = False  # every query probes all 3 shards
        workload = _workload(6, seed=79)
        result = BatchExecutor(sharded).run(workload)
        queries = result.workload.queries
        assert result.batch.filter_seconds == sum(q.filter_seconds for q in queries)
        assert result.batch.refine_seconds == sum(q.refine_seconds for q in queries)
        assert all(q.shard_probes == sharded.shard_count for q in queries)
        # Phase fields stay within each query's end-to-end wall clock:
        # a per-probe double count would push filter_seconds past it.
        assert all(q.filter_seconds <= q.wall_seconds for q in queries)


class TestPartitionersAndRouter:
    def test_assignments_are_deterministic_and_total(self):
        objects = _family_objects("uniform", n=23, seed=83)
        for fn in (str_tile_partition, hash_partition):
            first = fn(objects, 5)
            assert first == fn(objects, 5)
            assert len(first) == len(objects)
            assert all(0 <= shard < 5 for shard in first)
        with pytest.raises(ValueError):
            str_tile_partition(objects, 0)
        with pytest.raises(ValueError):
            hash_partition(objects, 0)

    def test_str_tiles_are_balanced(self):
        objects = _family_objects("uniform", n=40, seed=89)
        counts = [0] * 4
        for shard in str_tile_partition(objects, 4):
            counts[shard] += 1
        assert max(counts) - min(counts) <= 2

    def test_single_shard_assignment_is_all_zero(self):
        objects = _family_objects("uniform", n=7, seed=97)
        assert str_tile_partition(objects, 1) == [0] * 7
        assert hash_partition(objects, 1) == [0] * 7

    def test_router_orders_probes_by_planner_price(self, registry):
        sharded = _sharded(registry, "uniform", "str")
        sharded.prune = False
        query = _workload(1, seed=101)[0]
        order = sharded.route(query)
        assert sorted(order) == list(range(sharded.shard_count))
        prices = [sharded.router.price(i, query) for i in order]
        assert prices == sorted(prices)

    def test_planner_for_shards_registers_and_prices(self, registry):
        sharded = _sharded(registry, "uniform", "str")
        planner = Planner.for_shards(sharded.shards)
        assert planner.method_names == [
            f"shard-{i}" for i in range(sharded.shard_count)
        ]
        query = _workload(1, seed=103)[0]
        for name in planner.method_names:
            assert planner.price(name, query) >= 0.0
        with pytest.raises(KeyError):
            planner.price("missing", query)

    def test_empty_shard_prices_infinite_and_sorts_last(self):
        objects = [
            UncertainObject(
                4 * i,
                UniformDensity(BallRegion([5000.0, 5000.0], 200.0), marginal_seed=i),
            )
            for i in range(6)
        ]
        sharded = ShardedAccessMethod.build(
            objects, shards=4, partitioner="hash", estimator=_estimator(), prune=False
        )
        assert sharded.shard_sizes == [6, 0, 0, 0]
        query = ProbRangeQuery(Rect([4000, 4000], [6000, 6000]), 0.5)
        order = sharded.route(query)
        assert order[0] == 0  # the only populated shard probes first
        assert sharded.router.price(1, query) == float("inf")

    def test_unknown_partitioner_and_method_rejected(self):
        objects = _family_objects("uniform", n=4, seed=107)
        with pytest.raises(ValueError):
            ShardedAccessMethod.build(objects, shards=2, partitioner="nope")
        with pytest.raises(ValueError):
            ShardedAccessMethod.build(objects, shards=2, method="nope")


class TestStorageSlices:
    def test_bufferpool_partition_preserves_budget(self):
        pools = BufferPool.partition(10, 4)
        # Remainder frames interleave round-robin (slice 0 first), they
        # are not front-loaded onto a consecutive prefix.
        assert [p.capacity for p in pools] == [3, 2, 3, 2]
        assert BufferPool.partition(0, 3)[0].capacity == 0
        with pytest.raises(ValueError):
            BufferPool.partition(4, 0)
        with pytest.raises(ValueError):
            BufferPool.partition(-1, 2)

    def test_composite_io_counter_sums_children(self):
        first, second = IOCounter(), IOCounter()
        composite = CompositeIOCounter([first, second])
        first.record_read(3)
        second.record_write(2)
        second.record_cache_hit()
        assert composite.reads == 3
        assert composite.writes == 2
        assert composite.cache_hits == 1
        assert composite.total == 5
        assert composite.logical_reads == 4
        snap = composite.snapshot()
        first.record_read()
        assert composite.delta(snap) == (1, 0)
        composite.reset()
        assert first.reads == 0 and second.writes == 0

    def test_sharded_build_with_pool_capacity(self, registry):
        mono = _mono(registry, "uniform")
        sharded = ShardedAccessMethod.build(
            _family_objects("uniform"),
            shards=3,
            estimator=_estimator(),
            pool_capacity=64,
        )
        workload = _workload(5, seed=109)
        for query in workload:
            assert (
                execute_query(sharded, query).sorted_ids()
                == execute_query(mono, query).sorted_ids()
            )
        # A warm pool serves repeats from memory: physical < logical.
        result = BatchExecutor(sharded).run(workload)
        assert result.batch.cache_hits > 0


class TestShardedUpdates:
    def test_insert_and_delete_route_through_shards(self, registry):
        objects = _family_objects("uniform", n=12, seed=113)
        sharded = ShardedAccessMethod.build(
            objects, shards=3, partitioner="str", estimator=_estimator()
        )
        extra = UncertainObject(
            500, UniformDensity(BallRegion([5000.0, 5000.0], 200.0), marginal_seed=500)
        )
        sharded.insert(extra)
        assert len(sharded) == 13
        query = ProbRangeQuery(Rect([4000, 4000], [6000, 6000]), 0.5)
        assert 500 in execute_query(sharded, query).object_ids
        assert sharded.delete(500)
        assert len(sharded) == 12
        assert 500 not in execute_query(sharded, query).object_ids
        assert sharded.delete(999_999) is None
        sharded.refresh_router()  # re-pricing after updates stays valid
        assert sorted(sharded.route(query)) == [
            i for i, b in enumerate(sharded.shard_bounds)
            if b is not None and b.intersects(query.rect)
        ]

    def test_insert_outside_build_bounds_stays_routable(self):
        """Regression: the router must see bounds grown by insert().

        A router holding a stale build-time copy of the shard bounds
        would prune every shard for a query over the new territory and
        silently answer empty.
        """
        objects = _family_objects("uniform", n=12, seed=113)
        sharded = ShardedAccessMethod.build(
            objects, shards=3, partitioner="str", estimator=_estimator()
        )
        outlier = UncertainObject(
            600,
            UniformDensity(BallRegion([20000.0, 20000.0], 200.0), marginal_seed=600),
        )
        sharded.insert(outlier)
        assert sharded.prune  # the default: pruning stays on
        query = ProbRangeQuery(Rect([19000, 19000], [21000, 21000]), 0.5)
        answer = execute_query(sharded, query)
        assert answer.object_ids == [600]
        assert answer.stats.shard_probes >= 1

    def test_hash_delete_goes_to_owning_shard(self):
        objects = _family_objects("uniform", n=12, seed=113)
        sharded = ShardedAccessMethod.build(
            objects, shards=3, partitioner="hash", estimator=_estimator()
        )
        # oid 7 lives in shard 7 % 3 == 1; deleting it must not disturb
        # the other shards' sizes, and a missing oid reports None.
        sizes_before = list(sharded.shard_sizes)
        assert sharded.delete(7)
        assert sharded.shard_sizes[1] == sizes_before[1] - 1
        assert sharded.shard_sizes[0] == sizes_before[0]
        assert sharded.delete(7) is None
        assert sharded.delete(999_999) is None


class TestScanAndUpcrShards:
    @pytest.mark.parametrize("method", ("scan", "upcr"))
    def test_sharded_structures_match_their_monolithic_peer(self, method):
        objects = _family_objects("uniform", n=20, seed=127)
        if method == "scan":
            mono = SequentialScan(2, estimator=_estimator())
        else:
            from repro.core.upcr import UPCRTree

            mono = UPCRTree(2, estimator=_estimator())
        for obj in objects:
            mono.insert(obj)
        sharded = ShardedAccessMethod.build(
            objects, shards=3, method=method, estimator=_estimator()
        )
        for query in _workload(5, seed=131):
            assert (
                execute_query(sharded, query).sorted_ids()
                == execute_query(mono, query).sorted_ids()
            )
