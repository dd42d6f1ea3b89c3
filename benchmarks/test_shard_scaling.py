"""Benches for sharded execution: routing must buy filter-phase I/O.

The acceptance contract of the shard layer, on a *clustered* workload
(queries concentrated in one region of a uniformly spread object field):

* the sharded batch with pruning enabled performs **strictly fewer
  filter-phase node accesses** than the unsharded structure — the
  router proves most shards irrelevant per query without touching a
  page.  The contract is pinned on the flat ``SequentialScan``
  structure, where every unsharded query must read the whole summary
  file and the win is deterministic and large (the router skips entire
  shard files).  U-tree numbers are *recorded* in the artifact for the
  same workload: an R-tree's own subtree pruning already localises
  clustered queries, so tree sharding buys parallel isolation and
  per-shard cache slices rather than logical filter I/O — the artifact
  shows both counts so the trade is visible;
* answers stay identical to the unsharded executor (the equivalence
  suite in ``tests/test_shard.py`` pins this bit-exactly; re-checked
  here on the benchmark workload for both structures).

The headline numbers are written to a ``BENCH_shard.json`` artifact
(path overridable via ``REPRO_SHARD_ARTIFACT``) for the CI perf-smoke
job.  ``REPRO_BENCH_SAMPLES`` shrinks the Monte-Carlo budget for smoke
runs.  The node-access contract is deterministic (pure counting, no
wall-clock), so it stays armed on every runner.
"""

from __future__ import annotations

import json
from repro.env import env_int, env_value
import time

import numpy as np
import pytest

from repro.api.config import ExecConfig
from repro.api.database import Database
from repro.api.specs import RangeSpec
from repro.core.query import ProbRangeQuery
from repro.core.scan import SequentialScan
from repro.core.utree import UTree
from repro.exec import BatchExecutor, ShardedAccessMethod
from repro.geometry.rect import Rect
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import UniformDensity
from repro.uncertainty.regions import BallRegion

N_SAMPLES = env_int("REPRO_BENCH_SAMPLES", 4000)
SEED = 13
N_OBJECTS = 300
N_QUERIES = 48
SHARDS = 9
ARTIFACT = env_value("REPRO_SHARD_ARTIFACT", "BENCH_shard.json")


def _objects() -> list[UncertainObject]:
    rng = np.random.default_rng(31)
    centres = rng.uniform(500, 9500, (N_OBJECTS, 2))
    return [
        UncertainObject(i, UniformDensity(BallRegion(centres[i], 220.0), marginal_seed=i))
        for i in range(N_OBJECTS)
    ]


def _clustered_workload() -> list[ProbRangeQuery]:
    """Queries packed into one corner region — the routing-friendly shape."""
    rng = np.random.default_rng(37)
    return [
        ProbRangeQuery(
            Rect.from_center(rng.uniform(1500, 3500, 2), float(rng.uniform(300, 800))),
            0.5,
        )
        for _ in range(N_QUERIES)
    ]


def _estimator() -> AppearanceEstimator:
    return AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)


def _filter_nodes(result) -> int:
    return sum(q.node_accesses for q in result.workload.queries)


@pytest.fixture(scope="module")
def objects():
    return _objects()


@pytest.fixture(scope="module")
def mono_tree(objects):
    tree = UTree(2, estimator=_estimator())
    for obj in objects:
        tree.insert(obj)
    return tree


@pytest.fixture(scope="module")
def sharded_tree(objects):
    return ShardedAccessMethod.build(
        objects, shards=SHARDS, partitioner="str", estimator=_estimator()
    )


class TestShardScalingAcceptance:
    def test_pruned_shards_strictly_fewer_filter_node_accesses(
        self, objects, mono_tree, sharded_tree
    ):
        workload = _clustered_workload()

        # The pinned contract: flat scans, where the unsharded filter
        # must read every summary page of every query.
        mono_scan = SequentialScan(2, estimator=_estimator())
        for obj in objects:
            mono_scan.insert(obj)
        sharded_scan = ShardedAccessMethod.build(
            objects, shards=SHARDS, partitioner="str", method="scan",
            estimator=_estimator(),
        )
        scan_start = time.perf_counter()
        mono_scan_result = BatchExecutor(mono_scan).run(workload)
        mono_scan_seconds = time.perf_counter() - scan_start
        scan_start = time.perf_counter()
        shard_scan_result = BatchExecutor(sharded_scan).run(workload)
        shard_scan_seconds = time.perf_counter() - scan_start

        for mono_ans, shard_ans in zip(
            mono_scan_result.answers, shard_scan_result.answers
        ):
            assert mono_ans.sorted_ids() == shard_ans.sorted_ids()
        mono_scan_nodes = _filter_nodes(mono_scan_result)
        shard_scan_nodes = _filter_nodes(shard_scan_result)
        assert shard_scan_nodes < mono_scan_nodes, (
            f"sharded scan read {shard_scan_nodes} filter pages, "
            f"unsharded {mono_scan_nodes}"
        )
        # The win comes from pruning: most (query, shard) probes never ran.
        assert shard_scan_result.batch.shards_pruned > 0
        assert shard_scan_result.batch.shard_probes < N_QUERIES * SHARDS

        # The recorded comparison: the same workload over U-trees.
        mono_tree_result = BatchExecutor(mono_tree).run(workload)
        shard_tree_result = BatchExecutor(sharded_tree).run(workload)
        for mono_ans, shard_ans in zip(
            mono_tree_result.answers, shard_tree_result.answers
        ):
            assert mono_ans.sorted_ids() == shard_ans.sorted_ids()

        per_shard = [
            {
                "shard": stats.shard,
                "probes": stats.probes,
                "routed_away": stats.routed_away,
                "node_accesses": stats.node_accesses,
                "physical_reads": stats.physical_reads,
                "candidates": stats.candidates,
            }
            for stats in shard_scan_result.batch.shard_stats
        ]
        with open(ARTIFACT, "w") as fh:
            json.dump(
                {
                    "n_samples": N_SAMPLES,
                    "objects": N_OBJECTS,
                    "queries": N_QUERIES,
                    "shards": SHARDS,
                    "partitioner": "str",
                    "scan_filter_node_accesses_unsharded": mono_scan_nodes,
                    "scan_filter_node_accesses_sharded": shard_scan_nodes,
                    "scan_node_access_ratio": shard_scan_nodes / mono_scan_nodes,
                    "utree_filter_node_accesses_unsharded": _filter_nodes(
                        mono_tree_result
                    ),
                    "utree_filter_node_accesses_sharded": _filter_nodes(
                        shard_tree_result
                    ),
                    "shard_probes": shard_scan_result.batch.shard_probes,
                    "shards_pruned": shard_scan_result.batch.shards_pruned,
                    "max_probes": N_QUERIES * SHARDS,
                    "scan_seconds_unsharded": mono_scan_seconds,
                    "scan_seconds_sharded": shard_scan_seconds,
                    "queries_per_second_unsharded": N_QUERIES
                    / max(mono_scan_seconds, 1e-12),
                    "queries_per_second_sharded": N_QUERIES
                    / max(shard_scan_seconds, 1e-12),
                    "per_shard": per_shard,
                },
                fh,
                indent=2,
            )

    def test_planner_routing_stops_the_sharded_utree_regression(self, objects):
        """The shards-vs-monolithic regression guard.

        On this clustered workload a U-tree sharded nine ways reads
        *more* filter pages than the monolithic tree (each routed shard
        pays its own root path), so pinning every query to the sharded
        method is a regression.  The planner must do better: pricing
        each query against both structures — with the per-method bias
        EWMAs fed back from executed workloads — its routed mix may not
        regress past the monolithic baseline on either filter node
        accesses or total observed I/O.
        """
        workload = _clustered_workload()
        specs = [RangeSpec(rect=q.rect, threshold=q.threshold) for q in workload]

        def fresh_db() -> Database:
            mono = UTree(2, estimator=_estimator())
            for obj in objects:
                mono.insert(obj)
            sharded = ShardedAccessMethod.build(
                objects, shards=SHARDS, partitioner="str", estimator=_estimator()
            )
            return Database.from_methods(
                {"utree": mono, "utree-sharded": sharded},
                ExecConfig(mc_samples=N_SAMPLES, batched=False),
            )

        def io_total(run) -> int:
            return sum(
                r.stats.node_accesses + r.stats.data_page_reads
                for r in run.results
            )

        def filter_total(run) -> int:
            return sum(r.stats.node_accesses for r in run.results)

        mono_run = fresh_db().run(specs, method="utree")
        shard_run = fresh_db().run(specs, method="utree-sharded")
        # The motivating regression, pinned so it stays visible: all-sharded
        # execution reads more filter pages than the monolithic tree.
        assert filter_total(shard_run) > filter_total(mono_run)

        db = fresh_db()
        first = db.run(specs)  # calibrates the per-method bias EWMAs
        second = db.run(specs)  # plans with the learnt biases
        for reference, run in ((mono_run, first), (mono_run, second)):
            for expected, result in zip(reference.results, run.results):
                assert sorted(expected.object_ids) == sorted(result.object_ids)

        # Both cost models flatter themselves on this workload; the run
        # observed that and the biases moved off their neutral 1.0.
        assert db.planner.bias("utree") != 1.0
        assert db.planner.bias("utree-sharded") != 1.0

        # The guard: calibrated routing must not regress past the
        # monolithic baseline — and the mixed plan actually beats it.
        assert filter_total(second) <= filter_total(mono_run)
        assert io_total(second) <= io_total(mono_run)
        routed_to = {r.method for r in second.results}
        assert "utree" in routed_to  # the regression is no longer pinned
