"""The adaptive runtime: bounded probing and learned planner state.

Two layers under test:

* the latency-bounded shard probing — identical answers with the bound
  on and off across every structure x partitioner combination (range and
  NN), plus the update-traffic counters and ``Database.rebalance()``;
* the ``Database`` wiring — method variants, one configuration per
  database with identical answers across configurations, and the
  planner-bias round trip through ``save()``/``open()`` (including
  archives written while the database still carried an auto-tuner or
  a buffer-pool policy choice).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Database, ExecConfig, RangeSpec
from repro.core.nn import probabilistic_nearest_neighbors
from repro.core.query import ProbRangeQuery
from repro.exec.executor import execute_query
from repro.exec.shard import ShardedAccessMethod
from repro.geometry.rect import Rect
from repro.storage.bufferpool import pools_of
from repro.uncertainty.montecarlo import AppearanceEstimator
from tests.conftest import make_mixed_objects, make_uniform_ball_object

# The config key older archives carry for the removed auto-tuner, spelt
# in pieces so a search for the retired name finds no live use of it.
RETIRED_TUNER_FLAG = "_".join(("auto", "tune"))


# ---------------------------------------------------------------------------
# latency-bounded probing
# ---------------------------------------------------------------------------
N_SAMPLES = 900
SEED = 7


def _range_queries():
    rng = np.random.default_rng(13)
    queries = []
    for pq in (0.2, 0.5, 0.8, 0.95):
        centre = rng.uniform(1500, 8500, 2)
        half = float(rng.uniform(400, 2200))
        queries.append(ProbRangeQuery(Rect.from_center(centre, half), pq))
    queries.append(ProbRangeQuery(Rect([0.0, 0.0], [10_000.0, 10_000.0]), 0.3))
    return queries


def _build_sharded(method, partitioner, probe_bound):
    return ShardedAccessMethod.build(
        make_mixed_objects(36, seed=5),
        shards=4,
        partitioner=partitioner,
        method=method,
        estimator=AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED),
        probe_bound=probe_bound,
    )


class TestProbeBound:
    @pytest.mark.parametrize("partitioner", ["str", "hash"])
    @pytest.mark.parametrize("method", ["utree", "upcr", "scan"])
    def test_range_answers_identical_with_and_without_bound(
        self, method, partitioner
    ):
        bounded = _build_sharded(method, partitioner, True)
        unbounded = _build_sharded(method, partitioner, False)
        for query in _range_queries():
            a = execute_query(bounded, query)
            b = execute_query(unbounded, query)
            assert sorted(a.object_ids) == sorted(b.object_ids)
        assert bounded.router.bound_skips >= 0
        assert unbounded.router.bound_skips == 0

    @pytest.mark.parametrize("partitioner", ["str", "hash"])
    def test_bound_actually_skips_probes(self, partitioner):
        """A grazing high-threshold query must drop provably futile probes.

        The query overlaps a shard's MBR only at the fringe, where the
        members' shrunken level-j profile boxes (the ones Observation 4
        consults for p_q = 0.95) no longer reach — the probe is proven
        pointless without running it.
        """
        bounded = _build_sharded("utree", partitioner, True)
        query = ProbRangeQuery(
            Rect.from_center(np.array([5118.0, 9505.0]), 518.0), 0.95
        )
        bounded.router.route(query)
        total_skipped = bounded.router.bound_skips
        assert total_skipped > 0, (
            "expected the residual-probability bound to skip probes"
        )
        # Cross-check: the skipped probes change nothing in the answer.
        unbounded = _build_sharded("utree", partitioner, False)
        a = execute_query(bounded, query)
        b = execute_query(unbounded, query)
        assert sorted(a.object_ids) == sorted(b.object_ids)

    def test_probe_bound_toggle_property(self):
        sharded = _build_sharded("utree", "str", True)
        assert sharded.probe_bound
        sharded.probe_bound = False
        assert not sharded.router.probe_bound

    def test_nn_answers_identical_and_shards_skipped(self):
        monolithic_est = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        from repro.core.utree import UTree
        from repro.core.catalog import UCatalog

        objects = make_mixed_objects(36, seed=5)
        mono = UTree(2, UCatalog.paper_utree_default(), estimator=monolithic_est)
        for obj in objects:
            mono.insert(obj)
        bounded = _build_sharded("utree", "str", True)
        unbounded = _build_sharded("utree", "str", False)

        rng = np.random.default_rng(29)
        skipped = 0
        for _ in range(6):
            point = rng.uniform(500, 9500, 2)
            r_mono = probabilistic_nearest_neighbors(mono, point, rounds=400)
            r_on = probabilistic_nearest_neighbors(bounded, point, rounds=400)
            r_off = probabilistic_nearest_neighbors(unbounded, point, rounds=400)
            key = lambda r: [(c.oid, c.probability) for c in r.candidates]
            assert key(r_on) == key(r_off) == key(r_mono)
            skipped += r_on.shards_skipped
            assert r_off.shards_skipped == 0
        assert skipped > 0, "the best-worst bound never skipped a shard"


class TestTrafficAndRebalance:
    def test_update_traffic_counters(self):
        sharded = _build_sharded("utree", "str", True)
        assert sharded.update_traffic == 0
        sharded.insert(make_uniform_ball_object(500, np.array([800.0, 800.0])))
        assert sharded.insert_traffic.count(1) == 1
        assert sharded.update_traffic == 1
        sharded.delete(500)
        assert sharded.update_traffic == 2
        sharded.reset_traffic()
        assert sharded.update_traffic == 0

    def test_rebalance_reduces_skew_and_keeps_answers(self):
        config = ExecConfig(
            shards=4, mc_samples=N_SAMPLES, seed=SEED, batched=False
        )
        db = Database.create(make_mixed_objects(30, seed=5), config)
        method = db.access_method("utree")
        # Skewed traffic: a clustered burst lands on one spatial shard.
        rng = np.random.default_rng(17)
        for i in range(30):
            centre = rng.uniform(600, 1200, 2)
            db.insert(make_uniform_ball_object(1000 + i, centre))
        assert method.update_traffic == 30
        skew = method.size_skew()
        assert skew > 1.0

        specs = [
            RangeSpec(Rect.from_center(np.array([2000.0, 2000.0]), 1800.0), 0.4),
            RangeSpec(Rect([0.0, 0.0], [10_000.0, 10_000.0]), 0.25),
        ]
        before = [sorted(r.object_ids) for r in db.run(specs)]
        report = db.rebalance()
        assert report["utree"]["objects"] == 60
        assert report["utree"]["update_traffic"] == 30
        assert report["utree"]["skew_after"] <= report["utree"]["skew_before"]
        rebuilt = db.access_method("utree")
        assert rebuilt is not method
        assert rebuilt.update_traffic == 0
        after = [sorted(r.object_ids) for r in db.run(specs)]
        assert after == before

    def test_rebalance_skips_monolithic_and_low_skew(self):
        db = Database.create(
            make_mixed_objects(12, seed=5), ExecConfig(mc_samples=400)
        )
        assert db.rebalance() == {}
        config = ExecConfig(shards=2, mc_samples=400)
        db2 = Database.create(make_mixed_objects(12, seed=5), config)
        assert db2.rebalance(min_skew=1000.0) == {}


# ---------------------------------------------------------------------------
# Database wiring: variants, configurations, persistence, explain
# ---------------------------------------------------------------------------
def _specs():
    rng = np.random.default_rng(23)
    specs = []
    for pq in (0.3, 0.6):
        centre = rng.uniform(2000, 8000, 2)
        specs.append(RangeSpec(Rect.from_center(centre, 1500.0), pq))
    return specs


class TestDatabaseAdaptive:
    def test_method_variant_suffixes(self):
        config = ExecConfig(shards=3, mc_samples=600)
        db = Database.create(
            make_mixed_objects(24, seed=5),
            config,
            methods=("utree@mono", "utree@sharded"),
        )
        assert not isinstance(
            db.access_method("utree@mono"), ShardedAccessMethod
        )
        assert isinstance(
            db.access_method("utree@sharded"), ShardedAccessMethod
        )
        answers = {
            name: [sorted(r.object_ids) for r in db.run(_specs(), method=name)]
            for name in db.method_names
        }
        assert answers["utree@mono"] == answers["utree@sharded"]

    def test_sharded_variant_requires_shards(self):
        with pytest.raises(ValueError, match="pins the sharded layout"):
            Database.create(
                make_mixed_objects(8, seed=5),
                ExecConfig(mc_samples=400),
                methods=("utree@sharded",),
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown method variant"):
            Database.create(
                make_mixed_objects(8, seed=5),
                ExecConfig(mc_samples=400),
                methods=("utree@fast",),
            )

    def test_per_batch_overrides_keep_answers(self):
        # Cost knobs are fixed per Database: one database per setting,
        # every one answering exactly like the default-configured one.
        config = ExecConfig(shards=2, mc_samples=600, filter_kernel="on")
        objects = make_mixed_objects(24, seed=5)
        specs = _specs()
        db = Database.create(objects, config)
        baseline = [sorted(r.object_ids) for r in db.run(specs)]
        db.close()
        for overrides in (
            {"parallelism": 2},
            {"filter_kernel": False},
            {"filter_kernel": True},
        ):
            db = Database.create(objects, config.with_options(**overrides))
            got = [sorted(r.object_ids) for r in db.run(specs)]
            db.close()
            assert got == baseline, f"answers drifted under {overrides}"

    def test_override_validation(self):
        # run() takes no per-batch cost knobs: the database's config is
        # the only one, and a stray keyword fails loudly.
        db = Database.create(
            make_mixed_objects(8, seed=5), ExecConfig(mc_samples=400)
        )
        for override in (
            {"executor": "process"},
            {"parallelism": 2},
            {"filter_kernel": False},
        ):
            with pytest.raises(TypeError):
                db.run(_specs(), **override)
        assert db.explain(_specs()[0]).filter_kernel == db.config.kernel_enabled

    def test_explain_pool_fields(self):
        config = ExecConfig(mc_samples=1000, pool_capacity=16)
        db = Database.create(make_mixed_objects(12, seed=5), config)
        explanation = db.explain(_specs()[0])
        assert explanation.pool_capacity == 16

    def test_explain_reports_bound_skips(self):
        config = ExecConfig(shards=4, partitioner="hash", mc_samples=500)
        db = Database.create(make_mixed_objects(36, seed=5), config)
        spec = RangeSpec(
            Rect.from_center(np.array([5118.0, 9505.0]), 518.0), 0.95
        )
        explanation = db.explain(spec)
        assert explanation.shards_bound_skipped > 0
        assert "bound-skipped" in explanation.summary()

    def test_learned_state_round_trips_through_save_open(self, tmp_path):
        config = ExecConfig(shards=2, mc_samples=500, filter_kernel="on")
        db = Database.create(
            make_mixed_objects(20, seed=5),
            config,
            methods=("utree@mono", "utree@sharded"),
        )
        specs = _specs()
        for _ in range(3):
            db.run(specs)
        db.planner.observe_choice("utree@mono", 10.0, 25.0)
        path = tmp_path / "adaptive.npz"
        db.save(path)
        db.close()

        reopened = Database.open(path)
        assert reopened.planner.data_records_per_page == pytest.approx(
            db.planner.data_records_per_page
        )
        assert reopened.planner.bias("utree@mono") == pytest.approx(
            db.planner.bias("utree@mono")
        )
        assert reopened.planner.observations == db.planner.observations
        reopened.close()

    @pytest.mark.parametrize("layout", ("npz", "wal"))
    def test_archive_with_retired_tuner_keys_opens(self, tmp_path, layout):
        """Archives written with the auto-tuner, executor or pool knobs open.

        The keys are injected into a fresh save: the retired config flag
        set to true, the retired ``"executor"`` backend name and the
        retired ARC pool policy and probation size in the archived
        config, and a ``"tuner"`` block in the meta, exactly where older
        builds wrote them.  Opening ignores all of them: the archived
        ``parallelism=2`` alone puts the reopened database on the process
        backend, and its ``pool_capacity=16`` on 2Q pools with the
        built-in probation size.
        """
        import json

        config = ExecConfig(
            shards=2,
            mc_samples=500,
            filter_kernel="on",
            wal=layout == "wal",
            parallelism=2,
            pool_capacity=16,
        )
        db = Database.create(
            make_mixed_objects(20, seed=5),
            config,
            methods=("utree@mono", "utree@sharded"),
        )
        specs = _specs()
        db.run(specs)
        db.planner.observe_choice("utree@mono", 10.0, 25.0)
        tuner_block = {
            "knobs": {"method": ["utree@mono", "utree@sharded"]},
            "incumbent": {"method": "utree@sharded"},
            "stats": {"method": [[120.0, 2], [95.5, 2]]},
            "decisions": 6,
            "observations": 4,
            "stable": 1,
        }

        def inject(meta: dict) -> dict:
            meta["config"][RETIRED_TUNER_FLAG] = True
            meta["config"]["executor"] = "thread"
            meta["config"]["pool_policy"] = "arc"
            meta["config"]["pool_probation"] = 3
            meta["tuner"] = tuner_block
            return meta

        if layout == "npz":
            path = tmp_path / "legacy.npz"
            db.save(path)
            with np.load(path) as archive:
                arrays = {key: archive[key] for key in archive.files}
            meta = inject(json.loads(str(arrays["database_meta"])))
            arrays["database_meta"] = np.array(json.dumps(meta))
            np.savez(path, **arrays)
        else:
            path = tmp_path / "legacy-dir"
            db.save(path)
            manifest_path = path / "MANIFEST.json"
            manifest = json.loads(manifest_path.read_text())
            inject(manifest["meta"])
            manifest_path.write_text(json.dumps(manifest))
        db.close()

        reopened = Database.open(path)
        for name in db.method_names:
            assert reopened.planner.bias(name) == db.planner.bias(name)
        rerun = reopened.run(specs)
        assert {batch.executor for batch in rerun.batches.values()} == {"process"}
        assert rerun.answers() == db.run(specs).answers()
        assert reopened.config.pool_capacity == 16
        for name in reopened.method_names:
            pools = pools_of(reopened.access_method(name))
            assert sum(pool.capacity for pool in pools) == 16
            for pool in pools:
                assert pool.probation_capacity == max(1, pool.capacity // 8)
        reopened.close()
        db.close()

    def test_single_utree_archive_round_trips_planner_state(self, tmp_path):
        db = Database.create(
            make_mixed_objects(12, seed=5), ExecConfig(mc_samples=400)
        )
        db.planner.observe_choice("utree", 8.0, 12.0)
        path = tmp_path / "single.npz"
        db.save(path)
        reopened = Database.open(path)
        assert reopened.planner.bias("utree") == pytest.approx(
            db.planner.bias("utree")
        )

    def test_planner_reset_feedback(self):
        db = Database.create(
            make_mixed_objects(8, seed=5), ExecConfig(mc_samples=400)
        )
        db.planner.observe_choice("utree", 10.0, 30.0)
        assert db.planner.bias("utree") != 1.0
        db.planner.reset_feedback()
        assert db.planner.bias("utree") == 1.0
        assert db.planner.observations == 0


# ---------------------------------------------------------------------------
# config / environment plumbing
# ---------------------------------------------------------------------------
class TestEnvKnobs:
    def test_pool_policy_env(self, monkeypatch):
        # 2Q is the only replacement policy: the policy knob is gone from
        # the config, and its environment key is reported as unknown.
        with pytest.raises(TypeError):
            ExecConfig(pool_policy="arc")
        monkeypatch.setenv("REPRO_POOL_POLICY", "arc")
        with pytest.warns(UserWarning, match="ignored: REPRO_POOL_POLICY"):
            config = ExecConfig.from_env()
        assert not hasattr(config, "pool_policy")

    def test_pool_probation_env(self, monkeypatch):
        # The 2Q probation length is fixed: the knob is gone from the
        # config, and its environment key is reported as unknown.
        with pytest.raises(TypeError):
            ExecConfig(pool_probation=3)
        monkeypatch.setenv("REPRO_POOL_PROBATION", "3")
        with pytest.warns(UserWarning, match="ignored: REPRO_POOL_PROBATION"):
            config = ExecConfig.from_env()
        assert not hasattr(config, "pool_probation")

    def test_probe_bound_env(self, monkeypatch):
        assert ExecConfig.from_env().probe_bound  # default on
        monkeypatch.setenv("REPRO_PROBE_BOUND", "0")
        assert not ExecConfig.from_env().probe_bound

    def test_paper_exact_pins_uncached_untuned(self):
        config = ExecConfig.paper_exact()
        assert config.pool_capacity == 0
