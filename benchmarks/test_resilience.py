"""Bench for the resilient execution runtime: overhead and recovery.

Two headline numbers gate the resilience subsystem:

* **fault-free overhead** — checksums and supervision are paid on every
  batch, faulted or not, so their cost with all faults absent must stay
  a small multiple of the bare engine (answers bit-identical, asserted
  always);
* **recovery latency** — how much wall clock a batch loses when a
  worker is killed mid-run and the supervisor respawns and retries its
  fault domain, versus the same batch undisturbed.

Headline numbers go to ``BENCH_resilience.json`` (path overridable via
``REPRO_RESILIENCE_ARTIFACT``) for the CI perf-smoke job.  Wall-clock
assertions are skippable via ``REPRO_SKIP_PERF_ASSERT`` for congested
CI runners; the answer-identity assertions are always armed.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np
import pytest

from repro.api import Database, ExecConfig, RangeSpec
from repro.env import env_flag, env_int, env_value
from repro.faults import DegradedWarning
from repro.geometry.rect import Rect
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import UniformDensity
from repro.uncertainty.regions import BallRegion
from tests.faultinject import arm_chaos

N_SAMPLES = env_int("REPRO_BENCH_SAMPLES", 600)
SEED = 31
N_OBJECTS = 120
N_QUERIES = 12
REPEATS = 3
ARTIFACT = env_value("REPRO_RESILIENCE_ARTIFACT", "BENCH_resilience.json")
SKIP_PERF = env_flag("REPRO_SKIP_PERF_ASSERT")

# Generous gate: supervision is poll-based bookkeeping and checksums
# are one crc32 per physical page read — an order-of-magnitude blowup
# would mean the gate is on the hot path by accident.
MAX_FAULT_FREE_OVERHEAD = 3.0


def _objects() -> list[UncertainObject]:
    rng = np.random.default_rng(SEED)
    centres = rng.uniform(500, 9500, (N_OBJECTS, 2))
    return [
        UncertainObject(
            i, UniformDensity(BallRegion(centres[i], 250.0), marginal_seed=i)
        )
        for i in range(N_OBJECTS)
    ]


def _specs() -> list[RangeSpec]:
    rng = np.random.default_rng(SEED + 1)
    return [
        RangeSpec(
            Rect.from_center(rng.uniform(1500, 8500, 2), float(rng.uniform(900, 2000))),
            float(rng.choice([0.3, 0.5])),
        )
        for _ in range(N_QUERIES)
    ]


def _config(**overrides) -> ExecConfig:
    fields = dict(mc_samples=N_SAMPLES, seed=SEED, page_size=2048)
    fields.update(overrides)
    return ExecConfig(**fields)


def _timed_run(db: Database, specs) -> tuple[float, list[list[int]]]:
    """Best-of-REPEATS wall clock plus the (stable) answers."""
    best = float("inf")
    answers = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = db.run(specs)
        best = min(best, time.perf_counter() - start)
        answers = [r.object_ids for r in out.results]
    return best, answers


class TestResilienceBench:
    def test_fault_free_overhead_and_recovery_latency(self):
        specs = _specs()
        results: dict = {
            "objects": N_OBJECTS,
            "queries": N_QUERIES,
            "mc_samples": N_SAMPLES,
            "repeats": REPEATS,
            "perf_assert_armed": not SKIP_PERF,
        }

        # --- fault-free overhead ------------------------------------
        bare = Database.create(_objects(), _config())
        bare_seconds, baseline = _timed_run(bare, specs)
        bare.close()
        results["bare_batch_seconds"] = bare_seconds

        for label, overrides in (
            ("checksum", dict(checksum=True)),
            (
                "supervised",
                dict(
                    parallelism=2,
                    on_fault="degrade",
                    worker_timeout=30.0,
                ),
            ),
            (
                "full",
                dict(
                    parallelism=2,
                    on_fault="degrade",
                    worker_timeout=30.0,
                    checksum=True,
                ),
            ),
        ):
            db = Database.create(_objects(), _config(**overrides))
            seconds, answers = _timed_run(db, specs)
            db.close()
            assert answers == baseline, f"{label} run changed answers"
            results[f"{label}_batch_seconds"] = seconds
            results[f"{label}_overhead_x"] = seconds / max(bare_seconds, 1e-9)

        # The checksum path runs on the same serial backend as bare, so
        # its ratio is the honest fault-free overhead number.
        if not SKIP_PERF:
            assert results["checksum_overhead_x"] < MAX_FAULT_FREE_OVERHEAD, (
                f"fault-free checksum overhead {results['checksum_overhead_x']:.2f}x "
                f"exceeds {MAX_FAULT_FREE_OVERHEAD}x"
            )

        # --- recovery latency ---------------------------------------
        cfg = _config(
            parallelism=2,
            on_fault="degrade",
            worker_timeout=30.0,
            max_retries=2,
        )
        db = Database.create(_objects(), cfg)
        undisturbed_seconds, answers = _timed_run(db, specs)
        assert answers == baseline
        ex = db._batch_executor("utree")
        ex._ensure_pool()
        arm_chaos(ex, 0, "exit")
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedWarning)
            out = db.run(specs)
        faulted_seconds = time.perf_counter() - start
        assert [r.object_ids for r in out.results] == baseline
        assert out.batch.worker_respawns >= 1
        db.close()
        results["process_batch_seconds"] = undisturbed_seconds
        results["worker_kill_batch_seconds"] = faulted_seconds
        results["recovery_latency_seconds"] = max(
            0.0, faulted_seconds - undisturbed_seconds
        )
        results["respawns_during_recovery"] = out.batch.worker_respawns

        with open(ARTIFACT, "w") as fh:
            json.dump(results, fh, indent=2)
