"""The embedded workloads: lb-batch and congau-exact.

One caller drives a ``Database`` in this process in a closed loop (the next
call is issued when the previous one returns).  Between the read calls the
caller re-reports objects (delete + insert of an object moved a little) at
a steady pace, 320 per run, which times the embedded write path.  The
measured time is split into four blocks, and after the second and the
fourth block the database is set up once more (timed, then discarded).
Reads, writes and the three set-ups behind ``setup_s`` thus each sample the
whole run: the reference machine's speed drifts over tens of seconds, and a
metric taken from one moment of a run would carry that drift.  A speed
probe runs before every call (outside its timing), and each call's time is
scaled to the reference speed by the probes around it (``measure.py``).

A correctness gate outside every timed region re-checks a seeded sample of
the answers against a scan-only ``Database`` built from the same objects and
config, replaying the writes on it in the same order so each answer is
checked against the object set it was computed on, and finally checks
queries around moved objects.  Ids are compared with ``==``.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback

from repro import Database, RangeSpec, Rect
from repro.uncertainty.montecarlo import SampleCache

import measure
import workloads as wl
from layers import PER_LAYER_UNITS, Submissions, engine_recorder, layer_values

# name -> (points, objects, config, pdf family, specs per run call, warm-up calls)
WORKLOADS = {
    "lb-batch": (wl.lb_points, wl.lb_objects, wl.lb_config, "uniform", 8, 8),
    "congau-exact": (wl.ca_points, wl.ca_objects, wl.congau_config, "congau", 1, 100),
}

BLOCKS = 4
WRITES_PER_BLOCK = 80
SETUP_AFTER_BLOCKS = (1, 3)  # with the first set-up: SETUP_REPEATS in all
GATE_SAMPLE = 24  # timed answers re-checked against the scan reference
POST_WRITE_CHECKS = 8  # queries around moved objects, checked at the end


class ClosedLoop:
    """What one run did and observed, in order."""

    def __init__(self, db, stream, batch, movers, points, pdf, rng) -> None:
        self.db = db
        self.stream = stream
        self.batch = batch
        self.movers = list(movers)
        self.points = points
        self.pdf = pdf
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.executed: list[tuple] = []  # (writes applied before, spec, ids)
        self.moved: list[tuple] = []  # (oid, obj, point), in write order
        self.probe = measure.SpeedProbe()
        self.latencies: list[float] = []
        self.read_ticks: list[int] = []  # probe index before each read
        self.write_latencies: list[float] = []
        self.write_ticks: list[int] = []

    def block(self, seconds: float, writes: int) -> tuple[int, int]:
        """Read calls for ``seconds`` with ``writes`` re-reports spread evenly
        among them; returns the range of ``latencies`` the block added."""
        first = len(self.latencies)
        written = 0
        start = time.perf_counter()
        now = start
        while now - start < seconds or written < writes:
            if written < writes and written <= writes * (now - start) / seconds:
                self.rereport()
                written += 1
            else:
                self.read()
            now = time.perf_counter()
        return first, len(self.latencies)

    def read(self) -> None:
        specs = self.stream.take(self.batch)
        self.attempted += len(specs)
        tick = self.probe.tick()
        t0 = time.perf_counter()
        try:
            result = self.db.run(specs)
        except Exception:  # noqa: BLE001 - a failed call is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += len(specs)
            return
        self.latencies.append(time.perf_counter() - t0)
        self.read_ticks.append(tick)
        epoch = len(self.moved)
        for spec, res in zip(specs, result.results):
            self.executed.append((epoch, spec, res.object_ids))

    def rereport(self) -> None:
        oid = int(self.movers.pop())
        point = wl.move(self.points[oid], self.rng)
        obj = wl.moved_object(oid, point, self.pdf)
        self.attempted += 1
        tick = self.probe.tick()
        t0 = time.perf_counter()
        try:
            removed = self.db.delete(oid)
            self.db.insert(obj)
        except Exception:  # noqa: BLE001
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        self.write_latencies.append(time.perf_counter() - t0)
        self.write_ticks.append(tick)
        if removed is None:
            self.failed += 1
        self.moved.append((oid, obj, point))


def run(workload: str, seed: int, seconds: float, trace: bool, trace_path) -> dict:
    points_fn, objects_fn, config_fn, pdf, batch, warmup_calls = WORKLOADS[workload]
    points = points_fn()
    objects = objects_fn(points)
    config = config_fn()
    recorder = engine_recorder(Submissions()) if trace else None

    def build():
        return Database.create(objects, config)

    setup_times: list[float] = []
    setup_raw: list[float] = []
    if trace:
        recorder.phase = "build"
        recorder.install()
    db = measure.timed_build(build, setup_times, setup_raw)
    if trace:
        recorder.uninstall()

    # Warm-up, before any write: its paper counters (node accesses, pages,
    # P_app, validated, results) depend on the seed alone, and their digest
    # shows that they repeat exactly from run to run.
    warm = wl.SpecStream(points, wl.child_rng(seed, 0))
    digest_rows = []
    for _ in range(warmup_calls):
        for res in db.run(warm.take(batch)).results:
            digest_rows.append(measure.paper_counters(res.stats))

    rng = wl.child_rng(seed, 2)
    movers = rng.choice(len(objects), size=BLOCKS * WRITES_PER_BLOCK, replace=False)
    stream = wl.SpecStream(points, wl.child_rng(seed, 1))
    state = ClosedLoop(db, stream, batch, movers, points, pdf, rng)
    # Traced runs trace the middle two blocks (untraced, traced, traced,
    # untraced): a linear drift in speed, such as a cache still filling,
    # cancels out of the rate difference that is the tracing overhead.
    blocks = []
    for block in range(BLOCKS):
        traced = trace and block in (1, 2)
        if traced:
            recorder.phase = "measure"
            recorder.install()
        blocks.append((traced, *state.block(seconds / BLOCKS, WRITES_PER_BLOCK)))
        if traced:
            recorder.uninstall()
        if not trace and block in SETUP_AFTER_BLOCKS:
            measure.timed_build(build, setup_times, setup_raw).close()
            gc.collect()
    reads = state.probe.scaled(state.latencies, state.read_ticks)
    writes = state.probe.scaled(state.write_latencies, state.write_ticks)
    # queries answered and reference-speed seconds spent reading, per kind of block
    rates = {False: [0, 0.0], True: [0, 0.0]}
    for traced, lo, hi in blocks:
        rates[traced][0] += batch * (hi - lo)
        rates[traced][1] += sum(reads[lo:hi])

    post_specs = [
        RangeSpec(Rect.from_center(point, 500.0), wl.THRESHOLDS[i % len(wl.THRESHOLDS)])
        for i, (_, _, point) in enumerate(state.moved[:POST_WRITE_CHECKS])
    ]
    post_answers = [db.query(spec).object_ids for spec in post_specs]
    peak_rss = measure.peak_rss_mb()
    db.close()
    del db, state.db
    gc.collect()

    checked = _gate(objects, config, state, post_specs, post_answers, seed)

    info = {
        "workload": workload, "seed": seed, "objects": len(objects),
        "read_samples": len(state.latencies), "write_samples": len(state.write_latencies),
        "queries": rates[False][0] + rates[True][0], "gate_checked": checked,
        "mismatches": state.mismatches,
        "counters_digest": measure.counters_digest(digest_rows),
        "setup_runs_s": setup_times, "setup_runs_raw_s": setup_raw,
        "probe_median_ms": measure.median(state.probe.ms),
        "raw": {"qps": batch * len(state.latencies) / sum(state.latencies),
                "p50_ms": measure.percentile_ms(state.latencies, 50),
                "write_iqm_ms": measure.iqm_ms(state.write_latencies)},
    }
    if workload == "congau-exact":
        cloud_bytes = len(objects) * config.mc_samples * wl.CLOUD_BYTES_PER_SAMPLE
        info["cloud_bytes_over_cache_budget"] = cloud_bytes / SampleCache.DEFAULT_MAX_BYTES

    if trace:
        recorder.dump(trace_path)
        values = layer_values(recorder.spans)
        untraced_qps = rates[False][0] / rates[False][1]
        traced_qps = rates[True][0] / rates[True][1]
        values["trace.overhead_frac"] = 1.0 - traced_qps / untraced_qps
        metrics = {name: measure.metric(values[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": measure.metric(measure.median(setup_times), "s"),
            "qps": measure.metric(rates[False][0] / rates[False][1], "1/s"),
            "p50_ms": measure.metric(measure.percentile_ms(reads, 50), "ms"),
            "p90_ms": measure.metric(measure.percentile_ms(reads, 90), "ms"),
            "write_iqm_ms": measure.metric(measure.iqm_ms(writes), "ms"),
            "write_p90_ms": measure.metric(measure.percentile_ms(writes, 90), "ms"),
            "success_rate": measure.metric(
                1.0 - state.failed / max(state.attempted, 1), "frac"),
            "peak_rss_mb": measure.metric(peak_rss, "MiB"),
        }
    return {"attempted": state.attempted, "failed": state.failed,
            "correct": state.failed == 0, "metrics": metrics, "info": info}


def _gate(objects, config, state: ClosedLoop, post_specs, post_answers, seed) -> int:
    """Re-check a seeded sample of answers against a scan-only database that
    replays the writes in order; returns the number of answers checked."""
    rng = wl.child_rng(seed, 3)
    executed = state.executed
    picks = rng.choice(len(executed), size=min(GATE_SAMPLE, len(executed)), replace=False)
    checks = sorted((executed[int(i)] for i in picks), key=lambda c: c[0])
    checks.append((len(state.moved), None, None))  # sentinel: apply every write
    reference = Database.create(objects, config, methods=("scan",))
    try:
        applied = 0
        for epoch, spec, ids in checks:
            for oid, obj, _ in state.moved[applied:epoch]:
                reference.delete(oid)
                reference.insert(obj)
            applied = epoch
            if spec is not None and sorted(reference.query(spec).object_ids) != sorted(ids):
                state.mismatches += 1
        state.attempted += len(post_specs)
        for spec, ids in zip(post_specs, post_answers):
            if sorted(reference.query(spec).object_ids) != sorted(ids):
                state.mismatches += 1
    finally:
        reference.close()
    state.failed += state.mismatches
    return len(checks) - 1 + len(post_specs)
