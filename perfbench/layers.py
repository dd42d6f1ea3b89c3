"""Which engine calls the traced run wraps, and the per-layer metrics.

Every target is a public function or method of one layer, wrapped where
it is looked up at run time.  The one private name is
``repro.serve.protocol._recv_exact``: ``recv_frame`` blocks on the socket
until the next request arrives, and its first ``_recv_exact`` (the frame
header) is that idle wait, which ``serve.decode_ms`` leaves out.
"""

from __future__ import annotations

import threading
import time

import numpy as np

import repro.core.utree as utree_mod
import repro.exec.batch as batch_mod
import repro.exec.executor as executor_mod
from repro import Database
from repro.core.filterkernel import CFBFilterKernel
from repro.core.pruning import CFBRules, PCRRules
from repro.core.utree import UTree
from repro.exec.batch import BatchExecutor
from repro.exec.executor import QueryExecutor
from repro.storage.pager import DataFile
from repro.uncertainty.montecarlo import SampleCache

from spans import Recorder, SpanIndex

MEASURE = ("measure",)
BUILD = ("build",)


class Submissions:
    """Submit times of served specs, so a batch can tell how long they queued."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_id: dict[int, tuple] = {}

    def add(self, specs, ctx: int) -> None:
        now = time.perf_counter()
        with self._lock:
            for spec in specs:
                self._by_id[id(spec)] = (spec, ctx, now)

    def take(self, spec):
        with self._lock:
            entry = self._by_id.pop(id(spec), None)
        return entry if entry is not None and entry[0] is spec else None


def _cloud_before(args):
    cache = args[0]
    return cache.misses, cache.evictions


def _cloud_after(args, result, state, start, ctx):
    cache = args[0]
    return {"miss": cache.misses > state[0], "evictions": cache.evictions - state[1]}


def _run_after(submissions: Submissions):
    def after(args, result, state, start, ctx):
        extra = {
            "queries": 0, "nodes": 0, "pages": 0, "papp": 0, "memo_probs": 0,
            "validated": 0, "results": 0, "memo_hits": 0, "batch_papp": 0,
            "logical_pages": 0, "page_fetches": 0, "waits": [], "requests": [],
        }
        for res in result.results:
            st = res.stats
            extra["queries"] += 1
            extra["nodes"] += st.node_accesses
            extra["pages"] += st.data_page_reads
            extra["papp"] += st.prob_computations
            extra["memo_probs"] += st.memoized_probs
            extra["validated"] += st.validated_directly
            extra["results"] += st.result_count
        for batch in result.batches.values():
            extra["memo_hits"] += batch.memo_hits
            extra["batch_papp"] += batch.prob_computations
            extra["logical_pages"] += batch.logical_data_page_reads
            extra["page_fetches"] += batch.data_page_fetches
        specs = args[1] if len(args) > 1 else []
        for spec in specs:
            entry = submissions.take(spec)
            if entry is not None:
                extra["waits"].append(start - entry[2])
                extra["requests"].append(entry[1])
        return extra

    return after


def engine_recorder(submissions: Submissions) -> Recorder:
    """A recorder over the build, filter, storage, exec and cloud layers."""
    rec = Recorder()
    rec.add(Database, "run", "api.run", new_context=True, after=_run_after(submissions))
    rec.add(Database, "insert", "api.insert", new_context=True)
    rec.add(Database, "delete", "api.delete", new_context=True)
    rec.add(Database, "probabilities", "serve.probs")
    rec.add(utree_mod, "compute_pcrs", "core.compute_pcrs")
    rec.add(utree_mod, "fit_cfbs", "core.fit_cfbs")
    rec.add(UTree, "insert", "index.insert", new_context=True)
    rec.add(UTree, "delete", "index.delete")
    rec.add(UTree, "filter_candidates", "core.filter")
    rec.add(utree_mod, "subtree_may_qualify", "core.descent")
    rec.add(CFBFilterKernel, "classify", "core.classify")
    rec.add(CFBRules, "apply", "core.classify")
    rec.add(PCRRules, "apply", "core.classify")
    rec.add(DataFile, "read_page", "storage.read_page")
    rec.add(DataFile, "read", "storage.read_page")
    rec.add(batch_mod, "refine_with_engine", "exec.refine")
    rec.add(executor_mod, "refine_with_engine", "exec.refine")
    rec.add(BatchExecutor, "run", "exec.batch")
    rec.add(QueryExecutor, "execute", "exec.batch")
    rec.add(SampleCache, "get", "uncertainty.cloud_get", before=_cloud_before, after=_cloud_after)
    return rec


def add_serve_targets(rec: Recorder, submissions: Submissions) -> None:
    """The server-side call sites (installed in the server process only)."""
    import repro.serve.protocol as protocol_mod
    import repro.serve.server as server_mod
    from repro.serve.queue import AdmissionQueue, ReadWriteLock

    def submit_after(args, result, state, start, ctx):
        submissions.add(result.specs, ctx)
        return None

    rec.add(server_mod, "recv_frame", "serve.recv_frame", new_context=True)
    rec.add(protocol_mod, "_recv_exact", "serve.recv_exact")
    rec.add(server_mod, "spec_from_doc", "serve.spec_from_doc")
    rec.add(server_mod, "result_doc", "serve.result_doc")
    rec.add(server_mod, "send_frame", "serve.send_frame")
    rec.add(AdmissionQueue, "submit", "serve.submit", after=submit_after)
    rec.add(ReadWriteLock, "acquire_read", "serve.read_lock_wait")
    rec.add(ReadWriteLock, "acquire_write", "serve.write_lock_wait")


# Every per-layer metric: name -> unit (order = BENCHMARK.json order).
PER_LAYER_UNITS = {
    "core.fit_ms_per_object": "ms/object",
    "index.insert_ms_per_object": "ms/object",
    "index.delete_ms": "ms",
    "core.filter_ms_per_query": "ms/query",
    "core.descent_calls_per_query": "calls/query",
    "core.descent_ms_per_query": "ms/query",
    "core.classify_ms_per_query": "ms/query",
    "core.node_accesses_per_query": "nodes/query",
    "core.candidates_per_query": "objects/query",
    "core.validated_frac": "frac",
    "storage.data_pages_per_query": "pages/query",
    "storage.read_page_ms_per_query": "ms/query",
    "exec.refine_ms_per_query": "ms/query",
    "exec.papp_per_query": "count/query",
    "exec.memo_hit_rate": "frac",
    "exec.pages_saved_frac": "frac",
    "exec.batch_self_ms": "ms/run",
    "api.run_self_ms": "ms/run",
    "uncertainty.cloud_hit_rate": "frac",
    "uncertainty.cloud_draw_ms_per_miss": "ms",
    "uncertainty.cloud_evictions": "count",
    "serve.decode_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.read_lock_wait_ms": "ms",
    "serve.write_lock_wait_ms": "ms",
    "serve.exec_ms_per_batch": "ms",
    "serve.probs_ms": "ms",
    "serve.requests_per_batch": "count",
    "serve.cross_client_frac": "frac",
    "serve.busy_rejections": "count",
    "trace.overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_ms(index: SpanIndex, name: str, phases) -> float:
    picked = index.select(name, phases)
    return 1000.0 * _ratio(sum(index.duration(s) for s in picked), len(picked))


def layer_values(spans: list[tuple], *, served: bool = False,
                 queue_stats: dict | None = None) -> dict[str, float]:
    """Per-layer values from one process's spans (every metric but the
    trace overhead, which needs both the traced and untraced rates)."""
    index = SpanIndex(spans)
    out: dict[str, float] = {}

    inserts = index.select("index.insert", BUILD)
    fit = index.total("core.compute_pcrs", BUILD) + index.total("core.fit_cfbs", BUILD)
    out["core.fit_ms_per_object"] = 1000.0 * _ratio(fit, len(inserts))
    out["index.insert_ms_per_object"] = 1000.0 * _ratio(
        sum(index.self_time(s) for s in inserts), len(inserts))
    out["index.delete_ms"] = _mean_ms(index, "index.delete", MEASURE)

    runs = index.select("api.run", MEASURE)
    extras = [s[7] for s in runs if s[7] is not None]

    def tally(key: str) -> float:
        return float(sum(e[key] for e in extras))

    queries = tally("queries")

    def per_query_ms(name: str) -> float:
        return 1000.0 * _ratio(index.total(name, MEASURE), queries)

    out["core.filter_ms_per_query"] = per_query_ms("core.filter")
    descents = index.select("core.descent", MEASURE)
    out["core.descent_calls_per_query"] = _ratio(len(descents), queries)
    out["core.descent_ms_per_query"] = per_query_ms("core.descent")
    out["core.classify_ms_per_query"] = per_query_ms("core.classify")
    out["core.node_accesses_per_query"] = _ratio(tally("nodes"), queries)
    out["core.candidates_per_query"] = _ratio(tally("papp") + tally("memo_probs"), queries)
    out["core.validated_frac"] = _ratio(tally("validated"), tally("results"))
    out["storage.data_pages_per_query"] = _ratio(tally("pages"), queries)
    out["storage.read_page_ms_per_query"] = per_query_ms("storage.read_page")
    out["exec.refine_ms_per_query"] = per_query_ms("exec.refine")
    out["exec.papp_per_query"] = _ratio(tally("papp"), queries)
    out["exec.memo_hit_rate"] = _ratio(tally("memo_hits"), tally("memo_hits") + tally("batch_papp"))
    out["exec.pages_saved_frac"] = _ratio(
        tally("logical_pages") - tally("page_fetches"), tally("logical_pages"))
    out["exec.batch_self_ms"] = 1000.0 * _ratio(
        index.total("exec.batch", MEASURE, self_only=True), len(runs))
    out["api.run_self_ms"] = 1000.0 * _ratio(
        index.total("api.run", MEASURE, self_only=True), len(runs))

    gets = index.select("uncertainty.cloud_get", MEASURE)
    misses = [s for s in gets if s[7] is not None and s[7]["miss"]]
    out["uncertainty.cloud_hit_rate"] = _ratio(len(gets) - len(misses), len(gets))
    out["uncertainty.cloud_draw_ms_per_miss"] = 1000.0 * _ratio(
        sum(index.duration(s) for s in misses), len(misses))
    out["uncertainty.cloud_evictions"] = float(
        sum(s[7]["evictions"] for s in gets if s[7] is not None))

    for name in PER_LAYER_UNITS:
        if name.startswith("serve."):
            out[name] = 0.0
    if served:
        out.update(_serve_values(index, extras, queue_stats or {}))
    return out


def _serve_values(index: SpanIndex, extras: list[dict], queue_stats: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    # decode: a request's recv_frame minus its header read (the idle wait
    # for the client's next frame), plus turning the docs into specs.
    frames = [s for s in index.select("serve.recv_frame", MEASURE) if index.children.get(s[0])]
    decode = 0.0
    for frame in frames:
        header = min(index.children[frame[0]], key=lambda c: c[2])
        decode += index.duration(frame) - index.duration(header)
    decode += index.total("serve.spec_from_doc", MEASURE)
    out["serve.decode_ms"] = 1000.0 * _ratio(decode, len(frames))
    sends = index.select("serve.send_frame", MEASURE)
    encode = index.total("serve.result_doc", MEASURE) + sum(index.duration(s) for s in sends)
    out["serve.encode_ms"] = 1000.0 * _ratio(encode, len(sends))
    waits = [w for e in extras for w in e["waits"]]
    out["serve.queue_wait_p50_ms"] = 1000.0 * float(np.percentile(waits, 50)) if waits else 0.0
    out["serve.queue_wait_p99_ms"] = 1000.0 * float(np.percentile(waits, 99)) if waits else 0.0
    out["serve.read_lock_wait_ms"] = _mean_ms(index, "serve.read_lock_wait", MEASURE)
    out["serve.write_lock_wait_ms"] = _mean_ms(index, "serve.write_lock_wait", MEASURE)
    out["serve.exec_ms_per_batch"] = _mean_ms(index, "api.run", MEASURE)
    out["serve.probs_ms"] = _mean_ms(index, "serve.probs", MEASURE)
    batches = queue_stats.get("batches", 0)
    out["serve.requests_per_batch"] = _ratio(queue_stats.get("requests", 0), batches)
    out["serve.cross_client_frac"] = _ratio(queue_stats.get("cross_client_batches", 0), batches)
    out["serve.busy_rejections"] = float(queue_stats.get("busy_rejections", 0))
    return out
