"""The served-mixed workload: two closed-loop clients against a server process.

``serve_child.py`` runs the ``QueryServer`` over the LB reference objects in
its own process.  This process runs two ``ServeClient`` connections on two
threads; each sends its next request when the previous reply arrives.  Of
the operations, 90 % are one-spec reads (half on 16 hot district
rectangles, half fresh; half with ``probs=True``) and 10 % re-reports
(``delete`` then ``insert`` of the same oid moved a little).  Each client
re-reports only its own oids (even or odd).  The server runs without a WAL,
so no write is logged or fsync'd.  Each client takes a speed probe before
every operation (outside its timing); latencies are scaled to the reference
speed by the client's probes around them, throughput by all probes taken in
each second of the run (``measure.py``).

After the load, a correctness gate re-sends a seeded sample of the reads
with ``probs=True`` and compares ids and P_app with ``==`` against a local
scan-only ``Database`` built from the final object set.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from repro import Database, ServeClient

import measure
import workloads as wl
from layers import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
CLIENTS = 2
WRITE_SHARE = 0.1
HOT_SHARE = 0.5
PROBS_SHARE = 0.5
WARMUP_OPS = 24  # per client, before the clock starts
GATE_SAMPLE = 24
REPLY_TIMEOUT = 150.0  # seconds to wait for the server process to answer


class ServerProcess:
    """The child server: start, line commands with replies, stop."""

    def __init__(self, trace: bool, trace_path: Path):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), "--trace", str(int(trace)),
             "--trace-path", str(trace_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def reply(self) -> dict:
        try:
            line = self._lines.get(timeout=REPLY_TIMEOUT)
        except queue.Empty:
            raise RuntimeError("server process did not answer in time") from None
        if not line:
            raise RuntimeError(f"server process exited (code {self._proc.poll()})")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self._proc.stdin.write(text + "\n")
        self._proc.stdin.flush()
        return self.reply()

    def stop(self) -> None:
        try:
            if self._proc.poll() is None:
                self._proc.stdin.write("stop\n")
                self._proc.stdin.flush()
                self._proc.stdin.close()
            self._proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        self._reader.join(timeout=5)


class LoadClient:
    """One connection's closed loop and everything it observed."""

    def __init__(self, index: int, port: int, seed: int, points, hot, state):
        self.client = ServeClient("127.0.0.1", port)
        self.rng = wl.child_rng(seed, 20 + index)
        self.fresh = wl.SpecStream(points, wl.child_rng(seed, 30 + index))
        self.hot = hot
        self.state = state
        self.owned = [oid for oid in range(len(points)) if oid % CLIENTS == index]
        self.probe = measure.SpeedProbe()
        self.tick = 0  # index of the probe taken before the current operation
        self.read_latencies: list[float] = []
        self.read_ticks: list[int] = []
        self.write_latencies: list[float] = []
        self.write_ticks: list[int] = []
        self.completions: list[float] = []
        self.reads: list = []
        self.attempted = 0
        self.failed = 0
        self.broken = False

    def _read_op(self) -> None:
        rng = self.rng
        if rng.random() < HOT_SHARE:
            spec = self.hot[rng.integers(len(self.hot))]
        else:
            spec = self.fresh.next()
        probs = bool(rng.random() < PROBS_SHARE)
        t0 = time.perf_counter()
        served = self.client.run([spec], probs=probs)
        done = time.perf_counter()
        if len(served.results) != 1 or (probs and served.probs[0] is None):
            raise RuntimeError("malformed served reply")
        self.read_latencies.append(done - t0)
        self.read_ticks.append(self.tick)
        self.completions.append(done)
        self.reads.append(spec)

    def _write_op(self) -> None:
        rng = self.rng
        oid = self.owned[rng.integers(len(self.owned))]
        point = wl.move(self.state.points[oid], rng)
        obj = wl.moved_object(oid, point, "uniform")
        t0 = time.perf_counter()
        deleted = self.client.delete(oid)
        self.state.objects.pop(oid, None)
        self.client.insert(obj)
        done = time.perf_counter()
        self.state.objects[oid] = obj
        self.state.points[oid] = point
        if not deleted:
            raise RuntimeError(f"re-report of {oid}: object was not present")
        self.write_latencies.append(done - t0)
        self.write_ticks.append(self.tick)
        self.completions.append(done)

    def loop(self, until: float | None = None, ops: int | None = None) -> None:
        count = 0
        while not self.broken:
            if until is not None and time.perf_counter() >= until:
                break
            if ops is not None and count >= ops:
                break
            count += 1
            self.attempted += 1
            self.tick = self.probe.tick()
            try:
                if self.rng.random() < WRITE_SHARE:
                    self._write_op()
                else:
                    self._read_op()
            except (ConnectionError, OSError):
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                self.broken = True
            except Exception:  # noqa: BLE001 - BUSY, error replies, wrong shapes
                traceback.print_exc(file=sys.stderr)
                self.failed += 1


class ObjectState:
    """The object set as the clients left it (each client owns its oids)."""

    def __init__(self, points, objects):
        self.points = points.copy()
        self.objects = {obj.oid: obj for obj in objects}


def _drive(clients, **kwargs) -> None:
    threads = [threading.Thread(target=c.loop, kwargs=kwargs) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run(seed: int, seconds: float, trace: bool, trace_path: Path) -> dict:
    # The load process and the server process it starts share one CPU.
    # Spread over both vCPUs, throughput moved from run to run with the
    # host's load far more than the speed probe did (README, Steadiness).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    points = wl.lb_points()
    objects = wl.lb_objects(points)
    hot = wl.hot_specs(points)
    state = ObjectState(points, objects)
    server = ServerProcess(trace, trace_path.with_name(trace_path.stem + "-server.jsonl"))
    clients: list[LoadClient] = []
    try:
        ready = server.reply()
        port = ready["ready"]
        clients = [LoadClient(i, port, seed, points, hot, state) for i in range(CLIENTS)]
        _drive(clients, ops=WARMUP_OPS)
        for c in clients:
            c.read_latencies.clear()
            c.read_ticks.clear()
            c.write_latencies.clear()
            c.write_ticks.clear()
            c.completions.clear()
            c.reads.clear()
        server.command("mark")

        blocks = []
        if trace:
            # The middle two of four blocks are traced while the clients keep
            # going, so a linear drift in speed cancels out of the overhead.
            start = time.perf_counter()
            end = start + seconds
            threads = [threading.Thread(target=c.loop, kwargs={"until": end}) for c in clients]
            for t in threads:
                t.start()
            edge = start
            for traced in (False, True, True, False):
                server.command("trace on" if traced else "trace off")
                block_start = time.perf_counter()
                time.sleep(max(0.0, edge + seconds / 4 - block_start))
                edge = time.perf_counter()
                blocks.append((traced, block_start, edge))
            server.command("trace off")
            for t in threads:
                t.join()
        else:
            start = time.perf_counter()
            _drive(clients, until=start + seconds)
        end = time.perf_counter()
        report = server.command("report")

        checked, mismatches = _gate(clients[0], state, seed,
                                    [spec for c in clients for spec in c.reads])
    finally:
        for c in clients:
            c.client.close()
        server.stop()

    attempted = sum(c.attempted for c in clients) + checked
    failed = sum(c.failed for c in clients) + mismatches
    reads = [x for c in clients for x in c.probe.scaled(c.read_latencies, c.read_ticks)]
    writes = [x for c in clients for x in c.probe.scaled(c.write_latencies, c.write_ticks)]
    completions = [x for c in clients for x in c.completions]
    probes = [c.probe for c in clients]
    info = {
        "workload": "served-mixed", "seed": seed, "objects": len(objects),
        "clients": CLIENTS, "read_samples": len(reads), "write_samples": len(writes),
        "gate_checked": checked, "mismatches": mismatches,
        "setup_runs_s": report["create_s"], "setup_runs_raw_s": report["create_raw_s"],
        "server_start_s": ready["start_s"], "queue": report["queue"],
        "probe_median_ms": measure.median([ms for p in probes for ms in p.ms]),
        "raw": {"qps": len(completions) / (end - start),
                "p50_ms": measure.percentile_ms(
                    [x for c in clients for x in c.read_latencies], 50),
                "write_iqm_ms": measure.iqm_ms(
                    [x for c in clients for x in c.write_latencies])},
    }
    if trace:
        values = report["layers"]
        rates = {False: [0, 0.0], True: [0, 0.0]}
        for traced, lo, hi in blocks:
            rates[traced][0] += sum(1 for t in completions if lo <= t < hi)
            rates[traced][1] += measure.scaled_span(probes, lo, hi)
        values["trace.overhead_frac"] = 1.0 - (rates[True][0] / rates[True][1]) / (
            rates[False][0] / rates[False][1])
        metrics = {name: measure.metric(values[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": measure.metric(report["setup_s"], "s"),
            "qps": measure.metric(
                len(completions) / measure.scaled_span(probes, start, end), "1/s"),
            "p50_ms": measure.metric(measure.percentile_ms(reads, 50), "ms"),
            "p90_ms": measure.metric(measure.percentile_ms(reads, 90), "ms"),
            "write_iqm_ms": measure.metric(measure.iqm_ms(writes), "ms"),
            "write_p90_ms": measure.metric(measure.percentile_ms(writes, 90), "ms"),
            "success_rate": measure.metric(1.0 - failed / max(attempted, 1), "frac"),
            "peak_rss_mb": measure.metric(report["peak_rss_mb"], "MiB"),
        }
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "metrics": metrics, "info": info}


def _gate(load: LoadClient, state: ObjectState, seed: int, reads: list) -> tuple[int, int]:
    """Served ids and P_app against a local scan-only database of the final objects."""
    rng = wl.child_rng(seed, 3)
    picks = rng.choice(len(reads), size=min(GATE_SAMPLE, len(reads)), replace=False)
    specs = [reads[int(i)] for i in sorted(picks)]
    reference = Database.create(list(state.objects.values()), wl.served_config(), methods=("scan",))
    mismatches = 0
    try:
        for spec in specs:
            try:
                served = load.client.run([spec], probs=True)
            except Exception:  # noqa: BLE001 - a failed check is a mismatch
                traceback.print_exc(file=sys.stderr)
                mismatches += 1
                continue
            ids = served.results[0].object_ids
            expected = reference.query(spec).object_ids
            probs = reference.probabilities(spec.rect, ids) if ids else {}
            if sorted(ids) != sorted(expected) or served.probs[0] != probs:
                mismatches += 1
    finally:
        reference.close()
    return len(specs), mismatches
