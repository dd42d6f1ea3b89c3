"""The server process of the served-mixed workload.

Builds the LB reference database, starts a ``QueryServer`` on an ephemeral
localhost port and prints one ``{"ready": ...}`` JSON line.  It then takes
commands, one per line on standard input, and answers each with one JSON
line on standard output:

* ``trace on`` / ``trace off`` — install or remove the span recorder;
* ``mark`` — start counting the admission queue's counters from here;
* ``report`` — peak RSS, the queue's counters since ``mark``, the set-up
  times (an untraced run sets up twice more first) and, when traced, the
  server-side per-layer values (spans are written to ``--trace-path``);
* ``stop`` — stop the server and exit.

Run by ``served.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import Database, QueryServer  # noqa: E402

import measure  # noqa: E402
import workloads as wl  # noqa: E402
from layers import Submissions, add_serve_targets, engine_recorder, layer_values  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-path", default="")
    args = parser.parse_args()

    objects = wl.lb_objects(wl.lb_points())
    config = wl.served_config()
    recorder = None
    create_times: list[float] = []
    create_raw: list[float] = []

    def build():
        return Database.create(objects, config)

    if args.trace:
        submissions = Submissions()
        recorder = engine_recorder(submissions)
        add_serve_targets(recorder, submissions)
        recorder.phase = "build"
        recorder.install()
    db = measure.timed_build(build, create_times, create_raw)
    if recorder is not None:
        recorder.uninstall()
    probes = [measure.probe_ms() for _ in range(measure.SETUP_PROBES)]
    start = time.perf_counter()
    server = QueryServer(db, host="127.0.0.1", port=0).start()
    start_s = time.perf_counter() - start
    start_s *= measure.REFERENCE_PROBE_MS / measure.median(probes)
    reply({"ready": server.port, "start_s": start_s})

    baseline: dict = {}
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                recorder.phase = "measure"
                recorder.install()
                reply({"ok": True})
            elif command == "trace off":
                recorder.uninstall()
                reply({"ok": True})
            elif command == "mark":
                baseline = server.queue.stats()
                reply({"ok": True})
            elif command == "report":
                now = server.queue.stats()
                queue_stats = {key: now[key] - baseline.get(key, 0) for key in
                               ("requests", "batches", "cross_client_batches", "busy_rejections")}
                out = {"peak_rss_mb": measure.peak_rss_mb(), "queue": queue_stats}
                if recorder is None:
                    # The other set-ups behind setup_s, after the load, so
                    # that the set-ups of a run sample its whole length.
                    for _ in range(measure.SETUP_REPEATS - 1):
                        measure.timed_build(build, create_times, create_raw).close()
                out["create_s"] = create_times
                out["create_raw_s"] = create_raw
                out["setup_s"] = measure.median(create_times) + start_s
                if recorder is not None:
                    recorder.dump(args.trace_path)
                    out["layers"] = layer_values(recorder.spans, served=True,
                                                 queue_stats=queue_stats)
                reply(out)
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        if recorder is not None:
            recorder.uninstall()
        server.stop(timeout=1.0)
    return 0


def reply(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
