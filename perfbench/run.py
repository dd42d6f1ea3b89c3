"""The reference benchmark of the U-tree engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lb-batch --seed 1 --seconds 12 --trace 0

Workloads: ``lb-batch``, ``congau-exact`` and ``served-mixed`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that records spans around the engine's
layers and reports the per-layer metrics (span files go to
``perfbench/out/``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it (``{"info": ...}``) holds sample counts, the counters
digest, the set-up times behind ``setup_s``, the unscaled timings and the
speed probe (see ``measure.py``) taken at the start and the end of the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lb-batch", "congau-exact", "served-mixed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    trace = bool(args.trace)
    probe_start = measure.probe_ms()
    if args.workload == "served-mixed":
        import served

        report = served.run(args.seed, args.seconds, trace, trace_path)
    else:
        import embedded

        report = embedded.run(args.workload, args.seed, args.seconds, trace, trace_path)
    report["info"]["cpu_probe_ms"] = [probe_start, measure.probe_ms()]

    print(json.dumps({"info": report["info"]}))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
