"""Run every workload on several seeds and print every metric.

    python3 bench/record.py [--out bench/baseline.json]

For each workload and seed this runs `run.py` twice, with --trace 0 (the
end-to-end metrics) and --trace 1 (the per-layer metrics), for the
`run_seconds` in BENCHMARK.json, and prints each metric by name with its
unit, the failed ratio, and each stage's share of the traced pipeline.
With --out it also writes that record, the machine facts and the
layer-to-end-to-end map to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from layers import PIPELINE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = (94304, 1, 2)  # the first is the default; claims are checked on the others too
WORKLOADS = ("desk-20k", "hierarchy-loops", "labels-dense")

# Which per-layer metric should move which end-to-end metric, on which
# workload. The run is one thread with no queues, so a faster layer saves at
# most its share of analyze_s and analyze_cpu_s.
LAYER_MAP = [
    {"layer": ["ir.parse_s"], "moves": ["analyze_s"], "on": ["hierarchy-loops"],
     "unchanged_on": ["labels-dense"]},
    {"layer": ["graph.pdg_s", "graph.edges.data_field"], "moves": ["analyze_s", "peak_rss_mb"],
     "on": ["desk-20k"], "unchanged_on": ["labels-dense"]},
    {"layer": ["taint.propagate_s"], "moves": ["analyze_s"],
     "on": ["hierarchy-loops", "desk-20k"], "unchanged_on": ["labels-dense"]},
    {"layer": ["taint.flows_s"], "moves": ["analyze_s"],
     "on": ["labels-dense", "desk-20k", "hierarchy-loops"], "unchanged_on": []},
    {"layer": ["slicer.slice_s", "report.build_s", "report.dot_s"], "moves": ["analyze_s"],
     "on": ["labels-dense", "desk-20k"], "unchanged_on": ["hierarchy-loops"]},
    {"layer": ["registry.label_s"], "moves": ["analyze_s"], "on": ["labels-dense"],
     "unchanged_on": ["desk-20k", "hierarchy-loops"]},
    {"layer": ["module import"], "moves": ["setup_s"], "on": list(WORKLOADS),
     "unchanged_on": []},
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the record to this JSON file")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record: dict = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            e2e, layers = run(workload, seed, seconds, 0), run(workload, seed, seconds, 1)
            metrics = {k: v for d in (e2e, layers) for k, v in d["metrics"].items()}
            attempted = e2e["attempted"] + layers["attempted"]
            failed = e2e["failed"] + layers["failed"]
            metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
            total = sum(metrics[f"{name}_s"]["value"] for name in PIPELINE)
            shares = {name: round(metrics[f"{name}_s"]["value"] / total, 4) for name in PIPELINE}
            record.setdefault(workload, {})[str(seed)] = {
                "correct": e2e["correct"] and layers["correct"],
                "attempted": attempted, "failed": failed,
                "metrics": metrics, "shares": shares}
            print(f"== {workload} seed {seed}: correct={e2e['correct'] and layers['correct']}")
            for name, m in metrics.items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            print("  shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.02))
            sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps({
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "system": platform.system(), "machine": platform.machine()},
            "run_seconds": seconds,
            "layer_to_end_to_end": LAYER_MAP,
            "roadmap_20k_row": {"total_s": 9.3, "note": "ROADMAP baseline, in-process, "
                                "gen_perf_program(Random(94304), 400, 50), single run"},
            "workloads": record,
        }, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for w in record.values() for r in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
