"""Benchmark for `pdaudit analyze` on generated apps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pdaudit checkout; the program is run from `src/`
there. The workload (see workloads.py) is generated from the seed into
`.bench_work/`, which is removed afterwards.

--trace 0 measures what a user sees, for about S seconds. It runs
`pdaudit analyze` on the workload, one child process at a time, and
between those children batches of set-up runs: `pdaudit analyze` on a
one-statement app, which times interpreter start, imports and the five
registry files. Wall time, user+sys CPU and peak RSS come from `os.wait4`
of each child.

--trace 1 gives the per-layer numbers: one CLI child, then pairs of a
traced and an untraced in-process run (layers.py), alternating which goes
first, for at least two pairs and as many as end within S seconds.

Every run is checked (check.py) and a run that fails a check is counted in
`failed`. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from check import check_run, digest, expected_flows, read_artifacts  # noqa: E402
from workloads import FAIL_THRESHOLD, GENERATORS, Workload, generate, registry_files  # noqa: E402

SETUP_BATCH = 8
MIN_RUNS = 2  # byte-identity needs two outputs to compare
MIN_PAIRS = 2  # traced-first and untraced-first
RUN_LIMIT_S = 170  # a run must end within 180 s
TINY_PIR = ("class bench.Tiny extends java.lang.Object {\n"
            "  method void main() {\n    0: return\n  }\n}\n")
REGISTRIES = ("sources", "sinks", "sanitizers", "lexicon", "dpv")


class Inputs:
    """The generated app, the registry files and the CLI command lines."""

    def __init__(self, work: Path, app: Workload):
        self.work = work
        self.app = app
        self.expected = expected_flows(self.app.planted)
        work.mkdir(parents=True)
        (work / "app.pir").write_text(self.app.text, encoding="utf-8")
        (work / "tiny.pir").write_text(TINY_PIR, encoding="utf-8")
        self.registry_paths = {}
        for name, data in registry_files().items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(data, indent=1), encoding="utf-8")
            self.registry_paths[name] = path

    def argv(self, pir: str, out: Path) -> list[str]:
        flags = [a for name in REGISTRIES for a in (f"--{name}", str(self.registry_paths[name]))]
        return [sys.executable, "-m", "pdaudit.cli", "analyze", str(self.work / pir), *flags,
                "--out", str(out), "--fail-threshold", str(FAIL_THRESHOLD)]


class Child:
    """One `pdaudit analyze` child: exit code, wall, CPU and peak RSS."""

    def __init__(self, argv: list[str], hash_seed: int, deadline: float, stderr: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed),
                   PDAUDIT_NO_COLOR="1")
        with open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=err)
            # A child that overruns the run's time limit is killed; no threads.
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(max(1, int(deadline - time.perf_counter())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.stderr = stderr.read_text(encoding="utf-8", errors="replace")
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def analyze(inputs: Inputs, pir: str, out: Path, hash_seed: int, deadline: float
            ) -> tuple[Child, dict[str, bytes]]:
    shutil.rmtree(out, ignore_errors=True)
    child = Child(inputs.argv(pir, out), hash_seed, deadline, inputs.work / "stderr.txt")
    return child, read_artifacts(out) if out.is_dir() else {}


def percentile_line(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"{name}: median {statistics.median(values):.4f} {unit}, n={n}"
    if n >= 11:
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} {unit}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text


def end_to_end(inputs: Inputs, seconds: float, deadline: float
               ) -> tuple[dict, dict[str, list[str]]]:
    problems: dict[str, list[str]] = {}
    setup: list[float] = []
    children: list[Child] = []

    def set_up(rep: int) -> float:
        child, arts = analyze(inputs, "tiny.pir", inputs.work / "tiny-out", rep, deadline)
        problems[f"set-up run {rep}"] = check_run(arts, child.exit_code, 0, 0, {})
        return child.wall_s

    set_up(0)  # fills the bytecode cache; not timed
    # Batches of set-up runs alternate with the analyze children, so both
    # are sampled over the whole run and see the same drift of the machine.
    out = inputs.work / "out"
    first = None
    stop = time.perf_counter() + seconds
    while True:
        batch_start = time.perf_counter()
        for _ in range(SETUP_BATCH):
            setup.append(set_up(len(setup) + 1))
        batch_s = time.perf_counter() - batch_start
        # Stop at the step boundary nearest to `stop`.
        step_s = batch_s + statistics.median([c.wall_s for c in children] or [0])
        now = time.perf_counter()
        if len(children) >= MIN_RUNS and (now + step_s / 2 > stop or now + step_s > deadline):
            break
        child, arts = analyze(inputs, "app.pir", out, len(children), deadline)
        found = check_run(arts, child.exit_code, 1, inputs.app.labels, inputs.expected)
        this = digest(arts)
        first = first or this
        if this != first:
            found.append("output bytes differ from the first run")
        if child.stderr:
            found.append(f"stderr: {child.stderr.strip()[:300]}")
        problems[f"run {len(children)}"] = found
        print(f"run {len(children)}: exit {child.exit_code} wall {child.wall_s:.4f} s "
              f"cpu {child.cpu_s:.4f} s rss {child.rss_mb:.1f} MB "
              f"{'ok' if not found else 'FAILED'}")
        children.append(child)
    walls = [c.wall_s for c in children]
    print(percentile_line("setup_s", setup, "s"))
    print(percentile_line("analyze_s", walls, "s"))
    print(percentile_line("analyze_cpu_s", [c.cpu_s for c in children], "s"))
    print(percentile_line("peak_rss_mb", [c.rss_mb for c in children], "MB"))
    failed = sum(bool(found) for found in problems.values())
    print(f"failed_ratio: {failed}/{len(problems)} = {failed / len(problems):.4f} ratio")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "analyze_s": (statistics.median(walls), "s"),
        "analyze_cpu_s": (statistics.median(c.cpu_s for c in children), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
    }
    return metrics, problems


def per_layer(inputs: Inputs, seconds: float, deadline: float
              ) -> tuple[dict, dict[str, list[str]]]:
    sys.path.insert(0, str(SRC))
    api = layers.load_api()
    stop = time.perf_counter() + seconds
    child, arts = analyze(inputs, "app.pir", inputs.work / "out", 0, deadline)
    problems = {"cli run": check_run(arts, child.exit_code, 1, inputs.app.labels,
                                     inputs.expected)}
    want = digest(arts)
    cfg = api.Config(**inputs.registry_paths, fail_threshold=FAIL_THRESHOLD)
    pir_text = (inputs.work / "app.pir").read_text(encoding="utf-8")
    t = layers.Tracer()
    untraced: list[float] = []
    counts: dict = {}
    pair_s = 0.0
    while len(untraced) < MIN_PAIRS or (time.perf_counter() + pair_s <= stop and
                                        time.perf_counter() + pair_s < deadline):
        start = time.perf_counter()
        # Alternate which run goes first, and collect garbage before each,
        # so that neither pays for the other's garbage or for drift.
        order = ("traced", "untraced") if t.run % 2 == 0 else ("untraced", "traced")
        for name in order:
            out = inputs.work / name
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            if name == "traced":
                counts = layers.traced_run(api, t, pir_text, cfg, out)
            else:
                untraced.append(layers.untraced_run(api, pir_text, cfg, out))
            same = digest(read_artifacts(out)) == want
            problems[f"{name} run {t.run}"] = [] if same else ["artifacts differ from the CLI run"]
        t.run += 1
        pair_s = time.perf_counter() - start
    for run, name, parent, start, end in t.spans:
        print(f"span run={run} {name} parent={parent} {end - start:.6f} s")
    for run, plain in enumerate(untraced):
        traced = layers.traced_total(t.durations(run))
        print(f"pair {run}: traced {traced:.4f} s, untraced {plain:.4f} s, "
              f"difference {(traced - plain) / plain:+.4f} ratio")
    return layers.layer_metrics(t, t.run, counts, untraced), problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=94304)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pdaudit" / "cli.py").is_file():
        print(f"bench: {SRC / 'pdaudit'} not found; run from a pdaudit checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = Inputs(work, generate(args.workload, args.seed))
        measure = per_layer if args.trace else end_to_end
        metrics, problems = measure(inputs, args.seconds, deadline)
    except layers.StageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [run for run, found in problems.items() if found]
    for run in failed:
        print(f"CHECK FAILED {run}: " + "; ".join(problems[run]))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
