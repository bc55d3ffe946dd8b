"""Scale trend record: `pdaudit analyze` end to end at 10k, 20k, 40k and
100k statements, written to BENCH_<n>.json at the repository root.

    python tests/scale_record.py <n>

Each size is tests/regen_goldens.py:perf_inputs with n_methods = N / 50
(the criterion-8 draw, 50 statements per method). For each size, RUNS
`python -m pdaudit.cli analyze` children run one after another with
PYTHONPATH=src and one PYTHONHASHSEED, and the record keeps their medians
of wall time, user+sys CPU and peak RSS, taken from os.wait4, next to the
output's size: DOT bytes and files, report.json bytes and findings. The
output_digest of every run must be equal, else the script exits 1.

Before any timed child, the package is byte-compiled into a private
PYTHONPYCACHEPREFIX and one untimed analyze fills it with the standard
library modules a run imports, so no timed child compiles source; the
script exits 1 if a timed child wrote to that cache. A record is a trend,
not a gate: tier-1 does not collect this file and CI does not run it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"
SIZES = (10_000, 20_000, 40_000, 100_000)
RUNS = 3
HASH_SEED = "0"

sys.path[:0] = [str(TESTS), str(SRC)]
from regen_goldens import FIXTURES, analyze_args, output_digest, perf_inputs  # noqa: E402


def _cache_files(prefix: Path) -> list[str]:
    return sorted(str(p.relative_to(prefix)) for p in prefix.rglob("*.pyc"))


def _child(argv: list[str], env: dict) -> tuple[float, float, float]:
    """Run `python -m pdaudit.cli <argv>` to exit 0; (wall s, CPU s, peak RSS MB)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "pdaudit.cli", *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    if proc.returncode != 0:
        raise SystemExit(f"analyze exited {proc.returncode}: {stderr.decode(errors='replace')}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024  # KiB on Linux


def _outputs(out: Path) -> dict:
    dots = sorted(out.glob("slice_*.dot"))
    report = out / "report.json"
    return {
        "dot_bytes": sum(f.stat().st_size for f in dots),
        "dot_files": len(dots),
        "report_bytes": report.stat().st_size,
        "findings": len(json.loads(report.read_text(encoding="utf-8"))["findings"]),
        "output_digest": output_digest(out),
    }


def measure(work: Path, env: dict, n_stmts: int) -> dict:
    """The record row of one size: RUNS children on one input."""
    tmp = work / str(n_stmts)
    tmp.mkdir()
    program, argv = perf_inputs(tmp, n_methods=n_stmts // 50)
    out = Path(argv[argv.index("--out") + 1])
    walls, cpus, rsss, digests = [], [], [], set()
    for _ in range(RUNS):
        shutil.rmtree(out, ignore_errors=True)
        wall, cpu, rss = _child(argv, env)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        outputs = _outputs(out)
        digests.add(outputs["output_digest"])
    if len(digests) != 1:
        raise SystemExit(f"{n_stmts} statements: output_digest differs across runs: {digests}")
    row = {
        "statements": sum(len(m.body) for _, m in program.iter_methods()),
        "methods": n_stmts // 50,
        "wall_s": round(statistics.median(walls), 3),
        "cpu_s": round(statistics.median(cpus), 3),
        "peak_rss_mb": round(statistics.median(rsss), 2),
        **outputs,
        "runs": {"wall_s": [round(w, 3) for w in walls], "cpu_s": [round(c, 3) for c in cpus],
                 "peak_rss_mb": [round(r, 2) for r in rsss]},
    }
    shutil.rmtree(tmp)
    return row


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python tests/scale_record.py <n>   (writes BENCH_<n>.json)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        prefix = work / "pycache"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED,
                   PYTHONPYCACHEPREFIX=str(prefix), PDAUDIT_NO_COLOR="1")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "pdaudit")],
                       env=env, check=True)
        _child(analyze_args(FIXTURES / "b.pir", work / "warm"), env)
        cached = _cache_files(prefix)
        rows = []
        for n in SIZES:
            rows.append(measure(work, env, n))
            print(f"{n:>7} statements: {rows[-1]['wall_s']} s wall, "
                  f"{rows[-1]['peak_rss_mb']} MB peak RSS", file=sys.stderr)
        if _cache_files(prefix) != cached:
            print("a timed child compiled source", file=sys.stderr)
            return 1
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hash_seed": HASH_SEED,
        "runs_per_size": RUNS,
        "program": "tests/regen_goldens.py:perf_inputs, n_methods = statements / 50",
        "sizes": rows,
    }
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
