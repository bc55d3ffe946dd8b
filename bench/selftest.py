"""Dry run of the correctness gate: it must pass on a real `pdaudit
analyze` output and fail on every deliberately wrong expectation.

    python3 bench/selftest.py

Uses small versions of the three workload shapes, so it takes seconds.
Nothing under src/ is changed.
"""

from __future__ import annotations

import random
import shutil
import sys
import time

from check import check_run
from run import ROOT, Inputs, analyze
from workloads import gen_desk, gen_hierarchy, gen_labels

SMALL = {
    "desk": lambda rng: gen_desk(rng, n_methods=40, n_sources=20, hub_sources=2),
    "hierarchy": lambda rng: gen_hierarchy(rng, n_trees=2),
    "labels": lambda rng: gen_labels(rng, n_forms=3),
}


def mutations(app, expected, arts):
    """(what was broken, arguments to check_run) for each wrong expectation."""
    src = sorted(expected)[0]
    kind, sink = next(iter(expected[src]))
    flipped = "RawFlow" if kind == "PseudonymizedFlow" else "PseudonymizedFlow"
    dot = sorted(a for a in arts if a.endswith(".dot"))[0]
    yield "planted sink removed", (arts, 1, 1, app.labels, {**expected, src: set()})
    yield "planted kind flipped", (arts, 1, 1, app.labels, {**expected, src: {(flipped, sink)}})
    yield "label count off by one", (arts, 1, 1, app.labels + 1, expected)
    yield "exit code expected 0", (arts, 1, 0, app.labels, expected)
    yield "a DOT file missing", ({k: v for k, v in arts.items() if k != dot}, 1, 1, app.labels,
                                 expected)


def main() -> int:
    ok = True
    for name, gen in SMALL.items():
        work = ROOT / ".bench_work" / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            inputs = Inputs(work, gen(random.Random(name)))
            child, arts = analyze(inputs, "app.pir", work / "out", 0, time.perf_counter() + 120)
            found = check_run(arts, child.exit_code, 1, inputs.app.labels, inputs.expected)
            print(f"{name}: true expectations -> {'PASS' if not found else f'FAIL {found}'}")
            ok &= not found
            for what, check_args in mutations(inputs.app, inputs.expected, arts):
                caught = check_run(*check_args)
                print(f"{name}: {what} -> {'caught' if caught else 'MISSED'}")
                ok &= bool(caught)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
