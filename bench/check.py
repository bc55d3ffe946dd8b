"""Correctness gate for one `pdaudit analyze` output directory.

Every expectation comes from the workload generator, never from pdaudit:
the planted flows, the label count, and the exit code the threshold forces.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import PlantedFlow

Loc = tuple[str, str, int]
# planted source location -> {(finding kind, sink location)}
Expected = dict[Loc, set[tuple[str, Loc]]]


def expected_flows(planted: list[PlantedFlow]) -> Expected:
    return {p.source: {(p.kind, p.sink)} for p in planted}


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    """Every file `analyze` wrote, by name."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def digest(artifacts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(artifacts.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _loc(d: dict) -> Loc:
    return (d["class"], d["method"], d["index"])


def check_planted(findings: list[dict], expected: Expected) -> list[str]:
    """Each planted source has exactly its expected findings, and each
    planted sink receives exactly the expected flows. The idioms use fresh
    locals, so nothing else can reach them."""
    by_source: dict[Loc, set] = {}
    by_sink: dict[Loc, set] = {}
    for f in findings:
        src = _loc(f["source"]["location"])
        sink = _loc(f["sink"]["location"]) if f["sink"] is not None else None
        by_source.setdefault(src, set()).add((f["kind"], sink))
        if sink is not None:
            by_sink.setdefault(sink, set()).add((f["kind"], src))
    problems = []
    for src, want in sorted(expected.items()):
        got = by_source.get(src, set())
        if got != want:
            problems.append(f"planted source {src}: expected {sorted(want)}, "
                            f"got {sorted(got, key=str)}")
        for kind, sink in want:
            got_sink = by_sink.get(sink, set())
            if got_sink != {(kind, src)}:
                problems.append(f"planted sink {sink}: expected {kind} from {src}, "
                                f"got {sorted(got_sink, key=str)}")
    return problems


def check_run(artifacts: dict[str, bytes], exit_code: int, want_exit: int,
              labels: int, expected: Expected) -> list[str]:
    """All problems with one run's exit code and output files."""
    problems = []
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    if "report.json" not in artifacts:
        return problems + ["no report.json"]
    report = json.loads(artifacts["report.json"])
    slice_ids = {s["label"] for s in report["slices"]}
    if len(report["slices"]) != labels:
        problems.append(f"{len(report['slices'])} labels, generator emitted {labels}")
    unreported = slice_ids - {f["source"]["id"] for f in report["findings"]}
    if unreported:
        problems.append(f"labels without a finding: {sorted(unreported)[:5]}")
    dots = set(artifacts) - {"report.json"}
    if dots != {f"slice_{i}.dot" for i in slice_ids}:
        problems.append(f"{len(dots)} DOT files for {len(slice_ids)} labels")
    return problems + check_planted(report["findings"], expected)
