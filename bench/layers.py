"""The traced in-process run: spans around each public stage function,
called in the order of `cli.run_analysis` and `cli.write_outputs`, plus
counts read from the objects those calls return.

pdaudit itself carries no tracing; the spans are recorded here, around the
calls. A stage function that is missing, has other parameters, or is no
longer called in this order by the CLI stops the run with an error naming
it, so a metric is never dropped silently.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

# (module, name, parameters) of every function the traced run calls.
STAGES = [
    ("ir", "parse_program", ("text",)),
    ("ir", "validate", ("p",)),
    ("registry", "load_registries",
     ("sources_path", "sinks_path", "sanitizers_path", "lexicon_path")),
    ("dpv", "load_dpv_map", ("path", "categories", "sink_kinds")),
    ("graph", "build_call_graph", ("p",)),
    ("graph", "build_pdg", ("p", "cg")),
    ("registry", "label_sources", ("p", "src", "lex")),
    ("taint", "propagate", ("p", "cg", "labels", "san")),
    ("taint", "build_taint_result", ("pr", "p", "sinks", "g")),
    ("slicer", "forward_slice", ("g", "label")),
    ("report", "input_digest", ("canonical_texts",)),
    ("ir", "print_program", ("p",)),
    ("report", "build_report",
     ("p", "labels", "slices", "taint", "dpv_map", "sinks", "digest", "config")),
    ("report", "render_dot", ("s", "p", "labels", "sinks", "sanitizers")),
    ("report", "serialize_report", ("r",)),
    ("cli", "run_analysis", ("pir_text", "cfg")),
    ("cli", "write_outputs", ("artifacts", "out_dir")),
]
OTHER_NAMES = [("ir", "Severity"), ("registry", "SinkKind"), ("cli", "Config"),
               ("cli", "AnalysisArtifacts")]
# The first 14 stages are the calls cli.run_analysis makes, in its order.
RUN_ANALYSIS_ORDER = [name for _, name, _ in STAGES[:14]]

# Top-level spans of one traced run, in call order. report.serialize is
# timed outside the pipeline (write_outputs serializes again inside
# cli.write). The pipeline and the release of its objects together are
# compared with the untraced run.
PIPELINE = ["ir.parse", "ir.validate", "registry.load", "dpv.load", "graph.call_graph",
            "graph.pdg", "registry.label", "taint.propagate", "taint.flows", "slicer.slice",
            "report.digest", "report.build", "report.dot", "cli.write"]
SPANS = PIPELINE + ["ir.print", "report.serialize"]


class StageError(Exception):
    pass


def _global_names(code) -> list[str]:
    """Global names a function loads, nested comprehensions included, in
    the order they appear."""
    names = []
    for ins in dis.get_instructions(code):
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
            names.append(ins.argval)
        elif ins.opname == "LOAD_CONST" and inspect.iscode(ins.argval):
            names += _global_names(ins.argval)
    return names


def load_api() -> SimpleNamespace:
    """Resolve and check every stage function; raise StageError naming the
    first one that no longer matches."""
    api = SimpleNamespace()
    for mod, name, params in STAGES:
        fn = getattr(importlib.import_module(f"pdaudit.{mod}"), name, None)
        if fn is None:
            raise StageError(f"pdaudit.{mod}.{name} not found")
        found = tuple(inspect.signature(fn).parameters)
        if found != params:
            raise StageError(f"pdaudit.{mod}.{name} takes {found}, the traced run calls it "
                             f"with {params}")
        setattr(api, name, fn)
    for mod, name in OTHER_NAMES:
        obj = getattr(importlib.import_module(f"pdaudit.{mod}"), name, None)
        if obj is None:
            raise StageError(f"pdaudit.{mod}.{name} not found")
        setattr(api, name, obj)
    for fn, order in ((api.run_analysis, RUN_ANALYSIS_ORDER),
                      (api.write_outputs, ["serialize_report"])):
        names, at = _global_names(fn.__code__), 0
        for name in order:
            if name not in names[at:]:
                raise StageError(f"cli.{fn.__name__} no longer calls {name} in the order "
                                 "the traced run mirrors")
            at = names.index(name, at) + 1
    return api


class Tracer:
    """Spans kept in memory as (run, name, parent, start, end)."""

    def __init__(self):
        self.spans: list[tuple[int, str, str | None, float, float]] = []
        self.run = 0
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.run, name, parent, start, end))

    def durations(self, run: int) -> dict[str, float]:
        return {name: end - start for r, name, _, start, end in self.spans if r == run}


def traced_run(api, t: Tracer, pir_text: str, cfg, out_dir: Path) -> dict:
    """`cli.run_analysis` + `cli.write_outputs`, one span per stage; returns
    the counts."""
    with t.span("ir.parse"):
        program = api.parse_program(pir_text)
    with t.span("ir.validate"):
        diags = api.validate(program)
    errors = [d for d in diags if d.severity is api.Severity.ERROR]
    if errors:
        raise StageError(f"validate reported errors: {errors[:3]}")
    with t.span("registry.load"):
        sources, sinks, sanitizers, lexicon = api.load_registries(
            cfg.sources, cfg.sinks, cfg.sanitizers, cfg.lexicon)
    categories = {c.name for c in sources.entries.values()} | {
        c.name for c in lexicon.entries.values()}
    with t.span("dpv.load"):
        dpv_map = api.load_dpv_map(cfg.dpv, categories, [k.value for k in api.SinkKind])
    with t.span("graph.call_graph"):
        cg = api.build_call_graph(program)
    with t.span("graph.pdg"):
        g = api.build_pdg(program, cg)
    with t.span("registry.label"):
        labels = api.label_sources(program, sources, lexicon)
    with t.span("taint.propagate"):
        pr = api.propagate(program, cg, labels, sanitizers)
    with t.span("taint.flows"):
        taint = api.build_taint_result(pr, program, sinks, g)
    with t.span("slicer.slice"):
        slices = [api.forward_slice(g, label) for label in labels]
    with t.span("report.digest"):
        with t.span("ir.print"):
            printed = api.print_program(program)
        digest = api.input_digest(printed, *(
            json.dumps(json.loads(Path(p).read_text(encoding="utf-8")), sort_keys=True)
            for p in (cfg.sources, cfg.sinks, cfg.sanitizers, cfg.lexicon, cfg.dpv)))
    with t.span("report.build"):
        report = api.build_report(program, labels, slices, taint, dpv_map, sinks, digest,
                                  cfg.risk)
    with t.span("report.dot"):
        dots = {s.root.id: api.render_dot(s, program, labels, sinks, sanitizers)
                for s in sorted(slices, key=lambda s: s.root.id)}
    with t.span("cli.write"):
        api.write_outputs(api.AnalysisArtifacts(program, report, dots), out_dir)
    with t.span("report.serialize"):
        serialized = api.serialize_report(report)
    counts = _counts(pir_text, program, cg, g, labels, taint, slices, report, serialized, dots)
    # cli.run_analysis frees these when it returns, inside the untraced
    # run's time; the traced run frees them inside a span of its own.
    with t.span("release"):
        del (program, diags, sources, sinks, sanitizers, lexicon, dpv_map, cg, g, labels, pr,
             taint, slices, printed, report, dots, serialized)
    return counts


def untraced_run(api, pir_text: str, cfg, out_dir: Path) -> float:
    start = time.perf_counter()
    api.write_outputs(api.run_analysis(pir_text, cfg), out_dir)
    return time.perf_counter() - start


def _counts(pir_text, program, cg, g, labels, taint, slices, report, serialized, dots) -> dict:
    bodies = {(c.name, m.key): m.body for c, m in program.iter_methods()}
    stmt = lambda loc: type(bodies[(loc.cls, loc.method)][loc.index]).__name__
    edges = {k: 0 for k in ("data_local", "data_field", "control", "call", "param_in",
                            "return_out")}
    for e in g.edges:
        kind = {"Data": "data_local", "Control": "control", "Call": "call",
                "ParamIn": "param_in", "ReturnOut": "return_out"}[e.kind.value]
        if kind == "data_local" and (stmt(e.src), stmt(e.dst)) == ("FieldStore",
                                                                  "AssignFieldLoad"):
            kind = "data_field"
        edges[kind] += 1
    sizes = [len(s.nodes) for s in slices]
    return {
        "ir.stmts": sum(len(b) for b in bodies.values()),
        "ir.methods": len(bodies),
        "ir.classes": len(program.classes),
        "ir.pir_bytes": len(pir_text.encode("utf-8")),
        "registry.labels": len(labels),
        "registry.labels_user_input": sum(l.origin.kind == "UserInput" for l in labels),
        "graph.edges": len(g.edges),
        **{f"graph.edges.{k}": v for k, v in edges.items()},
        "graph.call_targets": sum(len(cg.resolved(loc)) for loc in cg.edges),
        "taint.flows": len(taint.flows),
        "taint.flows_raw": sum(f.status.name == "RAW" for f in taint.flows),
        "taint.unsunk": len(taint.unsunk),
        "taint.witness_targets": len({f.sink.location for f in taint.flows}),
        "taint.witness_steps": sum(len(f.witness) for f in taint.flows),
        "slicer.nodes_sum": sum(sizes),
        "slicer.edges_sum": sum(len(s.edges) for s in slices),
        "slicer.nodes_max": max(sizes, default=0),
        "slicer.overlap_ratio": sum(sizes) / max(1, len(set().union(*(s.nodes for s in slices)))),
        "report.findings": len(report.findings),
        "report.json_bytes": len(serialized.encode("utf-8")),
        "report.dot_bytes": sum(len(d.encode("utf-8")) for d in dots.values()),
    }


def traced_total(durations: dict[str, float]) -> float:
    """One traced run's pipeline time, to compare with an untraced run."""
    return sum(durations[name] for name in PIPELINE) + durations["release"]


def span_cost_s(n: int = 20000) -> float:
    """What one span costs the tracer, timed on empty spans."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / n


def layer_metrics(t: Tracer, runs: int, counts: dict, untraced_s: list[float]) -> dict:
    """Per-layer metrics: the median of each span over the traced runs,
    the counts, the untraced run time and the tracing overhead.

    The overhead is the cost of a run's spans over the untraced run time.
    The difference between a traced and an untraced run would measure the
    same, but it is swamped by the run-to-run spread of a shared machine
    (run.py prints it per pair)."""
    per_run = [t.durations(r) for r in range(runs)]
    out = {f"{name}_s": (statistics.median(d[name] for d in per_run), "s") for name in SPANS}
    out.update({k: (v, "ratio" if k.endswith("_ratio") else
                    "bytes" if k.endswith("_bytes") else "count") for k, v in counts.items()})
    plain = statistics.median(untraced_s)
    out["cli.run_analysis_s"] = (plain, "s")
    out["trace.overhead_ratio"] = (span_cost_s() * len(per_run[0]) / plain, "ratio")
    return out
