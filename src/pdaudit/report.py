"""Risk scoring, the deterministic audit report, DOT rendering, and the
data-safety-section draft.

Risk formula (multipliers overridable via ReportConfig):

    risk = category_weight x status_mult x sink_mult

    status_mult   Raw 2.0, Pseudonymized 1.0
    sink_mult     Analytics 3.0, ThirdParty 3.0, Network 2.0,
                  Storage 1.5, Log 1.0, no egress 0.5

The report is JSON with a fixed top-level key order (version, input_digest,
assumptions, findings, slices, data_safety, statements) and byte-identical
output for identical inputs. report.json and the human-readable summary
are both rendered from the one list of Finding records; neither is
computed independently.

report.json holds the text of ``json.dumps(report, indent=2,
ensure_ascii=False)`` of the report's JSON form, plus a newline; no dict
of that form is built, and no generic JSON encoder is used.
serialize_report writes every value straight from the records, one
template per record kind (location, label, compliance statement, finding,
slice entry, data-safety entry), where each list is one join of its own
items' texts. No chunk list the size of the output is built, and the
transient memory is about twice the output plus one text per distinct
location. Strings go through the C
``encode_basestring``, ints and floats through ``int.__repr__`` and
``float.__repr__``; a NaN or infinite float is a ValueError, as under
``allow_nan=False``.
"""

from __future__ import annotations

import hashlib
import math
from enum import Enum
from json.encoder import encode_basestring
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from . import __version__
from .dpv import ComplianceStatement, DpvMap, map_flow
from .graph import KINDS, DepGraph
from .ir import Call, Loc, Program, print_stmt
from .registry import (
    PersonalDataCategory,
    SanitizerRegistry,
    SinkKind,
    SinkRegistry,
    SourceLabel,
)
from .slicer import Slice
from .taint import Flow, Status, TaintResult


class RiskOverflowError(ValueError):
    """A category weight times its multipliers overflows to a risk that is
    not a finite float, which report.json cannot hold."""


class FindingKind(Enum):
    RAW_FLOW = "RawFlow"
    PSEUDONYMIZED_FLOW = "PseudonymizedFlow"
    COLLECTED_NO_EGRESS = "CollectedNoEgress"


_KIND_ORDER = {k: i for i, k in enumerate(FindingKind)}

ASSUMPTIONS = (
    "call graph: class-hierarchy analysis, context-insensitive",
    "fields: one abstract cell per (class, field); any store may reach any load",
    "implicit flows through branch conditions are not tracked as data taint",
    "client-side analysis only; server backends are out of scope",
    "opaque callees: result depends on all arguments, no field side effects",
    "sanitizer output is pseudonymized regardless of input status",
)


class ReportConfig(NamedTuple):
    """The risk multipliers. The defaults are read-only, since every
    ReportConfig() shares them."""

    status_mult: Mapping = MappingProxyType({Status.RAW: 2.0, Status.PSEUDONYMIZED: 1.0})
    sink_mult: Mapping = MappingProxyType({
        SinkKind.ANALYTICS: 3.0,
        SinkKind.THIRD_PARTY: 3.0,
        SinkKind.NETWORK: 2.0,
        SinkKind.STORAGE: 1.5,
        SinkKind.LOG: 1.0,
    })
    no_egress_mult: float = 0.5


class Finding(NamedTuple):
    id: str
    kind: FindingKind
    risk: float
    source: SourceLabel
    flow: Optional[Flow]
    statement: ComplianceStatement


class SliceEntry(NamedTuple):
    """One slice's entry in report.json: its root label's id and location,
    its statement count, the (class, method) pairs it touches and its sink
    statements, in Loc order."""

    label: int
    root: Loc
    node_count: int
    methods_touched: int
    sink_nodes: tuple[Loc, ...]


class AuditReport:
    def __init__(self, tool_version: str, input_digest: str, assumptions: tuple[str, ...],
                 findings: list[Finding], slices: list[SliceEntry], data_safety: dict):
        self.tool_version, self.input_digest = tool_version, input_digest
        self.assumptions, self.findings = assumptions, findings
        self.slices, self.data_safety = slices, data_safety


def risk_score(
    weight: float,
    status: Status,
    sink_kind: Optional[SinkKind],
    config: ReportConfig = ReportConfig(),
) -> float:
    mult = config.sink_mult[sink_kind] if sink_kind is not None else config.no_egress_mult
    return weight * config.status_mult[status] * mult


def check_risks_finite(categories: Iterable[PersonalDataCategory], config: ReportConfig) -> None:
    """Raise RiskOverflowError, naming the category, when any risk that
    build_report can compute for one of categories is not finite: a flow
    of either status to a sink of any kind, or raw data with no egress."""
    cases = [(s, k) for s in Status for k in SinkKind] + [(Status.RAW, None)]
    for cat in sorted(categories, key=lambda c: c.name):
        for status, kind in cases:
            if not math.isfinite(risk_score(cat.weight, status, kind, config)):
                sink = kind.value if kind is not None else "no-egress"
                raise RiskOverflowError(
                    f"risk of category {cat.name!r} is not a finite number: weight "
                    f"{cat.weight!r} x {status.name.title()} x {sink} multiplier overflows"
                )


def input_digest(*canonical_texts: str) -> str:
    h = hashlib.sha256()
    for t in canonical_texts:
        h.update(t.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def build_report(
    p: Program,
    labels: list[SourceLabel],
    slices: list[Slice],
    taint: TaintResult,
    dpv_map: DpvMap,
    sinks: SinkRegistry,
    digest: str,
    config: ReportConfig = ReportConfig(),
) -> AuditReport:
    """Assemble the deterministic audit report from one program's slices
    and taint result. Each finding, with its compliance statement, each
    slice entry and the data-safety draft are built once, and the report
    is built once from them.

    p and labels are not read, and stay only because the traced benchmark
    (bench/layers.py) pins this signature."""
    raw_findings: list[tuple[float, FindingKind, int, Loc, SourceLabel, Optional[Flow]]] = []
    for f in taint.flows:
        kind = (
            FindingKind.PSEUDONYMIZED_FLOW
            if f.status is Status.PSEUDONYMIZED
            else FindingKind.RAW_FLOW
        )
        risk = risk_score(f.source.category.weight, f.status, f.sink.kind, config)
        raw_findings.append((risk, kind, f.source.id, f.sink.location, f.source, f))
    for label in taint.unsunk:
        risk = risk_score(label.category.weight, Status.RAW, None, config)
        raw_findings.append(
            (risk, FindingKind.COLLECTED_NO_EGRESS, label.id, label.location, label, None)
        )

    raw_findings.sort(key=lambda t: (-t[0], _KIND_ORDER[t[1]], t[2], t[3]))
    findings = [
        Finding(f"F{n}", kind, risk, source, flow,
                map_flow(source if flow is None else flow, dpv_map))
        for n, (risk, kind, _, _, source, flow) in enumerate(raw_findings)
    ]

    slice_entries = []
    for s in sorted(slices, key=lambda s: s.root.id):
        # s.ids is in Loc order, so its sink nodes are too
        locs, table = s.graph.locs, s.graph.sink_table(sinks)
        slice_entries.append(SliceEntry(
            s.root.id,
            s.root.location,
            len(s.ids),
            len({(locs[i].cls, locs[i].method) for i in s.ids}),
            tuple(locs[i] for i in s.ids if i in table),
        ))

    return AuditReport(
        tool_version=__version__,
        input_digest=digest,
        assumptions=ASSUMPTIONS,
        findings=findings,
        slices=slice_entries,
        data_safety=draft_data_safety(findings),
    )


def draft_data_safety(findings: list[Finding]) -> dict:
    """Per-category collection/sharing/security summary of findings,
    built once per report by build_report.

    A category counts as secured by pseudonymisation only when it has at
    least one flow and every flow is pseudonymized; data that never leaves
    the app gets no security claim."""
    by_cat: dict[str, dict] = {}
    for f in findings:
        cat = f.source.category.name
        entry = by_cat.setdefault(
            cat, {"collected": True, "shared_with": set(), "flows": [], "network": False}
        )
        if f.flow is not None:
            sink = f.flow.sink
            entry["flows"].append(f)
            if sink.kind in (SinkKind.THIRD_PARTY, SinkKind.ANALYTICS) and sink.name:
                entry["shared_with"].add(sink.name)
            if sink.kind is SinkKind.NETWORK:
                entry["network"] = True
    draft = {}
    for cat in sorted(by_cat):
        entry = by_cat[cat]
        shared = sorted(entry["shared_with"])
        if entry["network"]:
            shared.append("network")
        flows = entry["flows"]
        secured = bool(flows) and all(
            f.kind is FindingKind.PSEUDONYMIZED_FLOW for f in flows
        )
        draft[cat] = {
            "collected": True,
            "shared_with": shared,
            "security": "pseudonymised" if secured else None,
        }
    return draft


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _float_json(value: float) -> str:
    """A float as json.dumps writes it; NaN and infinities are a
    ValueError, as under allow_nan=False."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _str_or_null(text: Optional[str]) -> str:
    return "null" if text is None else encode_basestring(text)


def _list_text(item_texts: Iterable[str], indent: str, brackets: str = "[]") -> str:
    """The JSON list of the given item texts, starting on a line indented
    by indent; with brackets "{}", the JSON object whose items (key and
    value texts) they are. The brackets go onto the first and last item,
    so that a long list's text is made in one join, with no copy of it."""
    texts = list(item_texts)
    if not texts:
        return brackets
    inner = "\n" + indent + "  "
    texts[0] = brackets[0] + inner + texts[0]
    texts[-1] += "\n" + indent + brackets[1]
    return ("," + inner).join(texts)


class _Texts(dict):
    """key -> render(key), rendered on the first lookup and kept for the
    rest of one serialize_report call."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _loc_text(loc: Loc, indent: str) -> str:
    i = indent + "  "
    return (f'{{\n{i}"class": {encode_basestring(loc.cls)},\n{i}"method": '
            f'{encode_basestring(loc.method)},\n{i}"index": {int.__repr__(loc.index)}\n{indent}}}')


def _label_text(label: SourceLabel, loc8: _Texts) -> str:
    """A finding's source, at indent 6."""
    origin = label.origin
    extra = (
        f',\n          "widget": {_str_or_null(origin.widget)},'
        f'\n          "keyword": {_str_or_null(origin.keyword)}'
        if origin.kind == "UserInput" else ""
    )
    return (f'{{\n        "id": {int.__repr__(label.id)},'
            f'\n        "location": {loc8[label.location]},'
            f'\n        "category": {encode_basestring(label.category.name)},'
            f'\n        "origin": {{\n          "kind": {encode_basestring(origin.kind)}{extra}'
            f'\n        }}\n      }}')


def _statement_text(st: ComplianceStatement, loc10: _Texts) -> str:
    """A finding's compliance statement, at indent 6."""
    prov = st.provenance
    if prov[0] == "flow":
        prov_text = (f'"flow",\n          "source": {int.__repr__(prov[1])},'
                     f'\n          "sink": {loc10[prov[2]]}')
    else:
        prov_text = f'"collection",\n          "label": {int.__repr__(prov[1])}'
    status = "Pseudonymized" if st.status is Status.PSEUDONYMIZED else "Raw"
    return (f'{{\n        "personal_data": {encode_basestring(st.personal_data)},'
            f'\n        "processing": {encode_basestring(st.processing)},'
            f'\n        "recipient": {_str_or_null(st.recipient)},'
            f'\n        "measures": {_list_text(map(encode_basestring, st.measures), " " * 8)},'
            f'\n        "status": "{status}",'
            f'\n        "provenance": {{\n          "kind": {prov_text}\n        }}\n      }}')


def _finding_text(f: Finding, statement: str, loc8: _Texts, label6: _Texts) -> str:
    """A finding, at indent 4, holding its statement's text."""
    flow = f.flow
    if flow is None:
        egress = 'null,\n      "witness": null,\n      "manipulations": null'
    else:
        sink = flow.sink
        egress = (f'{{\n        "location": {loc8[sink.location]},'
                  f'\n        "kind": {encode_basestring(sink.kind.value)},'
                  f'\n        "name": {_str_or_null(sink.name)}\n      }},'
                  f'\n      "witness": {_list_text(map(loc8.__getitem__, flow.witness), " " * 6)},'
                  f'\n      "manipulations": '
                  f'{_list_text(map(encode_basestring, flow.manipulations), " " * 6)}')
    return (f'{{\n      "id": {encode_basestring(f.id)},'
            f'\n      "kind": {encode_basestring(f.kind.value)},'
            f'\n      "risk": {_float_json(f.risk)},'
            f'\n      "source": {label6[f.source]},'
            f'\n      "sink": {egress},'
            f'\n      "statement": {statement}\n    }}')


def _slice_text(e: SliceEntry, loc6: _Texts, loc8: _Texts) -> str:
    """A slice entry, at indent 4."""
    return (f'{{\n      "label": {int.__repr__(e.label)},'
            f'\n      "root": {loc6[e.root]},'
            f'\n      "node_count": {int.__repr__(e.node_count)},'
            f'\n      "methods_touched": {int.__repr__(e.methods_touched)},'
            f'\n      "sink_nodes": {_list_text(map(loc8.__getitem__, e.sink_nodes), " " * 6)}'
            f'\n    }}')


def _data_safety_text(category: str, entry: dict) -> str:
    """One category's data-safety entry, key and value, at indent 4."""
    return (f'{encode_basestring(category)}: {{'
            f'\n      "collected": {"true" if entry["collected"] else "false"},'
            f'\n      "shared_with": '
            f'{_list_text(map(encode_basestring, entry["shared_with"]), " " * 6)},'
            f'\n      "security": {_str_or_null(entry["security"])}\n    }}')


def _record_texts(r: AuditReport) -> tuple[list[str], list[str], list[str]]:
    """The texts of r's findings, of their statements, at indent 4, and of
    its slice entries. A location's text is made once per indent it
    appears at, and a source label's once; these memos are dropped on
    return, before the lists are joined."""
    loc6 = _Texts(lambda loc: _loc_text(loc, " " * 6))
    loc8 = _Texts(lambda loc: _loc_text(loc, " " * 8))
    loc10 = _Texts(lambda loc: _loc_text(loc, " " * 10))
    label6 = _Texts(lambda label: _label_text(label, loc8))
    statements = [_statement_text(f.statement, loc10) for f in r.findings]
    findings = [_finding_text(f, st, loc8, label6) for f, st in zip(r.findings, statements)]
    return findings, statements, [_slice_text(e, loc6, loc8) for e in r.slices]


def serialize_report(r: AuditReport) -> str:
    """report.json's text: ``json.dumps(report, indent=2,
    ensure_ascii=False)`` of the report's JSON form, plus a newline.

    Every value is written straight from the records, one template per
    record kind, with no generic encoder: the findings and statements from
    the Finding records, the slices from the SliceEntry records and the
    data-safety draft per category. Each statement's text is written once,
    into its finding, and the top-level statements list is those texts
    shifted two spaces left: encoded text holds no newline but the
    structural ones."""
    findings, statements, slices = _record_texts(r)
    findings = _list_text(findings, "  ")
    statements = _list_text(statements, " " * 4).replace("\n  ", "\n")
    slices = _list_text(slices, "  ")
    data_safety = _list_text(
        [_data_safety_text(cat, entry) for cat, entry in r.data_safety.items()], "  ", "{}"
    )
    return "".join((
        '{\n  "version": {\n    "schema": 1,\n    "tool": ', encode_basestring(r.tool_version),
        '\n  },\n  "input_digest": ', encode_basestring(r.input_digest),
        ',\n  "assumptions": ', _list_text(map(encode_basestring, r.assumptions), "  "),
        ',\n  "findings": ', findings,
        ',\n  "slices": ', slices,
        ',\n  "data_safety": ', data_safety,
        ',\n  "statements": ', statements,
        "\n}\n",
    ))


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


_EDGE_TAILS = tuple(f' [label="{k.value}"];' for k in KINDS)  # by kind code


def _dot_escape(text: str) -> str:
    if "\\" in text or '"' in text:
        return text.replace("\\", "\\\\").replace('"', '\\"')
    return text


def _dot_nodes(
    g: DepGraph,
    labels: list[SourceLabel],
    sinks: SinkRegistry,
    sanitizers: SanitizerRegistry,
) -> tuple[frozenset[int], bytearray, dict[int, tuple[str, str]]]:
    """g's DOT node state for labels, sinks and sanitizers: (ids of the
    labelled statements, seen, kept). seen[i] is 1 once node i's line has
    been rendered, and kept[i] holds its (quoted DOT id, node line) from
    its second rendering on.

    render_dot runs once per slice with the same graph, labels and
    registries, so the state is kept on g and started afresh when asked
    with others. A line is kept only once a second slice holds its node:
    where slices barely overlap, keeping every line would hold a copy of
    the graph's text for nothing."""
    key = (labels, g.sink_table(sinks), sanitizers.entries)
    memo = vars(g).get("_dot_nodes")
    if memo is None or memo[0] != key:
        label_ids = frozenset(g.id_of(l.location) for l in labels) - {None}
        memo = vars(g)["_dot_nodes"] = (
            (list(labels), *key[1:]), label_ids, bytearray(len(g.locs)), {}
        )
    return memo[1:]


def render_dot(
    s: Slice,
    p: Program,
    labels: list[SourceLabel],
    sinks: SinkRegistry,
    sanitizers: SanitizerRegistry,
) -> str:
    """A byte-stable DOT digraph of one slice. Node kinds: source (labelled
    statement), sink (registry match), sanitizer, normal; precedence in
    that order when one statement qualifies twice.

    Each (class, field) cell with a store and a load in the slice is one
    node, ``"<class>.<field>"`` with shape=cylinder and kind="field", with a
    Data edge from each of its stores and to each of its loads; the
    store -> load pairs it stands for are not written. A statement's DOT id
    always holds a ":", so no cell id equals one. Lines come in this order:
    statement nodes in id (= Loc) order; cell nodes in the order of their
    first store; per statement, its explicit edges in (dst Loc, kind)
    order, then its edge to its cell; per cell, its edges to its loads, in
    id order.

    s must be closed under out-edges, as forward_slice's slices are: every
    out-edge of a slice node, and every load of a cell the slice stores
    to, is then in the slice, so the edges come from g.closed_cell_edges
    and none is tested against the slice. A slice that is not closed gets
    edges to nodes outside it.

    A statement's line does not depend on the slice, and overlapping slices
    hold the same statement many times, so a line rendered a second time is
    kept on the graph (_dot_nodes) and later slices reuse it. Sink kinds
    come from g.sink_table(sinks), shared with flows and slice entries.

    Statements are read from s.graph; p is not read, and stays only because
    the traced benchmark (bench/layers.py) pins this signature."""
    g = s.graph
    label_ids, seen, kept = _dot_nodes(g, labels, sinks, sanitizers)
    locs, stmts, table = g.locs, g.stmts, g.sink_table(sinks)
    lines = [f'digraph "slice_{s.root.id}" {{', "  node [shape=box];"]
    add = lines.append
    quoted: dict[int, str] = {}  # node or cell id -> its quoted DOT id
    for i in s.ids:
        hit = kept.get(i)
        if hit is None:
            loc, stmt = locs[i], stmts[i]
            kind = (
                "source" if i in label_ids
                else "sink" if i in table
                else "sanitizer" if type(stmt) is Call and stmt.callee in sanitizers
                else "normal"
            )
            q = '"' + _dot_escape(f"{loc.cls}.{loc.method}:{loc.index}") + '"'
            label = _dot_escape(f"{loc.cls}.{loc.method.split('/')[0]}:{loc.index}: "
                                f"{print_stmt(stmt)}")
            hit = q, f'  {q} [label="{label}", kind="{kind}"];'
            if seen[i]:
                kept[i] = hit
            seen[i] = 1
        quoted[i] = hit[0]
        add(hit[1])
    cells, edges = g.closed_cell_edges(s.ids)
    for c in cells:
        name = _dot_escape(".".join(g.cell_field(c)))
        quoted[c] = q = f'"{name}"'
        add(f'  {q} [label="{name}", shape=cylinder, kind="field"];')
    for i, j, k in edges:
        add(f"  {quoted[i]} -> {quoted[j]}{_EDGE_TAILS[k]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Text summary (rendered from the Finding records report.json is written from)
# ---------------------------------------------------------------------------

_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


def summarize(r: AuditReport, color: bool = False) -> str:
    """Human-readable summary of a report: one line per finding, read from
    the same Finding records serialize_report writes report.json from."""

    def paint(text: str, code: str) -> str:
        return f"{code}{text}{_RESET}" if color else text

    lines = [f"pdaudit report (digest {r.input_digest[:12]})"]
    if not r.findings:
        lines.append("no findings: no personal data sources detected")
    for f in r.findings:
        src = f.source
        if f.kind is FindingKind.COLLECTED_NO_EGRESS:
            desc = f"{src.category.name} collected at {src.location}, never reaches a sink"
            code = _GREEN
        else:
            sink = f.flow.sink
            kind = sink.kind.value
            desc = f"{src.category.name} -> {sink.name or kind} ({kind}) at {sink.location}"
            if f.kind is FindingKind.PSEUDONYMIZED_FLOW:
                desc += ", pseudonymized on all paths"
                code = _YELLOW
            else:
                desc += ", RAW on some path"
                code = _RED
        lines.append(paint(f"  [{f.id}] risk {f.risk:g}: {desc}", code))
    lines.append(f"{len(r.findings)} finding(s)")
    return "\n".join(lines) + "\n"
