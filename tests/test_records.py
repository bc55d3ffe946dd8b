"""What the record types promise: how they compare, hash and print, and
that the CLI's import path defines them without generating code."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_B, fixture_registries
from pdaudit.cli import AnalysisArtifacts, Config, _bundled, run_analysis
from pdaudit.dpv import DpvMap
from pdaudit.graph import build_call_graph, build_pdg
from pdaudit.ir import (
    AssignConst,
    AssignCopy,
    AssignFieldLoad,
    Call,
    ClassDef,
    FieldStore,
    Goto,
    If,
    MethodDef,
    Program,
    Return,
    parse_program,
)
from pdaudit.registry import (
    Lexicon,
    PersonalDataCategory,
    SanitizerRegistry,
    SinkKind,
    SinkMatch,
    SinkRegistry,
    SourceRegistry,
    label_sources,
)
from pdaudit.report import ReportConfig
from pdaudit.slicer import Slice, forward_slice
from pdaudit.taint import Status, collect_flows, propagate

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).parent / "fixtures"
NAMES = ("sources", "sinks", "sanitizers", "lexicon", "dpv")


def test_cli_import_loads_no_dataclasses_inspect_or_importlib_resources():
    """A fresh interpreter without site (which may preload modules through
    .pth files) imports pdaudit.cli and none of these modules."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pdaudit.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


STATEMENTS = [
    AssignConst("$a", "x"),
    AssignCopy("$a", "$b"),
    AssignFieldLoad("$a", "app.C", "f"),
    FieldStore("app.C", "f", "$a"),
    Call("app.C.m", ("$a",), None, "$b"),
    If("$a", 1),
    Goto(1),
    Return("$a"),
]


@pytest.mark.parametrize("s", STATEMENTS, ids=lambda s: type(s).__name__)
def test_statement_equality_is_structural_and_type_sensitive(s):
    fields = [getattr(s, f) for f in type(s).__slots__]
    copy = type(s)(*fields)
    assert copy is not s and copy == s and not copy != s
    assert repr(copy) == repr(s)
    assert repr(s).startswith(f"{type(s).__name__}(")
    with pytest.raises(TypeError):
        hash(s)
    assert not hasattr(s, "__dict__")
    others = [t for t in STATEMENTS if t is not s]
    assert all(s != t for t in others)


def test_statements_with_equal_fields_of_other_classes_differ():
    assert AssignCopy("$a", "$b") != AssignConst("$a", "$b")
    assert Return("$a") != Goto("$a")
    assert Call("app.C.m", ()) == Call("app.C.m", (), None, None)
    assert Call("app.C.m", ()) != Call("app.C.m", (), None, "$r")
    assert repr(Call("a.B.c", ("$x",), lhs="$y")) == (
        "Call(callee='a.B.c', args=('$x',), widget=None, lhs='$y')")


def test_program_equality_is_structural():
    m = MethodDef("run", "void", ("p0",), [Return(None)])
    c = ClassDef("app.C", "app.B", [("f", "app.C")], [m])
    same = ClassDef("app.C", "app.B", [("f", "app.C")],
                    [MethodDef("run", "void", ("p0",), [Return(None)])])
    assert Program([c]) == Program([same]) and repr(Program([c])) == repr(Program([same]))
    assert Program([c]) != Program([ClassDef("app.C", "app.B", [], [m])])
    assert m.key == "run/1"
    with pytest.raises(TypeError):
        hash(Program([c]))


def _flows_and_labels():
    sources, sinks, sanitizers, lexicon = fixture_registries()
    p = parse_program(FIXTURE_B)
    cg = build_call_graph(p)
    g = build_pdg(p, cg)
    labels = label_sources(p, sources, lexicon)
    return collect_flows(propagate(p, cg, labels, sanitizers), sinks, g), labels, g


def test_labels_and_flows_hash_as_their_field_tuples():
    """A frozen record hashes as the tuple of its fields, as a frozen
    dataclass did, so sets and dicts of them keep their order."""
    flows, labels, _ = _flows_and_labels()
    assert flows and labels
    for label in labels:
        assert hash(label) == hash((label.id, label.location, label.category, label.origin))
        assert hash(label.category) == hash((label.category.name, label.category.weight))
    for f in flows:
        assert hash(f) == hash((f.source, f.sink, f.status, f.witness, f.manipulations))
        assert hash(f.sink) == hash((f.sink.location, f.sink.kind, f.sink.name))


def test_registries_compare_without_canonical_text():
    cat = {"a.B.c": PersonalDataCategory("Location")}
    match = {"a.": SinkMatch(SinkKind.LOG, None)}
    one, two = "canon-1", "canon-2"
    san = frozenset({"a.B.c"})
    pairs = [
        (SourceRegistry(cat, one), SourceRegistry(dict(cat), two), SourceRegistry({}, one)),
        (SinkRegistry({}, match, one), SinkRegistry(exact={}, prefixes=dict(match)),
         SinkRegistry(match, {}, one)),
        (SanitizerRegistry(san, one), SanitizerRegistry(san), SanitizerRegistry(frozenset(), one)),
        (Lexicon(cat, one), Lexicon(cat, two), Lexicon({}, one)),
        (DpvMap({}, {}, "c", "p", one), DpvMap({}, {}, "c", "p"), DpvMap({}, {}, "c", "q", one)),
    ]
    for first, same, other in pairs:
        assert first.canonical == one
        assert first == same and first != other
        assert repr(first) == repr(same) and one not in repr(first)
    assert SourceRegistry(cat) != Lexicon(cat)  # the same fields, another class


def test_slices_compare_by_identity():
    _, labels, g = _flows_and_labels()
    s, t = forward_slice(g, labels[0]), forward_slice(g, labels[0])
    assert s.ids == t.ids and s.root == t.root
    assert s == s and s != t and len({s, t}) == 2
    assert s.nodes is s.nodes  # built once, on first use
    assert Slice(s.root, g, s.ids) != s


def test_config_and_artifacts_construct_as_the_benchmark_does():
    paths = {n: FIXTURES / "registries" / f"{n}.json" for n in NAMES}
    cfg = Config(**paths, fail_threshold=6)
    assert [getattr(cfg, n) for n in NAMES] == list(paths.values())
    assert cfg.fail_threshold == 6 and cfg.out == Path("pdaudit-out")
    assert cfg.risk == ReportConfig()
    default = Config()
    assert [getattr(default, n) for n in NAMES] == [_bundled(f"{n}.json") for n in NAMES]
    assert all(getattr(default, n).is_file() for n in NAMES)
    artifacts = run_analysis(FIXTURE_B, cfg)
    again = AnalysisArtifacts(parse_program(FIXTURE_B), artifacts.report, artifacts.dots)
    assert (again.report, again.dots) == (artifacts.report, artifacts.dots)
    assert vars(again).keys() == {"report", "dots"}  # the program is not kept


def test_report_config_defaults_are_read_only():
    with pytest.raises(TypeError):
        ReportConfig().status_mult[Status.RAW] = 9.0
    assert dict(ReportConfig().sink_mult)[SinkKind.ANALYTICS] == 3.0
