import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_A, FIXTURE_B
from gen import gen_program, gen_roundtrip_program
from oracles import reference_parse
from pdaudit.cli import _read_pir
from pdaudit.graph import build_call_graph, build_pdg
from pdaudit.ir import (
    AssignCall,
    AssignConst,
    Call,
    DuplicateClassError,
    Goto,
    InvalidTargetError,
    ParseError,
    PirError,
    Program,
    Return,
    Severity,
    parse_program,
    print_program,
    validate,
)


def test_empty_input_is_empty_program():
    assert parse_program("") == Program([])
    assert print_program(Program([])) == ""


def test_fixture_a_shape():
    p = parse_program(FIXTURE_A)
    assert len(p.classes) == 1
    cls = p.classes[0]
    assert cls.name == "com.app.Main"
    assert cls.superclass == "android.app.Activity"
    assert len(cls.methods) == 1
    m = cls.methods[0]
    assert m.key == "onCreate/0"
    assert len(m.body) == 3
    s0 = m.body[0]
    assert isinstance(s0, AssignCall)
    assert s0.callee == "android.widget.EditText.getText"
    assert s0.widget == "email_input"
    s1 = m.body[1]
    assert isinstance(s1, Call)
    assert s1.callee == "com.analytics.Tracker.log"
    assert s1.args == ("$e",)
    assert isinstance(m.body[2], Return)


def test_fixture_b_shape():
    p = parse_program(FIXTURE_B)
    m = p.classes[0].methods[0]
    assert m.params == ("p0",)
    assert len(m.body) == 7
    assert isinstance(m.body[3], Goto) and m.body[3].target == 5


def test_goto_out_of_range_is_invalid_target():
    src = """\
class C extends D {
  method void f() {
    0: $a = "x"
    1: goto 9
    2: return
  }
}
"""
    with pytest.raises(InvalidTargetError) as e:
        parse_program(src)
    assert e.value.index == 9
    assert e.value.method == "C.f/0"


def test_duplicate_class_rejected():
    src = "class C extends D {}\nclass C extends D {}\n"
    with pytest.raises(DuplicateClassError):
        parse_program(src)


def test_non_dense_indices_rejected():
    src = "class C extends D { method void f() { 0: return 2: return } }"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert "statement index 1" in e.value.expected


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_program("class C extends D {\n  field int ;\n}")
    assert e.value.line == 2


def test_comments_and_whitespace_insensitive():
    src = "# header\nclass C extends D {  # trailing\n  method void f(  ) {\n 0:return } }"
    p = parse_program(src)
    assert p.classes[0].methods[0].body == [Return(None)]


def test_statement_positions_retained():
    p = parse_program(FIXTURE_A)
    s0, s1, _ = p.classes[0].methods[0].body
    assert (s0.line, s1.line) == (3, 4)
    assert s0.col == 5


def test_fixture_a_round_trip():
    p = parse_program(FIXTURE_A)
    assert parse_program(print_program(p)) == p


def test_widget_annotation_preserved_verbatim():
    p = parse_program(FIXTURE_A)
    text = print_program(p)
    assert '@widget("email_input")' in text
    assert parse_program(text).classes[0].methods[0].body[0].widget == "email_input"


def test_string_escapes_round_trip():
    src = 'class C extends D { method void f() { 0: $a = "q\\"b\\\\c\\nd\\te" 1: return } }'
    p = parse_program(src)
    assert p.classes[0].methods[0].body[0] == AssignConst("$a", 'q"b\\c\nd\te')
    assert parse_program(print_program(p)) == p


def test_round_trip_generated_programs():
    rng = random.Random(4021)
    for _ in range(1000):
        p = gen_roundtrip_program(rng)
        assert parse_program(print_program(p)) == p


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_parser_total_on_bytes(data):
    try:
        parse_program(data)
    except PirError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parser_total_on_text(text):
    try:
        parse_program(text)
    except PirError:
        pass


def test_validate_fixture_a_clean():
    assert validate(parse_program(FIXTURE_A)) == []


def test_validate_unassigned_local_warns():
    src = "class C extends D { method void f() { 0: call x.Y.g($nope) 1: return } }"
    diags = validate(parse_program(src))
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert "$nope" in diags[0].message
    assert (diags[0].cls, diags[0].method, diags[0].index) == ("C", "f/0", 0)


def test_validate_duplicate_method_errors():
    src = """\
class C extends D {
  method void f() { 0: return }
  method void f() { 0: return }
}
"""
    diags = validate(parse_program(src))
    assert [d.severity for d in diags] == [Severity.ERROR]
    assert "duplicate method" in diags[0].message


def test_validate_duplicate_field_errors():
    src = "class C extends D { field int a; field long a; }"
    diags = validate(parse_program(src))
    assert [d.severity for d in diags] == [Severity.ERROR]


def test_validate_deterministic():
    src = "class C extends D { method void f() { 0: call x.Y.g($b, $a) 1: return } }"
    p = parse_program(src)
    assert validate(p) == validate(p)


# ---------------------------------------------------------------------------
# Statement index
# ---------------------------------------------------------------------------


def test_graph_ids_index_the_method_bodies():
    rng = random.Random(2203)
    for _ in range(300):
        p = gen_program(rng, allow_loops=True, allow_recursion=True)
        g = build_pdg(p, build_call_graph(p))
        stmt_at = dict(p.iter_locs())
        assert len(g.stmts) == len(g.locs) == len(stmt_at)
        for loc, stmt in zip(g.locs, g.stmts):
            assert stmt is stmt_at[loc]


# ---------------------------------------------------------------------------
# Differential check against the reference parser
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
KEYWORDS = ["class", "extends", "field", "method", "store", "load", "call", "if", "goto",
            "return", "widget", "p0", "p12", "$x", "x.y"]
CHARS = list('{}()=:;,.@$"\\#') + ["\r", "\t", "\n", " ", "p", "_", "a", "é"] + list("0123456789")


def _positions(p):
    return [
        [(c.line, c.col)]
        + [[(m.line, m.col)] + [(s.line, s.col) for s in m.body] for m in c.methods]
        for c in p.classes
    ]


def _outcome(parse, text):
    """The Program with every class, method and statement position, or the
    error: its type with (line, col, expected) or its message."""
    try:
        p = parse(text)
    except ParseError as e:
        return "ParseError", e.line, e.col, e.expected
    except Exception as e:  # noqa: BLE001 - any other outcome must match too
        return type(e).__name__, str(e)
    return p, _positions(p)


def assert_same_as_reference(text):
    assert _outcome(parse_program, text) == _outcome(reference_parse, text), repr(text)


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        piece = rng.choice(CHARS + KEYWORDS)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + piece + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i] + piece + text[i + 1:]
    if rng.random() < 0.3:
        text = text[: rng.randint(0, len(text))]
    return text


def test_parser_matches_reference_on_fixtures_and_prints():
    for path in sorted(FIXTURES.glob("*.pir")):
        assert_same_as_reference(path.read_text(encoding="utf-8"))
    rng = random.Random(5150)
    for _ in range(1000):
        assert_same_as_reference(print_program(gen_roundtrip_program(rng)))


def test_parser_matches_reference_on_mutated_fixtures():
    fixtures = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.pir"))]
    rng = random.Random(8086)
    errors = 0
    for _ in range(6000):
        text = _mutate(rng, rng.choice(fixtures))
        assert_same_as_reference(text)
        errors += not isinstance(_outcome(reference_parse, text)[0], Program)
    assert 1000 < errors < 5900  # both outcomes are well represented


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.text(alphabet=CHARS, max_size=4), st.sampled_from(KEYWORDS)),
                max_size=60).map(" ".join))
def test_parser_matches_reference_on_random_text(text):
    assert_same_as_reference(text)


@pytest.mark.parametrize(
    "text, line, col, expected",
    [
        # The EOF token after a trailing comment sits at the '#' column.
        ("class C extends D {  # trailing", 1, 22, "'}'"),
        ("class C extends D {\n  # trailing", 2, 3, "'}'"),
        ("class C extends D {\n  ", 2, 3, "'}'"),
        ('$a = "x\\q"', 1, 8, "string escape"),
        ('class C extends D { $a = "x\\', 1, 28, "string escape"),
        ("$", 1, 1, "identifier after '$'"),
        ("class C extends D {\n $1", 2, 2, "identifier after '$'"),
        ('class C extends D {\n  $a = "abc\n"', 2, 8, "closing '\"'"),
        ("class C ! extends", 1, 9, "token"),
    ],
)
def test_pinned_parse_errors(text, line, col, expected):
    assert _outcome(parse_program, text) == ("ParseError", line, col, expected)
    assert_same_as_reference(text)


def test_crlf_input_through_read_pir(tmp_path):
    for path in sorted(FIXTURES.glob("*.pir")):
        text = path.read_text(encoding="utf-8")
        crlf = tmp_path / path.name
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        data = _read_pir(str(crlf))
        assert _outcome(parse_program, data) == _outcome(reference_parse, text)
    bad = tmp_path / "bad.pir"
    bad.write_bytes(b"class C extends D {\r\n  field int ;\r\n}\r\n")
    assert _outcome(parse_program, _read_pir(str(bad))) == ("ParseError", 2, 13, "field name")
