import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_A, FIXTURE_B, MUTUAL_EXTENDS
from gen import gen_program, gen_roundtrip_program
from oracles import reference_parse
from pdaudit.cli import _read_pir
from pdaudit.graph import build_call_graph, build_pdg
from pdaudit.ir import (
    _INT,
    _STMT,
    AssignConst,
    Call,
    ClassDef,
    DuplicateClassError,
    Goto,
    InvalidTargetError,
    Loc,
    MethodDef,
    ParseError,
    PirError,
    Program,
    Return,
    Severity,
    _lex,
    _Parser,
    _quote,
    parse_program,
    print_program,
    stmt_defs,
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
    assert isinstance(s0, Call) and s0.lhs == "$e"
    assert s0.callee == "android.widget.EditText.getText"
    assert s0.widget == "email_input"
    s1 = m.body[1]
    assert isinstance(s1, Call) and s1.lhs is None
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


_ESCAPED = '\n\t\r"\\'  # the five characters a PIR string escapes


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(_ESCAPED) | st.characters(exclude_categories=("Cs",)),
               max_size=40))
def test_quote_is_the_per_character_escape_and_round_trips(text):
    """_quote, one str.translate, writes what a join over the characters
    with each of the five escapes wrote, on text mixing them with any
    other character, non-ASCII included; a literal and a widget holding
    the text print and parse back equal."""
    escapes = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}
    assert _quote(text) == '"' + "".join(escapes.get(c, c) for c in text) + '"'
    body = [AssignConst("$a", text), Call("x.Y.g", ("$a",), widget=text), Return()]
    p = Program([ClassDef("app.C", "java.lang.Object", [], [MethodDef("f", "void", (), body)])])
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


def test_validate_cyclic_inheritance_errors_name_each_cycle_once():
    # JLS 8.1.4: no class is its own superclass. W only leads into the
    # cycle X -> Z -> Y -> X, which is named from its smallest class; T
    # extends a class outside the program.
    src = """\
class A extends A { }
class W extends Z { }
class X extends Z { }
class Y extends X { }
class Z extends Y { }
class T extends java.lang.Object { }
"""
    diags = validate(parse_program(src))
    assert [(d.severity, d.cls, d.method, d.index, d.message) for d in diags] == [
        (Severity.ERROR, "A", "", -1, "cyclic inheritance: A extends A"),
        (Severity.ERROR, "X", "", -1, "cyclic inheritance: X extends Z extends Y extends X"),
    ]
    assert validate(parse_program(MUTUAL_EXTENDS))[0].message == (
        "cyclic inheritance: A extends B extends A"
    )


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
# Compact statements: slotted, with interned names
# ---------------------------------------------------------------------------

_EVERY_FORM = """\
class app.C extends app.Base {
  field java.lang.String f;
  method void run(p0, $q) {
    0: $a = "k"
    1: $b = $a
    2: $c = call app.C.get(p0, $q) @widget("w")
    3: $d = load app.C.f
    4: store app.C.f = $d
    5: call app.C.put($c)
    6: if $b goto 8
    7: goto 8
    8: return $a
  }
}
"""


def test_statements_and_locs_have_no_instance_dict():
    p = parse_program(_EVERY_FORM)
    body = p.classes[0].methods[0].body
    assert len({type(s) for s in body}) == 8  # every statement class
    for obj in [*body, *p.locs(), Return(None), Loc("a.B", "m/0", 0)]:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_names_from_statement_and_token_paths_are_one_object():
    """Statements 0-2 and 5 are each lexed as one match; 3 and 4 hold a
    comment, so they are lexed token by token, as the class and method
    headers are. Each name is one str object wherever it was read."""
    text = """\
class app.C extends app.Base {
  field app.C f;
  method app.C run(p0) {
    0: $a = call app.C.get(p0)
    1: store app.C.f = $a
    2: $b = load app.C.f
    3: call app.C.get(  # a comment
         $a, p0)
    4: store app.C.f  # another
         = $b
    5: return $b
  }
}
"""
    kinds, _, _ = _lex(text)
    assert kinds.count(_STMT) == 4  # statements 0, 1, 2 and 5
    p = parse_program(text)
    cls = p.classes[0]
    m = cls.methods[0]
    b = m.body
    assert b[3].args[0] is b[0].lhs and b[1].rhs is b[0].lhs
    assert b[3].args[1] is b[0].args[0] is m.params[0]
    assert b[3].callee is b[0].callee
    assert b[4].cls is b[1].cls is b[2].cls is cls.name is cls.fields[0][1] is m.return_type
    assert b[4].fld is b[1].fld is b[2].fld is cls.fields[0][0]
    assert b[4].rhs is b[2].lhs is b[5].value


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


# ---------------------------------------------------------------------------
# Statement tokens: one lexer match per statement, the token parse on error
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"
_SOURCE_TOKEN_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|\$?[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S')
_MARKS = set("{}()=:;,.@")
_SEPARATORS = [" "] * 12 + ["\t", "  ", "\n", "\n    ", " \t", "\r\n", " # note\n",
                             "\n# 1: goto 2 $x @widget\n"]
_SPACES = [" ", " ", "\t", " \t "]


def _relaid(rng, text):
    """text's tokens joined by random spaces, tabs, newlines and comments,
    or by spaces and tabs alone, and often by nothing next to a mark."""
    seps = rng.choice([_SEPARATORS, _SPACES])
    toks = _SOURCE_TOKEN_RE.findall(text)
    return "".join(
        a + ("" if (a in _MARKS or b in _MARKS) and rng.random() < 0.5 else rng.choice(seps))
        for a, b in zip(toks, toks[1:] + [""])
    )


def _n_stmts(p):
    return sum(len(m.body) for _, m in p.iter_methods())


def test_parser_matches_reference_on_relaid_fixtures_and_prints():
    rng = random.Random(6262)
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.pir"))]
    texts += [print_program(gen_roundtrip_program(rng)) for _ in range(300)]
    for text in texts:
        assert_same_as_reference(_relaid(rng, text))
        assert_same_as_reference(_relaid(rng, _mutate(rng, text)))


def _in_method(body):
    return "class C extends D {\n  method void f(p0) {\n" + body + "\n  }\n}\n"


@pytest.mark.parametrize(
    "body, outcome",
    [
        ("0: goto 1: return", "ParseError"),
        ('0: $x = "a"\n1: return\n  $x', [AssignConst("$x", "a"), Return("$x")]),
        ('0: $x = call a.B.c()\n  @widget("w") 1: return',
         [Call("a.B.c", (), "w", lhs="$x"), Return()]),
        ("0: $x = call a.B.c(p0)\n1: call a.B.c($x)\n2: return",
         [Call("a.B.c", ("p0",), lhs="$x"), Call("a.B.c", ("$x",)), Return()]),
        ("0: $x = call a.B.c(  # split\n p0)\n1: call a.B.c($x\n)\n2: return",
         [Call("a.B.c", ("p0",), lhs="$x"), Call("a.B.c", ("$x",)), Return()]),
        ("0: goto5", "ParseError"),
        ("0: storex.f = p0", "ParseError"),
        ("0: callx.y()", "ParseError"),
        ("0: $a = callx.y()", "ParseError"),
        ("0000000000000000000: return", [Return()]),  # 19 digits
        ("0: goto 1000000000000000000", "InvalidTargetError"),
        ("00: goto 01\n01: return", [Goto(1), Return()]),
        ('0: $a =\r"x"\r\n1:\rreturn\r', [AssignConst("$a", "x"), Return()]),
        ('0: $a = "q\\"b\\\\c\\nd\\te\\r"\n'
         '1: call a.B.c($a, p0) @widget("w\\"x\\\\y\\n")\n2: return',
         [AssignConst("$a", 'q"b\\c\nd\te\r'), Call("a.B.c", ("$a", "p0"), 'w"x\\y\n'),
          Return()]),
    ],
)
def test_pinned_statement_layouts_parse_as_the_reference(body, outcome):
    text = _in_method(body)
    got = _outcome(parse_program, text)
    if isinstance(outcome, str):
        assert got[0] == outcome
    else:
        body = got[0].classes[0].methods[0].body
        assert body == outcome
        assert [stmt_defs(s) for s in body] == [getattr(s, "lhs", None) for s in outcome]
    assert_same_as_reference(text)


def test_every_statement_of_fixtures_and_prints_is_one_token():
    """The statement alternative is taken: a printed or fixture statement
    is one token, and no index is lexed on its own."""
    rng = random.Random(7373)
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.pir"))]
    texts += [print_program(gen_roundtrip_program(rng)) for _ in range(300)]
    for text in texts:
        kinds = _lex(text)[0]
        assert kinds.count(_STMT) == _n_stmts(parse_program(text)) and _INT not in kinds
        assert _STMT not in _lex(text, statements=False)[0]


def test_bench_workloads_parse_the_same_with_and_without_statement_tokens(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    for name in sorted(workloads.GENERATORS):
        text = workloads.generate(name, 7).text
        fast = parse_program(text)
        slow = _Parser(text, statements=False).program()
        assert fast == slow and _positions(fast) == _positions(slow)
        assert _lex(text)[0].count(_STMT) == _n_stmts(fast) > 10000
