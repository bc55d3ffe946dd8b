"""PIR: a small textual three-address IR for Android-style apps.

All analyses in this package run over PIR. A program is a list of classes;
a class has fields and methods; a method body is a dense, zero-indexed list
of statements. Conditions are opaque locals (both branch outcomes are
feasible), literals are uninterpreted strings, and call statements may carry
a ``@widget("...")`` annotation naming the UI widget the value came from.

Grammar (whitespace-insensitive, ``#`` starts a line comment):

    program   := classdef*
    classdef  := "class" QNAME "extends" QNAME "{" fielddef* methoddef* "}"
    fielddef  := "field" QNAME IDENT ";"
    methoddef := "method" QNAME IDENT "(" params? ")" "{" stmt* "}"
    stmt      := INDEX ":" body
    body      := LOCAL "=" (LITERAL | LOCAL | load | callexpr)
               | "store" QNAME "." IDENT "=" LOCAL
               | callexpr | "if" LOCAL "goto" INDEX | "goto" INDEX
               | "return" LOCAL?
    load      := "load" QNAME "." IDENT
    callexpr  := "call" QNAME "." IDENT "(" args? ")" widget?
    widget    := "@widget" "(" STRING ")"
    LOCAL     := "$" IDENT | "p" DIGITS

LITERAL is a double-quoted STRING. Strings support ``\\"``, ``\\\\``,
``\\n``, ``\\t`` and ``\\r`` escapes; a raw newline inside a string is a
syntax error.

Parsing is total: any byte sequence yields either a Program or one of the
positioned errors below, never an unrelated exception. Every statement
records the line/column it was parsed from; positions are ignored by
structural equality, so ``parse_program(print_program(p)) == p``.

The lexer is one compiled master regex: each match is the whitespace and
comments before a token plus the token, and the matched group is the token
kind. Tokens are plain parallel lists (kinds, values, start offsets) that
the recursive-descent parser walks with an integer cursor; line and column
come from the offset. A lexical error is positioned where no token starts,
at the opening quote of an unterminated string or at the backslash of a bad
escape. The end-of-file position is one past the last character of the last
line, except after a trailing comment, where it is the column of the ``#``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Union


class PirError(Exception):
    """Base class for all PIR parse-time errors."""


class ParseError(PirError):
    """Malformed PIR text, positioned at the offending token."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: expected {expected}")


class DuplicateClassError(PirError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate class {name}")


class InvalidTargetError(PirError):
    """A branch or goto names a statement index outside the method body.
    index is None when it has more digits than int() converts."""

    def __init__(self, method: str, index: Optional[int]):
        self.method = method
        self.index = index
        shown = "" if index is None else f" {index}"
        super().__init__(f"{method}: jump target{shown} out of range")


# ---------------------------------------------------------------------------
# Statement locations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Loc:
    """A statement location: (class, method key, statement index).

    The method key is ``name/arity`` so overloads-by-arity stay distinct.
    Ordering is lexicographic, which fixes the deterministic order used for
    label ids, graph assembly and report output.
    """

    cls: str
    method: str
    index: int

    def __str__(self) -> str:
        return f"{self.cls}.{self.method}:{self.index}"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base statement. line/col are diagnostics only (excluded from ==)."""

    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class AssignConst(Stmt):
    lhs: str
    value: str


@dataclass
class AssignCopy(Stmt):
    lhs: str
    rhs: str


@dataclass
class AssignCall(Stmt):
    lhs: str
    callee: str
    args: tuple[str, ...]
    widget: Optional[str] = None


@dataclass
class AssignFieldLoad(Stmt):
    lhs: str
    cls: str
    fld: str


@dataclass
class FieldStore(Stmt):
    cls: str
    fld: str
    rhs: str


@dataclass
class Call(Stmt):
    callee: str
    args: tuple[str, ...]
    widget: Optional[str] = None


@dataclass
class If(Stmt):
    cond: str
    target: int


@dataclass
class Goto(Stmt):
    target: int


@dataclass
class Return(Stmt):
    value: Optional[str] = None


def stmt_defs(s: Stmt) -> Optional[str]:
    """The local defined by s, if any."""
    if isinstance(s, (AssignConst, AssignCopy, AssignCall, AssignFieldLoad)):
        return s.lhs
    return None


def stmt_uses(s: Stmt) -> tuple[str, ...]:
    """The locals read by s, in syntactic order."""
    if isinstance(s, AssignCopy):
        return (s.rhs,)
    if isinstance(s, (AssignCall, Call)):
        return s.args
    if isinstance(s, FieldStore):
        return (s.rhs,)
    if isinstance(s, If):
        return (s.cond,)
    if isinstance(s, Return) and s.value is not None:
        return (s.value,)
    return ()


def call_parts(s: Stmt) -> Optional[tuple[str, tuple[str, ...]]]:
    """(callee signature, args) for call-form statements, else None."""
    if isinstance(s, (AssignCall, Call)):
        return s.callee, s.args
    return None


# ---------------------------------------------------------------------------
# Program structure
# ---------------------------------------------------------------------------


@dataclass
class MethodDef:
    name: str
    return_type: str
    params: tuple[str, ...]
    body: list[Stmt]
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)

    @property
    def key(self) -> str:
        """``name/arity`` — the method's identity within its class."""
        return f"{self.name}/{len(self.params)}"


@dataclass
class ClassDef:
    name: str
    superclass: str
    fields: list[tuple[str, str]]  # (field name, type name)
    methods: list[MethodDef]
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class Program:
    """A parsed PIR program."""

    classes: list[ClassDef]

    def class_map(self) -> dict[str, ClassDef]:
        return {c.name: c for c in self.classes}

    def iter_methods(self) -> Iterator[tuple[ClassDef, MethodDef]]:
        """All methods, sorted by (class name, method key).

        Every downstream ordering (label ids, graph assembly, reports) is
        anchored to this order so results never depend on source order.
        """
        for cls in sorted(self.classes, key=lambda c: c.name):
            for m in sorted(cls.methods, key=lambda m: m.key):
                yield cls, m

    def iter_locs(self) -> Iterator[tuple[Loc, Stmt]]:
        for cls, m in self.iter_methods():
            for i, s in enumerate(m.body):
                yield Loc(cls.name, m.key, i), s


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One match per token: the whitespace and comments before it, then the token.
# m.lastindex is the token kind; a value is the token's source text (a string
# keeps its quotes), so a value equal to a keyword or mark is that word or mark.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )*
    (?: ([{}()=:;,.@])                          # 1 punct
      | (\$[A-Za-z_][A-Za-z0-9_]*)              # 2 local
      | ("[^"\\\n]*(?:\\[ntr"\\][^"\\\n]*)*")   # 3 string
      | ([0-9]+)                                # 4 int
      | ([A-Za-z_][A-Za-z0-9_]*)                # 5 word
      | (\Z)                                    # 6 end of text
      | (.)                                     # 7 no token starts here
    )
    """,
    re.VERBOSE,
)
_PUNCT, _LOCAL, _STRING, _INT, _WORD, _EOF, _BAD = range(1, 8)
_NEWLINE_RE = re.compile("\n")
_PNUM_RE = re.compile(r"p[0-9]+\Z")
_ESCAPE_RE = re.compile(r"\\(.)")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def _lex(text: str) -> tuple[list[int], list[str], list[int]]:
    """Token kinds, values and start offsets, ending with one EOF token."""
    kinds: list[int] = []
    values: list[str] = []
    offsets: list[int] = []
    add_kind, add_value, add_offset = kinds.append, values.append, offsets.append
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        add_kind(k)
        add_value(m[k])
        add_offset(m.start(k))
    if _BAD in kinds:
        raise _diagnose(text, offsets[kinds.index(_BAD)])
    while kinds and kinds[-1] == _EOF:  # \Z can match twice at the end
        del kinds[-1], values[-1], offsets[-1]
    # The EOF column skips a trailing comment: it is the '#' column.
    tail = max(offsets[-1] + len(values[-1]) if kinds else 0, text.rfind("\n") + 1)
    comment = text.find("#", tail)
    kinds.append(_EOF)
    values.append("")
    offsets.append(comment if comment >= 0 else len(text))
    return kinds, values, offsets


def _diagnose(text: str, off: int) -> ParseError:
    """The error for the first offset where no token starts."""
    line_start = text.rfind("\n", 0, off) + 1
    line, col = text.count("\n", 0, line_start) + 1, off - line_start + 1
    if text[off] == "$":
        return ParseError(line, col, "identifier after '$'")
    if text[off] != '"':
        return ParseError(line, col, "token")
    # The string alternative failed here, so a bad escape or the end of the
    # line comes before any closing quote.
    j = off + 1
    while j < len(text) and text[j] != "\n":
        if text[j] == "\\":
            if text[j + 1 : j + 2] not in _ESCAPES:
                return ParseError(line, col + j - off, "string escape")
            j += 1
        j += 1
    return ParseError(line, col, "closing '\"'")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# _Parser.index for an index too long for int(): negative, so it equals no
# expected statement index and is out of range as a jump target.
_TOO_LONG = -1


class _Parser:
    """Recursive descent over the token lists; i is the current token."""

    def __init__(self, text: str):
        self.kinds, self.values, self.offsets = _lex(text)
        self.line_starts = [0] + [m.end() for m in _NEWLINE_RE.finditer(text)]
        self.i = 0

    def position(self, i: int) -> tuple[int, int]:
        off = self.offsets[i]
        line = bisect_right(self.line_starts, off)
        return line, off - self.line_starts[line - 1] + 1

    def error(self, expected: str) -> ParseError:
        return ParseError(*self.position(self.i), expected)

    def expect(self, value: str) -> None:
        """Consume the keyword or mark value."""
        if self.values[self.i] != value:
            raise self.error(f"'{value}'")
        self.i += 1

    def ident(self, what: str = "identifier") -> str:
        if self.kinds[self.i] != _WORD:
            raise self.error(what)
        self.i += 1
        return self.values[self.i - 1]

    def qname(self) -> str:
        parts = [self.ident("qualified name")]
        while self.values[self.i] == ".":
            self.i += 1
            parts.append(self.ident("identifier after '.'"))
        return ".".join(parts)

    def dotted_ref(self) -> tuple[str, str]:
        """QNAME '.' IDENT split into (owner, member): the final component
        is the member, everything before it the owner."""
        owner, _, member = self.qname().rpartition(".")
        if not owner:
            raise self.error("'.'")
        return owner, member

    def at_local(self) -> bool:
        k = self.kinds[self.i]
        return k == _LOCAL or (k == _WORD and _PNUM_RE.match(self.values[self.i]) is not None)

    def local(self) -> str:
        if not self.at_local():
            raise self.error("local ('$name' or 'pN')")
        self.i += 1
        return self.values[self.i - 1]

    def local_list(self) -> tuple[str, ...]:
        """'(' (LOCAL (',' LOCAL)*)? ')'"""
        self.expect("(")
        names: list[str] = []
        if self.values[self.i] != ")":
            names.append(self.local())
            while self.values[self.i] == ",":
                self.i += 1
                names.append(self.local())
        self.expect(")")
        return tuple(names)

    def index(self) -> int:
        """The statement index, or _TOO_LONG when it has more digits than
        int() converts (leading zeros count), which no body is long enough
        to reach."""
        if self.kinds[self.i] != _INT:
            raise self.error("statement index")
        self.i += 1
        digits = self.values[self.i - 1]
        try:
            return int(digits)
        except ValueError:
            digits = digits.lstrip("0") or "0"
            return int(digits) if len(digits) < 20 else _TOO_LONG

    def string(self, what: str) -> str:
        if self.kinds[self.i] != _STRING:
            raise self.error(what)
        self.i += 1
        s = self.values[self.i - 1][1:-1]
        return _ESCAPE_RE.sub(lambda m: _ESCAPES[m[1]], s) if "\\" in s else s

    # -- grammar productions ------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        seen: set[str] = set()
        while self.kinds[self.i] != _EOF:
            c = self.classdef()
            if c.name in seen:
                raise DuplicateClassError(c.name)
            seen.add(c.name)
            classes.append(c)
        return Program(classes)

    def classdef(self) -> ClassDef:
        line, col = self.position(self.i)
        self.expect("class")
        name = self.qname()
        self.expect("extends")
        superclass = self.qname()
        self.expect("{")
        fields: list[tuple[str, str]] = []
        methods: list[MethodDef] = []
        while self.values[self.i] == "field":
            self.i += 1
            type_name = self.qname()
            fname = self.ident("field name")
            self.expect(";")
            fields.append((fname, type_name))
        while self.values[self.i] == "method":
            methods.append(self.methoddef(name))
        self.expect("}")
        return ClassDef(name, superclass, fields, methods, line=line, col=col)

    def methoddef(self, cls_name: str) -> MethodDef:
        line, col = self.position(self.i)
        self.expect("method")
        return_type = self.qname()
        name = self.ident("method name")
        params = self.local_list()
        self.expect("{")
        body: list[Stmt] = []
        while self.values[self.i] != "}":
            body.append(self.stmt(len(body)))
        self.i += 1
        method = MethodDef(name, return_type, params, body, line=line, col=col)
        for s in body:
            if isinstance(s, (If, Goto)) and not (0 <= s.target < len(body)):
                target = None if s.target == _TOO_LONG else s.target
                raise InvalidTargetError(f"{cls_name}.{method.key}", target)
        return method

    def stmt(self, expected_index: int) -> Stmt:
        line, col = self.position(self.i)
        if self.index() != expected_index:
            raise ParseError(line, col, f"statement index {expected_index}")
        self.expect(":")
        s = self.body()
        s.line, s.col = line, col
        return s

    def body(self) -> Stmt:
        v = self.values[self.i]
        if v == "store":
            self.i += 1
            cls, fld = self.dotted_ref()
            self.expect("=")
            return FieldStore(cls, fld, self.local())
        if v == "call":
            return Call(*self.callexpr())
        if v == "if":
            self.i += 1
            cond = self.local()
            self.expect("goto")
            return If(cond, self.index())
        if v == "goto":
            self.i += 1
            return Goto(self.index())
        if v == "return":
            self.i += 1
            return Return(self.local() if self.at_local() else None)
        if self.at_local():
            lhs = self.local()
            self.expect("=")
            if self.kinds[self.i] == _STRING:
                return AssignConst(lhs, self.string("literal"))
            v = self.values[self.i]
            if v == "load":
                self.i += 1
                return AssignFieldLoad(lhs, *self.dotted_ref())
            if v == "call":
                return AssignCall(lhs, *self.callexpr())
            if self.at_local():
                return AssignCopy(lhs, self.local())
            raise self.error("literal, local, 'load' or 'call'")
        raise self.error("statement")

    def callexpr(self) -> tuple[str, tuple[str, ...], Optional[str]]:
        self.expect("call")
        owner, member = self.dotted_ref()
        args = self.local_list()
        widget: Optional[str] = None
        if self.values[self.i] == "@":
            self.i += 1
            self.expect("widget")
            self.expect("(")
            widget = self.string("widget string")
            self.expect(")")
        return f"{owner}.{member}", args, widget


def parse_program(text: Union[str, bytes]) -> Program:
    """Parse PIR source into a Program.

    Raises ParseError (positioned), DuplicateClassError or
    InvalidTargetError; never anything else, for any input.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            prefix = text[: e.start].decode("utf-8", errors="replace")
            line = prefix.count("\n") + 1
            col = len(prefix) - (prefix.rfind("\n") + 1) + 1
            raise ParseError(line, col, "valid UTF-8") from None
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _quote(s: str) -> str:
    return '"' + "".join(_UNESCAPES.get(c, c) for c in s) + '"'


def print_stmt(s: Stmt) -> str:
    """Canonical single-statement text (no index prefix)."""
    if isinstance(s, AssignConst):
        return f"{s.lhs} = {_quote(s.value)}"
    if isinstance(s, AssignCopy):
        return f"{s.lhs} = {s.rhs}"
    if isinstance(s, AssignCall):
        return f"{s.lhs} = {_print_call(s.callee, s.args, s.widget)}"
    if isinstance(s, AssignFieldLoad):
        return f"{s.lhs} = load {s.cls}.{s.fld}"
    if isinstance(s, FieldStore):
        return f"store {s.cls}.{s.fld} = {s.rhs}"
    if isinstance(s, Call):
        return _print_call(s.callee, s.args, s.widget)
    if isinstance(s, If):
        return f"if {s.cond} goto {s.target}"
    if isinstance(s, Goto):
        return f"goto {s.target}"
    if isinstance(s, Return):
        return "return" if s.value is None else f"return {s.value}"
    raise TypeError(f"not a statement: {s!r}")


def _print_call(callee: str, args: tuple[str, ...], widget: Optional[str]) -> str:
    text = f"call {callee}({', '.join(args)})"
    if widget is not None:
        text += f" @widget({_quote(widget)})"
    return text


def print_program(p: Program) -> str:
    """Canonical PIR text; parses back structurally equal."""
    out: list[str] = []
    for cls in p.classes:
        out.append(f"class {cls.name} extends {cls.superclass} {{")
        for fname, ftype in cls.fields:
            out.append(f"  field {ftype} {fname};")
        for m in cls.methods:
            out.append(f"  method {m.return_type} {m.name}({', '.join(m.params)}) {{")
            for i, s in enumerate(m.body):
                out.append(f"    {i}: {print_stmt(s)}")
            out.append("  }")
        out.append("}")
    return "\n".join(out) + "\n" if out else ""


# ---------------------------------------------------------------------------
# Validator
# ---------------------------------------------------------------------------


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    cls: str
    method: str  # "" for class-level diagnostics
    index: int  # -1 when no statement applies
    message: str

    def __str__(self) -> str:
        where = self.cls
        if self.method:
            where += f".{self.method}"
        if self.index >= 0:
            where += f":{self.index}"
        return f"{self.severity.value}: {where}: {self.message}"


def validate(p: Program) -> list[Diagnostic]:
    """Structural checks beyond the grammar.

    Errors: duplicate (name, arity) methods, duplicate field names.
    Warnings: a read of a local that is neither a parameter nor assigned
    anywhere in the method. Output is sorted by (class, method, index).
    """
    diags: list[Diagnostic] = []
    for cls in p.classes:
        seen_fields: set[str] = set()
        for fname, _ in cls.fields:
            if fname in seen_fields:
                diags.append(
                    Diagnostic(Severity.ERROR, cls.name, "", -1, f"duplicate field {fname}")
                )
            seen_fields.add(fname)
        seen_methods: set[str] = set()
        for m in cls.methods:
            if m.key in seen_methods:
                diags.append(
                    Diagnostic(
                        Severity.ERROR, cls.name, m.key, -1, f"duplicate method {m.key}"
                    )
                )
            seen_methods.add(m.key)
            assigned = set(m.params)
            for s in m.body:
                d = stmt_defs(s)
                if d is not None:
                    assigned.add(d)
            for i, s in enumerate(m.body):
                for v in stmt_uses(s):
                    if v not in assigned:
                        diags.append(
                            Diagnostic(
                                Severity.WARNING,
                                cls.name,
                                m.key,
                                i,
                                f"local {v} is read but never assigned",
                            )
                        )
    diags.sort(key=lambda d: (d.cls, d.method, d.index, d.message))
    return diags
