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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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
    """A branch or goto names a statement index outside the method body."""

    def __init__(self, method: str, index: int):
        self.method = method
        self.index = index
        super().__init__(f"{method}: jump target {index} out of range")


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


CallForm = (AssignCall, Call)


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
    """A parsed PIR program.

    Statement lookups (``method_at``, ``stmt_at``) go through an index that
    is built on the first lookup and kept on the instance, outside the
    dataclass fields, ``==`` and ``repr``. A Program must therefore not be
    mutated after its first lookup.
    """

    classes: list[ClassDef]

    def class_map(self) -> dict[str, ClassDef]:
        return {c.name: c for c in self.classes}

    @cached_property
    def _method_index(self) -> dict[tuple[str, str], MethodDef]:
        """(class name, method key) -> method. The last class wins for a
        duplicated class name, as in class_map; the first method wins for a
        duplicated key."""
        index: dict[tuple[str, str], MethodDef] = {}
        for c in self.class_map().values():
            for m in c.methods:
                index.setdefault((c.name, m.key), m)
        return index

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

    def method_at(self, cls: str, key: str) -> Optional[MethodDef]:
        return self._method_index.get((cls, key))

    def stmt_at(self, loc: Loc) -> Optional[Stmt]:
        m = self._method_index.get((loc.cls, loc.method))
        if m is None or not (0 <= loc.index < len(m.body)):
            return None
        return m.body[loc.index]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = set("{}()=:;,.@")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_PNUM_RE = re.compile(r"p[0-9]+\Z")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # word | local | int | string | punct | eof
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            toks.append(_Tok("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "$":
            m = _WORD_RE.match(text, i + 1)
            if not m:
                raise ParseError(start_line, start_col, "identifier after '$'")
            toks.append(_Tok("local", "$" + m.group(), start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        if ch == '"':
            buf = []
            j = i + 1
            while True:
                if j >= n or text[j] == "\n":
                    raise ParseError(start_line, start_col, "closing '\"'")
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n or text[j + 1] not in _ESCAPES:
                        raise ParseError(line, start_col + (j - i), "string escape")
                    buf.append(_ESCAPES[text[j + 1]])
                    j += 2
                    continue
                buf.append(c)
                j += 1
            toks.append(_Tok("string", "".join(buf), start_line, start_col))
            col += j - i
            i = j
            continue
        m = _INT_RE.match(text, i)
        if m:
            toks.append(_Tok("int", m.group(), start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        m = _WORD_RE.match(text, i)
        if m:
            toks.append(_Tok("word", m.group(), start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(start_line, start_col, "token")
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def error(self, expected: str) -> ParseError:
        return ParseError(self.cur.line, self.cur.col, expected)

    def advance(self) -> _Tok:
        t = self.cur
        self.pos += 1
        return t

    def at_word(self, w: str) -> bool:
        return self.cur.kind == "word" and self.cur.value == w

    def expect_word(self, w: str) -> _Tok:
        if not self.at_word(w):
            raise self.error(f"'{w}'")
        return self.advance()

    def at_punct(self, c: str) -> bool:
        return self.cur.kind == "punct" and self.cur.value == c

    def expect_punct(self, c: str) -> _Tok:
        if not self.at_punct(c):
            raise self.error(f"'{c}'")
        return self.advance()

    def ident(self, what: str = "identifier") -> str:
        if self.cur.kind != "word":
            raise self.error(what)
        return self.advance().value

    def qname(self) -> str:
        parts = [self.ident("qualified name")]
        while self.at_punct("."):
            self.advance()
            parts.append(self.ident("identifier after '.'"))
        return ".".join(parts)

    def dotted_ref(self) -> tuple[str, str]:
        """QNAME '.' IDENT split into (owner, member): the final component
        is the member, everything before it the owner."""
        parts = [self.ident("qualified name")]
        while self.at_punct("."):
            self.advance()
            parts.append(self.ident("identifier after '.'"))
        if len(parts) < 2:
            raise self.error("'.'")
        return ".".join(parts[:-1]), parts[-1]

    def at_local(self) -> bool:
        if self.cur.kind == "local":
            return True
        return self.cur.kind == "word" and bool(_PNUM_RE.match(self.cur.value))

    def local(self) -> str:
        if not self.at_local():
            raise self.error("local ('$name' or 'pN')")
        return self.advance().value

    def index(self) -> int:
        if self.cur.kind != "int":
            raise self.error("statement index")
        return int(self.advance().value)

    # -- grammar productions ------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        seen: set[str] = set()
        while self.cur.kind != "eof":
            c = self.classdef()
            if c.name in seen:
                raise DuplicateClassError(c.name)
            seen.add(c.name)
            classes.append(c)
        return Program(classes)

    def classdef(self) -> ClassDef:
        t = self.expect_word("class")
        name = self.qname()
        self.expect_word("extends")
        superclass = self.qname()
        self.expect_punct("{")
        fields: list[tuple[str, str]] = []
        methods: list[MethodDef] = []
        while self.at_word("field"):
            self.advance()
            type_name = self.qname()
            fname = self.ident("field name")
            self.expect_punct(";")
            fields.append((fname, type_name))
        while self.at_word("method"):
            methods.append(self.methoddef(name))
        self.expect_punct("}")
        return ClassDef(name, superclass, fields, methods, line=t.line, col=t.col)

    def methoddef(self, cls_name: str) -> MethodDef:
        t = self.expect_word("method")
        return_type = self.qname()
        name = self.ident("method name")
        self.expect_punct("(")
        params: list[str] = []
        if not self.at_punct(")"):
            params.append(self.local())
            while self.at_punct(","):
                self.advance()
                params.append(self.local())
        self.expect_punct(")")
        self.expect_punct("{")
        body: list[Stmt] = []
        while not self.at_punct("}"):
            body.append(self.stmt(len(body)))
        self.expect_punct("}")
        method = MethodDef(name, return_type, tuple(params), body, line=t.line, col=t.col)
        for s in body:
            if isinstance(s, (If, Goto)) and not (0 <= s.target < len(body)):
                raise InvalidTargetError(f"{cls_name}.{method.key}", s.target)
        return method

    def stmt(self, expected_index: int) -> Stmt:
        t = self.cur
        idx = self.index()
        if idx != expected_index:
            raise ParseError(t.line, t.col, f"statement index {expected_index}")
        self.expect_punct(":")
        s = self.body()
        s.line, s.col = t.line, t.col
        return s

    def body(self) -> Stmt:
        if self.at_word("store"):
            self.advance()
            cls, fld = self.dotted_ref()
            self.expect_punct("=")
            return FieldStore(cls, fld, self.local())
        if self.at_word("call"):
            callee, args, widget = self.callexpr()
            return Call(callee, args, widget)
        if self.at_word("if"):
            self.advance()
            cond = self.local()
            self.expect_word("goto")
            return If(cond, self.index())
        if self.at_word("goto"):
            self.advance()
            return Goto(self.index())
        if self.at_word("return"):
            self.advance()
            return Return(self.local() if self.at_local() else None)
        if self.at_local():
            lhs = self.local()
            self.expect_punct("=")
            if self.cur.kind == "string":
                return AssignConst(lhs, self.advance().value)
            if self.at_word("load"):
                self.advance()
                cls, fld = self.dotted_ref()
                return AssignFieldLoad(lhs, cls, fld)
            if self.at_word("call"):
                callee, args, widget = self.callexpr()
                return AssignCall(lhs, callee, args, widget)
            if self.at_local():
                return AssignCopy(lhs, self.local())
            raise self.error("literal, local, 'load' or 'call'")
        raise self.error("statement")

    def callexpr(self) -> tuple[str, tuple[str, ...], Optional[str]]:
        self.expect_word("call")
        owner, member = self.dotted_ref()
        self.expect_punct("(")
        args: list[str] = []
        if not self.at_punct(")"):
            args.append(self.local())
            while self.at_punct(","):
                self.advance()
                args.append(self.local())
        self.expect_punct(")")
        widget: Optional[str] = None
        if self.at_punct("@"):
            self.advance()
            self.expect_word("widget")
            self.expect_punct("(")
            if self.cur.kind != "string":
                raise self.error("widget string")
            widget = self.advance().value
            self.expect_punct(")")
        return f"{owner}.{member}", tuple(args), widget


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
    return _Parser(_lex(text)).program()


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
