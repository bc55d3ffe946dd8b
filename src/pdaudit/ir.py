"""PIR: a small textual three-address IR for Android-style apps.

All analyses in this package run over PIR. A program is a list of classes;
a class has fields and methods; a method body is a dense, zero-indexed list
of statements. Conditions are opaque locals (both branch outcomes are
feasible), literals are uninterpreted strings, and call statements may carry
a ``@widget("...")`` annotation naming the UI widget the value came from.
Both call forms, ``call ...`` and ``$x = call ...``, are one ``Call``
statement, whose ``lhs`` is None for a bare call.

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

Statements are slotted classes and ``Loc`` is a NamedTuple, neither
with a per-instance ``__dict__``, and every name the parser reads (locals,
parameters, callees, class, field and method names) is interned with
``sys.intern`` on both lexer paths below, so a name that occurs many times
is one string object. A program holds one object per statement and few
distinct strings.

The lexer is one compiled master regex: each match is the whitespace and
comments before a token plus the token, and the matched group is the token
kind. Its first alternative matches a whole statement, ``INDEX ":" body``
with only spaces and tabs between its tokens, as printed PIR has it; the
lexer builds that Stmt from the match at once and emits it as one statement
token, so a statement costs one match, not one per token. Class and method
headers, braces, and statements split over lines or holding a comment are
lexed token by token. Tokens are plain parallel lists (kinds, values, start
offsets) that the recursive-descent parser walks with an integer cursor;
line and column come from the offset. Any error in this pass re-parses the
text with the statement alternative off, so every error, its position and
its message come from the token-by-token parse. A lexical error is
positioned where no token starts, at the opening quote of an unterminated
string or at the backslash of a bad escape. The end-of-file position is one
past the last character of the last line, except after a trailing comment,
where it is the column of the ``#``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum
from itertools import chain
from sys import intern
from typing import Iterator, NamedTuple, Optional, Union


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


class Loc(NamedTuple):
    """A statement location: (class, method key, statement index).

    The method key is ``name/arity`` so overloads-by-arity stay distinct.
    Ordering is lexicographic, which fixes the deterministic order used for
    label ids, graph assembly and report output. A Loc is the tuple of its
    fields, so it orders, compares and hashes as that tuple, in C. Its
    ``index`` field shadows ``tuple.index``, which nothing calls.
    """

    cls: str
    method: str
    index: int

    def __str__(self) -> str:
        return f"{self.cls}.{self.method}:{self.index}"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Record:
    """== and repr over the attributes _fields names: the value of a
    mutable record, without what it holds besides (positions, memos, a
    registry's canonical text). A record is unhashable, and == holds only
    between records of one class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


class Stmt(Record):
    """Base statement. line/col are diagnostics only: == and repr read a
    statement class's own __slots__, which leave them out."""

    __slots__ = ("line", "col")


class AssignConst(Stmt):
    __slots__ = _fields = ("lhs", "value")

    def __init__(self, lhs: str, value: str, *, line: int = 0, col: int = 0):
        self.lhs, self.value, self.line, self.col = lhs, value, line, col


class AssignCopy(Stmt):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: str, rhs: str, *, line: int = 0, col: int = 0):
        self.lhs, self.rhs, self.line, self.col = lhs, rhs, line, col


class AssignFieldLoad(Stmt):
    __slots__ = _fields = ("lhs", "cls", "fld")

    def __init__(self, lhs: str, cls: str, fld: str, *, line: int = 0, col: int = 0):
        self.lhs, self.cls, self.fld, self.line, self.col = lhs, cls, fld, line, col


class FieldStore(Stmt):
    __slots__ = _fields = ("cls", "fld", "rhs")

    def __init__(self, cls: str, fld: str, rhs: str, *, line: int = 0, col: int = 0):
        self.cls, self.fld, self.rhs, self.line, self.col = cls, fld, rhs, line, col


class Call(Stmt):
    """A call, bare or on an assignment's right side; lhs is None when the
    result is not assigned."""

    __slots__ = _fields = ("callee", "args", "widget", "lhs")

    def __init__(self, callee: str, args: tuple[str, ...], widget: Optional[str] = None,
                 lhs: Optional[str] = None, *, line: int = 0, col: int = 0):
        self.callee, self.args, self.widget, self.lhs = callee, args, widget, lhs
        self.line, self.col = line, col


class If(Stmt):
    __slots__ = _fields = ("cond", "target")

    def __init__(self, cond: str, target: int, *, line: int = 0, col: int = 0):
        self.cond, self.target, self.line, self.col = cond, target, line, col


class Goto(Stmt):
    __slots__ = _fields = ("target",)

    def __init__(self, target: int, *, line: int = 0, col: int = 0):
        self.target, self.line, self.col = target, line, col


class Return(Stmt):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Optional[str] = None, *, line: int = 0, col: int = 0):
        self.value, self.line, self.col = value, line, col


def stmt_defs(s: Stmt) -> Optional[str]:
    """The local defined by s, if any."""
    if isinstance(s, (AssignConst, AssignCopy, Call, AssignFieldLoad)):
        return s.lhs
    return None


def stmt_uses(s: Stmt) -> tuple[str, ...]:
    """The locals read by s, in syntactic order."""
    if isinstance(s, AssignCopy):
        return (s.rhs,)
    if isinstance(s, Call):
        return s.args
    if isinstance(s, FieldStore):
        return (s.rhs,)
    if isinstance(s, If):
        return (s.cond,)
    if isinstance(s, Return) and s.value is not None:
        return (s.value,)
    return ()


# ---------------------------------------------------------------------------
# Program structure
# ---------------------------------------------------------------------------


class MethodDef(Record):
    _fields = ("name", "return_type", "params", "body")  # not line and col

    def __init__(self, name: str, return_type: str, params: tuple[str, ...], body: list[Stmt],
                 *, line: int = 0, col: int = 0):
        self.name, self.return_type, self.params, self.body = name, return_type, params, body
        self.line, self.col = line, col

    @property
    def key(self) -> str:
        """``name/arity`` — the method's identity within its class."""
        return f"{self.name}/{len(self.params)}"


class ClassDef(Record):
    _fields = ("name", "superclass", "fields", "methods")  # not line and col

    def __init__(self, name: str, superclass: str, fields: list[tuple[str, str]],
                 methods: list[MethodDef], *, line: int = 0, col: int = 0):
        self.name, self.superclass = name, superclass
        self.fields = fields  # (field name, type name)
        self.methods = methods
        self.line, self.col = line, col


class Program(Record):
    """A parsed PIR program."""

    _fields = ("classes",)

    def __init__(self, classes: list[ClassDef]):
        self.classes = classes

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

    def locs(self) -> tuple[Loc, ...]:
        """The Loc of every statement, in iter_methods order: the one Loc
        per statement that the call graph, labels and dependence graph of
        an analysis share.

        Built on the first call and kept on the instance, outside the
        fields that == and repr read; the program must therefore not be
        mutated after the first call."""
        memo = vars(self)
        if "_locs" not in memo:
            locs: list[Loc] = []
            for cls, m in self.iter_methods():
                key = m.key  # one string per method, not one per Loc
                locs += [Loc(cls.name, key, i) for i in range(len(m.body))]
            memo["_locs"] = tuple(locs)
        return memo["_locs"]

    def iter_locs(self) -> Iterator[tuple[Loc, Stmt]]:
        return zip(self.locs(), chain.from_iterable(m.body for _, m in self.iter_methods()))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_SKIP = r"[ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )*"  # whitespace and comments
# Parts of the statement alternative, compiled with re.ASCII (\w is
# [A-Za-z0-9_]). Each word, local and int ends where the longest token does.
_NUM = r"\d{1,18}(?!\w)"  # an index that int() takes
_LOC = r"(?:\$[A-Za-z_]\w*|p\d+)(?!\w)"
_REF = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+(?!\w)"  # QNAME "." IDENT
_STR = r'"[^"\\\n]*(?:\\[ntr"\\][^"\\\n]*)*"'

# One whole statement, INDEX ":" body, with only spaces and tabs between its
# tokens. Each form ends in an empty group, so m.lastindex names the form. A
# copy, literal or load without its lhs is matched too, and _statement
# refuses it. Where the token parse would take a statement further (a return
# value, a widget or a qualified name after a line break), the next token is
# neither a statement index nor '}', so the parse fails and is redone token
# by token.
_STATEMENT = rf"""
    ({_NUM}) [ \t]*:[ \t]*                                           # group 1: index
    (?: (?: ({_LOC}) [ \t]*=[ \t]* )?                                # 2: lhs
        (?: call[ \t]+ ({_REF}) [ \t]*\([ \t]*                       # 3: callee
              ({_LOC} (?:[ \t]*,[ \t]*{_LOC})*)? [ \t]*\)             # 4: args
              (?: [ \t]*@[ \t]*widget[ \t]*\([ \t]* ({_STR}) [ \t]*\) )?  # 5: widget
              (?P<call>)
          | ({_STR}) (?P<const>) | ({_LOC}) (?P<copy>)                  # 7, 9
          | load[ \t]+ ({_REF}) (?P<load>) )                           # 11
      | store[ \t]+ ({_REF}) [ \t]*=[ \t]* ({_LOC}) (?P<store>)        # 13, 14
      | if(?!\w) [ \t]* ({_LOC}) [ \t]* goto[ \t]+ ({_NUM}) (?P<if>)   # 16, 17
      | goto[ \t]+ ({_NUM}) (?P<goto>)                                 # 19
      | return(?!\w) (?: [ \t]* ({_LOC}) )? (?P<return>) )             # 21
"""
_TOKENS = r"""
      ([{}()=:;,.@])                          # punct
    | (\$[A-Za-z_][A-Za-z0-9_]*)              # local
    | ("[^"\\\n]*(?:\\[ntr"\\][^"\\\n]*)*")   # string
    | ([0-9]+)                                # int
    | ([A-Za-z_][A-Za-z0-9_]*)                # word
    | (\Z)                                    # end of text
    | (.)                                     # no token starts here
"""
# One match per token: the whitespace and comments before it, then the token
# or, first, a whole statement. m.lastindex is the token kind (or a statement
# form); a value is the token's source text (a string keeps its quotes), so a
# value equal to a keyword or mark is that word or mark. _TOKEN_ONLY is the
# pattern without the statement alternative, compiled (and kept by re) for the
# first text that needs it; its token groups are _SHIFT lower.
_TOKEN_RE = re.compile(rf"{_SKIP} (?: {_STATEMENT} | {_TOKENS} )", re.VERBOSE | re.ASCII)
_TOKEN_ONLY = rf"{_SKIP} (?: {_TOKENS} )"
_CALL, _CONST, _COPY, _STORE, _IF, _GOTO, _RETURN = (_TOKEN_RE.groupindex[form] for form in (
    "call", "const", "copy", "store", "if", "goto", "return"))
_SHIFT = _RETURN  # the last statement group
_STMT = 0  # the kind of a statement token, whose value is its Stmt
_PUNCT, _LOCAL, _STRING, _INT, _WORD, _EOF, _BAD = range(_SHIFT + 1, _SHIFT + 8)
_NEWLINE_RE = re.compile("\n")
_PNUM_RE = re.compile(r"p[0-9]+\Z")
_ESCAPE_RE = re.compile(r"\\(.)")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def _lex(text: str, statements: bool = True) -> tuple[list[int], list, list[int]]:
    """Token kinds, values and start offsets, ending with one EOF token.

    With statements, a whole statement that _TOKEN_RE matches is one token
    of kind _STMT at its index: its value is the Stmt, which holds the
    statement index in line until _Parser.methoddef positions it."""
    kinds: list[int] = []
    values: list = []
    offsets: list[int] = []
    add_kind, add_value, add_offset = kinds.append, values.append, offsets.append
    shift = 0 if statements else _SHIFT
    for m in (_TOKEN_RE if statements else re.compile(_TOKEN_ONLY, re.VERBOSE)).finditer(text):
        g = m.lastindex
        if g + shift >= _PUNCT:
            add_kind(g + shift)
            add_value(m[g])
            add_offset(m.start(g))
        else:
            add_kind(_STMT)
            add_value(_statement(m, g))
            add_offset(m.start(1))
    if _BAD in kinds:
        raise _diagnose(text, offsets[kinds.index(_BAD)])
    while kinds and kinds[-1] == _EOF:  # \Z can match twice at the end
        del kinds[-1], values[-1], offsets[-1]
    # The EOF column skips a trailing comment: it is the '#' column. A text
    # ending in a statement token ends inside a method: it fails to parse,
    # and the token-by-token pass positions its EOF.
    end = 0
    if kinds:
        end = offsets[-1] + (0 if kinds[-1] == _STMT else len(values[-1]))
    tail = max(end, text.rfind("\n") + 1)
    comment = text.find("#", tail)
    kinds.append(_EOF)
    values.append("")
    offsets.append(comment if comment >= 0 else len(text))
    return kinds, values, offsets


def _statement(m: re.Match, form: int) -> Stmt:
    """The Stmt of a statement match of _TOKEN_RE, form its m.lastindex."""
    index = int(m[1])
    lhs = m[2]
    if lhs is not None:
        lhs = intern(lhs)
    if form == _CALL:
        callee, args, widget = m.group(3, 4, 5)
        args = tuple([intern(a.strip(" \t")) for a in args.split(",")]) if args else ()
        if widget is not None:
            widget = _unquote(widget)
        return Call(intern(callee), args, widget, lhs, line=index)
    if form == _STORE:
        cls, fld = _member(m[13])
        return FieldStore(cls, fld, intern(m[14]), line=index)
    if form == _IF:
        return If(intern(m[16]), int(m[17]), line=index)
    if form == _GOTO:
        return Goto(int(m[19]), line=index)
    if form == _RETURN:
        value = m[21]
        return Return(value if value is None else intern(value), line=index)
    if lhs is None:  # the token-by-token parse reports where it fails
        raise ParseError(0, 0, "local")
    if form == _CONST:
        return AssignConst(lhs, _unquote(m[7]), line=index)
    if form == _COPY:
        return AssignCopy(lhs, intern(m[9]), line=index)
    return AssignFieldLoad(lhs, *_member(m[11]), line=index)


def _member(ref: str) -> tuple[str, str]:
    """QNAME "." IDENT split into its (owner, member) names, interned."""
    owner, _, member = ref.rpartition(".")
    return intern(owner), intern(member)


def _unquote(token: str) -> str:
    """The text of a string token."""
    s = token[1:-1]
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m[1]], s) if "\\" in s else s


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

    def __init__(self, text: str, statements: bool = True):
        self.kinds, self.values, self.offsets = _lex(text, statements)
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
        return intern(self.values[self.i - 1])

    def qname(self) -> str:
        parts = [self.ident("qualified name")]
        while self.values[self.i] == ".":
            self.i += 1
            parts.append(self.ident("identifier after '.'"))
        return intern(".".join(parts))

    def dotted_ref(self) -> tuple[str, str]:
        """QNAME '.' IDENT split into (owner, member): the final component
        is the member, everything before it the owner."""
        owner, member = _member(self.qname())
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
        return intern(self.values[self.i - 1])

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
        return _unquote(self.values[self.i - 1])

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
        kinds, values = self.kinds, self.values
        while True:
            if kinds[self.i] == _STMT:
                s = values[self.i]
                if s.line != len(body):
                    raise self.error(f"statement index {len(body)}")
                s.line, s.col = self.position(self.i)
                body.append(s)
                self.i += 1
            elif values[self.i] == "}":
                break
            else:
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
                return Call(*self.callexpr(), lhs)
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
        return intern(f"{owner}.{member}"), args, widget


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
    try:
        return _Parser(text).program()
    except PirError:  # every error comes from the token-by-token parse
        return _Parser(text, statements=False).program()


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
    if isinstance(s, AssignFieldLoad):
        return f"{s.lhs} = load {s.cls}.{s.fld}"
    if isinstance(s, FieldStore):
        return f"store {s.cls}.{s.fld} = {s.rhs}"
    if isinstance(s, Call):
        text = f"call {s.callee}({', '.join(s.args)})"
        if s.widget is not None:
            text += f" @widget({_quote(s.widget)})"
        return text if s.lhs is None else f"{s.lhs} = {text}"
    if isinstance(s, If):
        return f"if {s.cond} goto {s.target}"
    if isinstance(s, Goto):
        return f"goto {s.target}"
    if isinstance(s, Return):
        return "return" if s.value is None else f"return {s.value}"
    raise TypeError(f"not a statement: {s!r}")


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


class Diagnostic(NamedTuple):
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


def _superclass_cycles(p: Program) -> list[list[str]]:
    """Each cycle of the superclass relation among p's classes, as its
    class names in extends order from the smallest name."""
    supers = {c.name: c.superclass for c in p.classes}
    done: set[str] = set()
    cycles = []
    for name in sorted(supers):
        path: dict[str, int] = {}  # class -> its position on this walk
        c = name
        while c in supers and c not in done and c not in path:
            path[c] = len(path)
            c = supers[c]
        if c in path:
            cycle = list(path)[path[c]:]
            k = cycle.index(min(cycle))
            cycles.append(cycle[k:] + cycle[:k])
        done.update(path)
    return cycles


def validate(p: Program) -> list[Diagnostic]:
    """Structural checks beyond the grammar.

    Errors: duplicate (name, arity) methods, duplicate field names, and
    each cycle of program classes that extend one another (JLS 8.1.4: a
    class may not be its own superclass), reported once against the
    cycle's first class by name.
    Warnings: a read of a local that is neither a parameter nor assigned
    anywhere in the method. Output is sorted by (class, method, index).
    """
    diags: list[Diagnostic] = []
    for cycle in _superclass_cycles(p):
        chain = " extends ".join([*cycle, cycle[0]])
        diags.append(Diagnostic(Severity.ERROR, cycle[0], "", -1, f"cyclic inheritance: {chain}"))
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
