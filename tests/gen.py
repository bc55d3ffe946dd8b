"""Seeded random generators for PIR programs and dependence graphs.

Two generator families:

* ``gen_program`` — analysis-shaped programs for the taint/pseudonymization
  oracle suites. By default loop-free (branch/goto targets jump forward
  only) and recursion-free (a method only calls methods that come later in
  the generation order), so all-paths enumeration terminates; the
  ``allow_loops`` and ``allow_recursion`` options lift each restriction for
  the fixpoint oracle.
* ``gen_roundtrip_program`` — grammar-shaped programs for parser/printer
  round-trips: awkward identifiers, escape-heavy strings, empty bodies.

``gen_perf_program`` draws desk-scale programs, and ``gen_hub_program`` and
``shared_cell_program`` programs whose slices overlap. All build Program
objects directly; tests print/parse as needed.
"""

from __future__ import annotations

import random

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
    Stmt,
)

# Fixed vocabulary shared with the registry objects the oracle tests load.
SOURCE_SIGS = {
    "ext.Sys.location": "Location",
    "ext.Sys.deviceId": "DeviceId",
    "ext.Sys.contactName": "Name",
}
SANITIZER_SIGS = ["ext.Crypto.hash", "ext.Crypto.mask"]
SINK_SIGS = {
    "ext.Net.send": ("Network", None),
    "ext.Analytics.track": ("Analytics", "Tracko"),
    "ext.Partner.push": ("ThirdParty", "Partner"),
    "ext.Disk.write": ("Storage", None),
    "ext.Log.info": ("Log", None),
}
OPAQUE_SIGS = ["ext.Util.fmt", "ext.Util.join", "ext.Str.trim"]

FIELD_CELLS = [("app.State", "f0"), ("app.State", "f1"), ("app.Cache", "g")]


def registry_json() -> dict[str, dict]:
    """Registry file contents matching the generator vocabulary."""
    return {
        "sources": {"entries": dict(SOURCE_SIGS)},
        "sinks": {
            "entries": [
                {"match": sig, "kind": kind, **({"name": name} if name else {})}
                for sig, (kind, name) in SINK_SIGS.items()
            ]
        },
        "sanitizers": {"entries": list(SANITIZER_SIGS)},
        "lexicon": {"entries": {"email": "EmailAddress", "phone": "PhoneNumber"}},
    }


def _gen_method(
    rng: random.Random,
    name: str,
    n_params: int,
    n_stmts: int,
    max_branches: int,
    callable_methods: list[tuple[str, str, int]],
    allow_loops: bool,
) -> MethodDef:
    params = tuple(f"p{i}" for i in range(n_params))
    live: list[str] = list(params)
    body: list[Stmt] = []
    branches = 0

    def fresh() -> str:
        v = f"$v{len(body)}"
        return v

    def pick_local() -> str:
        if not live:
            return "$dead"
        # bias toward recent values so data actually travels to sinks
        if len(live) > 3 and rng.random() < 0.6:
            return rng.choice(live[-3:])
        return rng.choice(live)

    n_body = max(1, n_stmts)
    i = 0
    while i < n_body - 1:
        remaining = n_body - 1 - i
        roll = rng.random()
        if roll < 0.08 and remaining >= 4:
            # source -> (sanitize | copy) -> sink idiom, the shape under audit
            v = fresh()
            body.append(Call(rng.choice(list(SOURCE_SIGS)), (), lhs=v))
            live.append(v)
            w = fresh()
            if rng.random() < 0.7:
                body.append(Call(rng.choice(SANITIZER_SIGS), (v,), lhs=w))
            else:
                body.append(AssignCopy(w, v))
            live.append(w)
            body.append(Call(rng.choice(list(SINK_SIGS)), (w,)))
            i += 3
            continue
        if roll < 0.18 and branches < max_branches and remaining >= 2 and live:
            if allow_loops and rng.random() < 0.3:
                target = rng.randrange(0, i + 1)
            else:
                target = rng.randrange(i + 1, n_body)
            body.append(If(pick_local(), target))
            branches += 1
        elif roll < 0.22 and remaining >= 2:
            if allow_loops and rng.random() < 0.3:
                target = rng.randrange(0, i + 1)
            else:
                target = rng.randrange(i + 1, n_body)
            body.append(Goto(target))
        elif roll < 0.30:
            v = fresh()
            body.append(AssignConst(v, f"c{i}"))
            live.append(v)
        elif roll < 0.38 and live:
            v = fresh()
            body.append(AssignCopy(v, pick_local()))
            live.append(v)
        elif roll < 0.48:
            v = fresh()
            body.append(Call(rng.choice(list(SOURCE_SIGS)), (), lhs=v))
            live.append(v)
        elif roll < 0.58 and live:
            v = fresh()
            body.append(Call(rng.choice(SANITIZER_SIGS), (pick_local(),), lhs=v))
            live.append(v)
        elif roll < 0.70 and live:
            nargs = rng.randint(1, min(2, len(live)))
            args = tuple(pick_local() for _ in range(nargs))
            body.append(Call(rng.choice(list(SINK_SIGS)), args))
        elif roll < 0.77 and live:
            cls, fld = rng.choice(FIELD_CELLS)
            body.append(FieldStore(cls, fld, pick_local()))
        elif roll < 0.84:
            v = fresh()
            cls, fld = rng.choice(FIELD_CELLS)
            body.append(AssignFieldLoad(v, cls, fld))
            live.append(v)
        elif roll < 0.93 and callable_methods and live:
            ccls, cname, carity = rng.choice(callable_methods)
            args = tuple(pick_local() for _ in range(carity))
            if rng.random() < 0.7:
                v = fresh()
                body.append(Call(f"{ccls}.{cname}", args, lhs=v))
                live.append(v)
            else:
                body.append(Call(f"{ccls}.{cname}", args))
        elif live:
            nargs = rng.randint(1, min(2, len(live)))
            args = tuple(pick_local() for _ in range(nargs))
            v = fresh()
            body.append(Call(rng.choice(OPAQUE_SIGS), args, lhs=v))
            live.append(v)
        else:
            v = fresh()
            body.append(AssignConst(v, f"c{i}"))
            live.append(v)
        i += 1
    ret = pick_local() if live and rng.random() < 0.8 else None
    body.append(Return(ret))
    return MethodDef(name, "void" if ret is None else "java.lang.String", params, body)


def gen_program(
    rng: random.Random,
    max_methods: int = 6,
    max_stmts: int = 30,
    max_branches: int = 3,
    allow_loops: bool = False,
    allow_recursion: bool = False,
) -> Program:
    """A random analysis-shaped program within the given size bounds.

    With allow_recursion, a call may target any method, the caller itself
    included, so call chains can be (mutually) recursive."""
    n_methods = rng.randint(1, max_methods)
    budget = rng.randint(n_methods, max_stmts)
    per = max(2, budget // n_methods)
    cls_name = "app.Main"
    methods: list[MethodDef] = []
    callable_methods: list[tuple[str, str, int]] = []
    if allow_recursion:
        arity = [rng.randint(0, 2) for _ in range(n_methods)]
        callable_methods = [(cls_name, f"m{k}", arity[k]) for k in range(n_methods)]
    # Generate in reverse so that, without recursion, calls only target
    # already-generated (later-named) methods: finite path enumeration.
    for k in range(n_methods - 1, -1, -1):
        n_params = arity[k] if allow_recursion else rng.randint(0, 2)
        m = _gen_method(
            rng,
            f"m{k}",
            n_params,
            rng.randint(2, per + 2),
            max_branches,
            callable_methods,
            allow_loops,
        )
        methods.append(m)
        if not allow_recursion:
            callable_methods.append((cls_name, m.name, len(m.params)))
    methods.reverse()
    return Program([ClassDef(cls_name, "java.lang.Object", [], methods)])


def gen_perf_program(rng: random.Random, n_methods: int = 200, stmts_each: int = 50) -> Program:
    """A desk-scale program with realistic personal-data density: a few
    dozen sources across the whole app, not one per method."""
    methods: list[MethodDef] = []
    callable_methods: list[tuple[str, str, int]] = []
    for k in range(n_methods - 1, -1, -1):
        params = tuple(f"p{i}" for i in range(rng.randint(0, 2)))
        live = list(params) or []
        body: list[Stmt] = []
        for i in range(stmts_each - 1):
            roll = rng.random()
            v = f"$v{i}"
            if roll < 0.01:
                body.append(Call(rng.choice(list(SOURCE_SIGS)), (), lhs=v))
                live.append(v)
            elif roll < 0.02 and live:
                body.append(Call(rng.choice(SANITIZER_SIGS), (rng.choice(live),), lhs=v))
                live.append(v)
            elif roll < 0.05 and live:
                body.append(Call(rng.choice(list(SINK_SIGS)), (rng.choice(live),)))
            elif roll < 0.08 and live:
                cls, fld = rng.choice(FIELD_CELLS)
                body.append(FieldStore(cls, fld, rng.choice(live)))
            elif roll < 0.11:
                cls, fld = rng.choice(FIELD_CELLS)
                body.append(AssignFieldLoad(v, cls, fld))
                live.append(v)
            elif roll < 0.17 and callable_methods and live:
                ccls, cname, carity = rng.choice(callable_methods)
                args = tuple(rng.choice(live) for _ in range(carity))
                body.append(Call(f"{ccls}.{cname}", args, lhs=v))
                live.append(v)
            elif roll < 0.25 and i + 2 < stmts_each:
                if live and rng.random() < 0.5:
                    body.append(If(rng.choice(live), rng.randrange(i + 1, stmts_each)))
                else:
                    body.append(Goto(rng.randrange(i + 1, stmts_each)))
            elif roll < 0.45 and live:
                body.append(AssignCopy(v, rng.choice(live)))
                live.append(v)
            elif roll < 0.75 and live:
                body.append(Call(rng.choice(OPAQUE_SIGS), (rng.choice(live),), lhs=v))
                live.append(v)
            else:
                body.append(AssignConst(v, f"k{i}"))
                live.append(v)
        body.append(Return(rng.choice(live) if live and rng.random() < 0.5 else None))
        m = MethodDef(f"m{k}", "void", params, body)
        methods.append(m)
        callable_methods.append(("perf.App", m.name, len(m.params)))
    methods.reverse()
    return Program([ClassDef("perf.App", "java.lang.Object", [], methods)])


def gen_hub_program(rng: random.Random, n_methods: int = 8, stmts_each: int = 16) -> Program:
    """A program whose slices overlap through a few program-wide field
    cells, as a desk-scale program's do (gen_perf_program's draws at unit
    test sizes barely overlap). Some methods open with a source stored into
    a cell, and every method loads the cells, so each such source's slice
    holds every load of its cell and what follows it: copies, opaque and
    app calls, sanitizers, sinks, short forward jumps and more stores."""
    cells = FIELD_CELLS[:2]
    methods: list[MethodDef] = []
    callable_methods: list[tuple[str, str, int]] = []
    for k in range(n_methods - 1, -1, -1):
        params = tuple(f"p{i}" for i in range(rng.randint(0, 2)))
        live = list(params)
        body: list[Stmt] = []
        if k < 2 or rng.random() < 0.4:  # at least two sources share cell 0
            cls, fld = cells[0] if k < 2 else rng.choice(cells)
            body.append(Call(rng.choice(list(SOURCE_SIGS)), (), lhs="$s"))
            body.append(FieldStore(cls, fld, "$s"))
        body.append(AssignFieldLoad("$l", *cells[k % len(cells)]))
        live.append("$l")
        while len(body) < stmts_each - 1:
            i = len(body)
            v = f"$v{i}"
            x = rng.choice(live[-4:])
            roll = rng.random()
            if roll < 0.15:
                body.append(AssignFieldLoad(v, *rng.choice(cells)))
            elif roll < 0.25:
                body.append(FieldStore(*rng.choice(cells), x))
                continue
            elif roll < 0.35:
                body.append(Call(rng.choice(list(SINK_SIGS)), (x,)))
                continue
            elif roll < 0.42:
                body.append(Call(rng.choice(SANITIZER_SIGS), (x,), lhs=v))
            elif roll < 0.52 and callable_methods:
                ccls, cname, carity = rng.choice(callable_methods)
                args = tuple(rng.choice(live) for _ in range(carity))
                body.append(Call(f"{ccls}.{cname}", args, lhs=v))
            elif roll < 0.6 and i + 2 < stmts_each:
                target = rng.randrange(i + 1, min(stmts_each, i + 4))
                body.append(If(x, target) if rng.random() < 0.5 else Goto(target))
                continue
            elif roll < 0.8:
                body.append(AssignCopy(v, x))
            else:
                body.append(Call(rng.choice(OPAQUE_SIGS), (x,), lhs=v))
            live.append(v)
        body.append(Return(rng.choice(live) if rng.random() < 0.5 else None))
        methods.append(MethodDef(f"m{k}", "void", params, body))
        callable_methods.append(("app.Main", f"m{k}", len(params)))
    methods.reverse()
    return Program([ClassDef("app.Main", "java.lang.Object", [], methods)])


def shared_cell_program(n: int) -> Program:
    """n methods that each store a source value in one field cell, load
    the cell, and hash, format and send the load: every slice holds every
    load and what follows it, and every node kind occurs."""
    sources = sorted(SOURCE_SIGS)
    methods = []
    for k in range(n):
        body: list[Stmt] = [
            Call(sources[k % len(sources)], (), lhs="$s"),
            FieldStore("app.State", "f0", "$s"),
            AssignFieldLoad("$l", "app.State", "f0"),
            Call("ext.Crypto.hash", ("$l",), lhs="$h"),
            Call("ext.Util.fmt", ("$h",), lhs="$t"),
            Call("ext.Net.send", ("$t",)),
            Call("ext.Log.info", ("$l",)),
            Return(),
        ]
        methods.append(MethodDef(f"m{k}", "void", (), body))
    return Program([ClassDef("app.Main", "java.lang.Object", [], methods)])


# ---------------------------------------------------------------------------
# Round-trip generator
# ---------------------------------------------------------------------------

_NASTY_STRINGS = ['', 'a"b', "back\\slash", "tab\there", "line\nbreak", "cr\rhere", "émail"]


def _rt_name(rng: random.Random) -> str:
    return rng.choice(["a", "B2", "_x", "Zz_9", "p", "p1x"])


def _rt_qname(rng: random.Random) -> str:
    return ".".join(_rt_name(rng) for _ in range(rng.randint(1, 3)))


def gen_roundtrip_program(rng: random.Random) -> Program:
    classes = []
    used_names: set[str] = set()
    for ci in range(rng.randint(0, 4)):
        name = f"pkg{ci}.C{rng.randint(0, 99)}"
        if name in used_names:
            continue
        used_names.add(name)
        fields = []
        used_fields: set[str] = set()
        for _ in range(rng.randint(0, 3)):
            fname = _rt_name(rng)
            if fname in used_fields:
                continue
            used_fields.add(fname)
            fields.append((fname, _rt_qname(rng)))
        methods = []
        used_keys: set[str] = set()
        for mi in range(rng.randint(0, 3)):
            n_params = rng.randint(0, 3)
            key = f"f{mi}/{n_params}"
            if key in used_keys:
                continue
            used_keys.add(key)
            params = tuple(f"p{i}" for i in range(n_params))
            n = rng.randint(0, 6)
            body: list[Stmt] = []
            locals_pool = list(params) + ["$t", "$u"]
            for i in range(n):
                kind = rng.randrange(9)
                tgt = rng.randrange(n)
                v = rng.choice(locals_pool)
                w = rng.choice(locals_pool)
                if kind == 0:
                    body.append(AssignConst(v, rng.choice(_NASTY_STRINGS)))
                elif kind == 1:
                    body.append(AssignCopy(v, w))
                elif kind == 2:
                    widget = rng.choice([None, rng.choice(_NASTY_STRINGS)])
                    body.append(Call(_rt_qname(rng) + "." + _rt_name(rng), (w,), widget, lhs=v))
                elif kind == 3:
                    body.append(AssignFieldLoad(v, _rt_qname(rng), _rt_name(rng)))
                elif kind == 4:
                    body.append(FieldStore(_rt_qname(rng), _rt_name(rng), v))
                elif kind == 5:
                    widget = rng.choice([None, rng.choice(_NASTY_STRINGS)])
                    nargs = rng.randint(0, 3)
                    args = tuple(rng.choice(locals_pool) for _ in range(nargs))
                    body.append(Call(_rt_qname(rng) + "." + _rt_name(rng), args, widget))
                elif kind == 6:
                    body.append(If(v, tgt))
                elif kind == 7:
                    body.append(Goto(tgt))
                else:
                    body.append(Return(rng.choice([None, v])))
            methods.append(MethodDef(f"f{mi}", _rt_qname(rng), params, body))
        classes.append(ClassDef(name, _rt_qname(rng), fields, methods))
    return Program(classes)
