"""Seeded PIR generators for the benchmark workloads.

Each generator writes PIR text directly and never imports pdaudit, so the
facts it plants are independent of the code under test, and edits to the
test-suite generators cannot move a workload. Every generator returns a
``Workload`` with the program text and the facts the correctness gate
checks: the planted flows and the number of labels the registries below
must produce.

Cross-method fan-out is bounded in every shape (callees come from a window
of recently generated methods, from the caller's own inheritance tree, or
from the caller's own class). With unbounded fan-out a source in a popular
helper reaches every caller through context-insensitive ParamIn/ReturnOut
edges, and one seed can cost several times another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Registry vocabulary; run.py writes these as the five registry files.
SOURCES = {
    "ext.Sys.location": "Location",
    "ext.Sys.deviceId": "DeviceId",
    "ext.Sys.contactName": "Name",
}
SANITIZERS = ["ext.Crypto.hash", "ext.Crypto.mask"]
SINKS = {
    "ext.Net.send": ("Network", None),
    "ext.Analytics.track": ("Analytics", "Tracko"),
    "ext.Partner.push": ("ThirdParty", "Partner"),
    "ext.Disk.write": ("Storage", None),
    "ext.Log.info": ("Log", None),
}
OPAQUE = ["ext.Util.fmt", "ext.Util.join", "ext.Str.trim"]
WIDGET_READ = "android.widget.EditText.getText"
LEXICON = {
    "email": "EmailAddress",
    "phone": "PhoneNumber",
    "name": "Name",
    "address": "PhysicalAddress",
    "birthday": "BirthDate",
    "iban": "FinancialAccount",
    "passport": "IdentificationNumber",
    "city": "PhysicalAddress",
}
# Widget-name tokens that are not lexicon keywords.
FILLER = ["user", "input", "field", "text", "edit", "form", "main", "confirm",
          "submit", "button", "label", "title", "search", "query", "comment", "note"]

# The planted raw flow goes to this sink; with every category weight 1.0 its
# risk is 1.0 x 2.0 (raw) x 3.0 (analytics) = 6.0, so this threshold must
# make `pdaudit analyze` exit 1.
RAW_SINK = "ext.Analytics.track"
FAIL_THRESHOLD = 6.0

FIELD_CELLS = ["app.State.f0", "app.State.f1", "app.Cache.g"]


def registry_files() -> dict[str, dict]:
    """The contents of the five registry files, by CLI flag name."""
    categories = sorted(set(SOURCES.values()) | set(LEXICON.values()))
    kinds = sorted({kind for kind, _ in SINKS.values()})
    return {
        "sources": {"entries": dict(SOURCES)},
        "sinks": {"entries": [{"match": sig, "kind": kind, **({"name": name} if name else {})}
                              for sig, (kind, name) in SINKS.items()]},
        "sanitizers": {"entries": list(SANITIZERS)},
        "lexicon": {"entries": dict(LEXICON)},
        "dpv": {
            "categories": {c: f"https://w3id.org/dpv/pd#{c}" for c in categories},
            "sink_kinds": {k: f"https://w3id.org/dpv#{k}" for k in kinds},
            "collection": "https://w3id.org/dpv#Collect",
            "pseudonymisation": "https://w3id.org/dpv#Pseudonymisation",
        },
    }


@dataclass(frozen=True)
class PlantedFlow:
    kind: str  # "RawFlow" | "PseudonymizedFlow"
    source: tuple[str, str, int]  # (class, method key, index)
    sink: tuple[str, str, int]


@dataclass
class Workload:
    text: str
    labels: int  # system-API calls plus lexicon-matching widget reads
    planted: list[PlantedFlow]


@dataclass
class _Method:
    """One method body under construction; statements are PIR text."""

    cls: str
    name: str
    params: tuple[str, ...]
    body: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.name}/{len(self.params)}"

    def text(self) -> list[str]:
        lines = [f"  method void {self.name}({', '.join(self.params)}) {{"]
        lines += [f"    {i}: {s}" for i, s in enumerate(self.body)]
        lines.append("  }")
        return lines


class _Emitter:
    """Shared bookkeeping: label count and planted flows."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.labels = 0
        self.planted: list[PlantedFlow] = []

    def source(self, m: _Method, lhs: str) -> None:
        m.body.append(f"{lhs} = call {self.rng.choice(list(SOURCES))}()")
        self.labels += 1

    def widget_read(self, m: _Method, lhs: str, matching: bool) -> None:
        tokens = self.rng.sample(FILLER, self.rng.randint(1, 2))
        if matching:
            tokens.insert(self.rng.randrange(len(tokens) + 1), self.rng.choice(list(LEXICON)))
            self.labels += 1
        style = self.rng.randrange(3)
        if style == 0:
            name = "_".join(tokens)
        elif style == 1:
            name = "-".join(tokens)
        else:
            name = tokens[0] + "".join(t.capitalize() for t in tokens[1:])
        m.body.append(f'{lhs} = call {WIDGET_READ}() @widget("{name}")')

    def plant(self, m: _Method, raw: bool) -> None:
        """source -> (copy | sanitizer) -> sink on fresh locals, at the
        method's current end; callers plant before any jump so it is
        reachable."""
        n = len(self.planted)
        start = len(m.body)
        self.source(m, f"$ps{n}")
        if raw:
            m.body.append(f"$pp{n} = $ps{n}")
            sink = RAW_SINK
        else:
            m.body.append(f"$pp{n} = call {self.rng.choice(SANITIZERS)}($ps{n})")
            sink = self.rng.choice(list(SINKS))
        m.body.append(f"call {sink}($pp{n})")
        self.planted.append(PlantedFlow(
            "RawFlow" if raw else "PseudonymizedFlow",
            (m.cls, m.key, start),
            (m.cls, m.key, start + 2),
        ))

    def workload(self, classes: list[tuple[str, str, list[str], list[_Method]]]) -> Workload:
        out: list[str] = []
        for name, superclass, fields, methods in classes:
            out.append(f"class {name} extends {superclass} {{")
            out += [f"  field java.lang.String {f};" for f in fields]
            for m in methods:
                out += m.text()
            out.append("}")
        return Workload("\n".join(out) + "\n", self.labels, self.planted)


def _params(rng: random.Random) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(rng.randint(0, 2)))


class _Deck:
    """Statement kinds in exact proportions, in shuffled order. Drawing from
    a deck instead of rolling each statement fixes how many of each kind a
    program has, so a seed changes where statements are, not how many."""

    def __init__(self, rng: random.Random, mix: dict[str, float], size: int):
        self.cards = [kind for kind, share in mix.items() for _ in range(round(share * size))]
        self.cards += [list(mix)[-1]] * max(0, size - len(self.cards))
        rng.shuffle(self.cards)

    def draw(self) -> str:
        return self.cards.pop()


# ---------------------------------------------------------------------------
# desk-20k: the gen_perf_program distribution, made seed-stable
# ---------------------------------------------------------------------------

# The statement mix of gen_perf_program (tests/gen.py when this benchmark
# was defined), except that gen_desk places the 1% sources itself, stores
# and loads are 2.2% each, not 3%, so the graph keeps the ~69k edges of the
# ROADMAP's 20k row now that short jumps leave more code reachable, and a
# third of the copies and opaque calls are
# constants, so a value is read less than once on average and the closure
# of the field hub does not swing with the seed.
_DESK_MIX = {"sanitizer": 0.01, "sink": 0.03, "store": 0.022, "load": 0.022, "call": 0.06,
             "branch": 0.08, "copy": 0.12, "opaque": 0.20, "const": 0.456}
_DESK_STMTS = 50  # per method
_DESK_WINDOW = 8  # callees come from this many most recently generated methods
_DESK_RECENT = 8  # operands come from this many most recently defined locals
_DESK_JUMP = 4  # the farthest a branch jumps ahead
_PLANT_EVERY = 20  # one planted flow per this many methods


def gen_desk(rng: random.Random, n_methods: int = 400, n_sources: int = 200,
             hub_sources: int = 12) -> Workload:
    """One class, three program-wide field cells, 1% system-API sources.

    Where gen_perf_program lets one seed cost several times another, this
    bounds the cause: callees come from a window of recent methods, operands
    from recent locals, jumps are short, statement kinds come from a deck,
    stores and loads take the cells in turn, and a return never carries a
    call result. ``hub_sources`` sources open a method and store their value
    into a cell, so their slices span the field hub; the other sources sit
    at sampled places and are never read (collected, no egress)."""
    b = _Emitter(rng)
    stmts_each = _DESK_STMTS
    # Hub sources open their method, before any jump, so they are reachable.
    hub = set(rng.sample([k for k in range(n_methods) if k % _PLANT_EVERY], hub_sources))
    dead = set(rng.sample([(k, i) for k in range(n_methods) for i in range(3, stmts_each - 1)],
                          n_sources - hub_sources))
    deck = _Deck(rng, _DESK_MIX, n_methods * stmts_each)
    turn = 0

    def cell() -> str:
        nonlocal turn
        turn += 1
        return FIELD_CELLS[turn % len(FIELD_CELLS)]

    def pick() -> str:
        return rng.choice(live[-_DESK_RECENT:])

    methods: list[_Method] = []
    for k in range(n_methods - 1, -1, -1):
        m = _Method("perf.App", f"m{k}", _params(rng))
        live = list(m.params)
        from_call: set[str] = set()  # locals derived from an app method's result
        if k % _PLANT_EVERY == 0:
            b.plant(m, raw=(k // _PLANT_EVERY) % 2 == 0)
        if k in hub:
            b.source(m, "$v0")
            m.body.append(f"store {cell()} = $v0")
            live.append("$v0")
        while len(m.body) < stmts_each - 1:
            i = len(m.body)
            v = f"$v{i}"
            if (k, i) in dead:
                b.source(m, v)
                continue
            kind = deck.draw()
            if not live and kind not in ("load", "branch"):
                kind = "const"
            x = pick() if live else None
            if kind == "sanitizer":
                m.body.append(f"{v} = call {rng.choice(SANITIZERS)}({x})")
            elif kind == "sink":
                m.body.append(f"call {rng.choice(list(SINKS))}({x})")
            elif kind == "store":
                m.body.append(f"store {cell()} = {x}")
            elif kind == "load":
                m.body.append(f"{v} = load {cell()}")
            elif kind == "call" and methods:
                callee = rng.choice(methods[-_DESK_WINDOW:])
                args = ", ".join(pick() for _ in callee.params)
                m.body.append(f"{v} = call {callee.cls}.{callee.name}({args})")
                from_call.add(v)
            elif kind == "branch" and i + 2 < stmts_each:
                target = rng.randrange(i + 1, min(stmts_each, i + 1 + _DESK_JUMP))
                m.body.append(f"if {x} goto {target}" if x and rng.random() < 0.5
                              else f"goto {target}")
            elif kind == "copy":
                m.body.append(f"{v} = {x}")
            elif kind == "opaque":
                m.body.append(f"{v} = call {rng.choice(OPAQUE)}({x})")
            else:
                m.body.append(f'{v} = "k{i}"')
            if kind in ("sanitizer", "copy", "opaque") and x in from_call:
                from_call.add(v)
            if kind not in ("sink", "store", "branch"):
                live.append(v)
        # A return never carries a call result, so ReturnOut edges cannot
        # chain from caller to caller across the whole program.
        own = [x for x in live[-_DESK_RECENT:] if x not in from_call]
        ret = rng.choice(own) if own and rng.random() < 0.5 else None
        m.body.append(f"return {ret}" if ret else "return")
        methods.append(m)
    methods.reverse()
    return b.workload([("perf.App", "java.lang.Object", [], methods)])


# ---------------------------------------------------------------------------
# hierarchy-loops: inheritance forest, overrides, loops, recursion
# ---------------------------------------------------------------------------

# Parent index of each class within one tree: a root, three children and
# four grandchildren, so a call through the root's type has up to 8 targets.
_TREE_SHAPE = [None, 0, 0, 0, 1, 1, 2, 3]
_VIRTUALS = [("run", 1), ("step", 2), ("apply", 1), ("visit", 2), ("reset", 0)]
_HIERARCHY_MIX = {"virtual": 0.08, "direct": 0.04, "loop": 0.04, "skip": 0.04, "store": 0.03,
                  "load": 0.03, "sink": 0.006, "sanitizer": 0.01, "copy": 0.224,
                  "opaque": 0.45, "const": 0.05}
_HIERARCHY_STMTS = 40  # per method
_TREE_SOURCES = 3


def gen_hierarchy(rng: random.Random, n_trees: int = 10) -> Workload:
    """~16k statements in 80 classes. Calls stay inside the caller's tree,
    which bounds fan-out; within a tree they may recurse, and a call never
    passes a parameter on. Per-class fields only, backward and forward
    conditional jumps, ~0.2% sources."""
    b = _Emitter(rng)
    stmts_each = _HIERARCHY_STMTS
    deck = _Deck(rng, _HIERARCHY_MIX, n_trees * len(_TREE_SHAPE) * 5 * stmts_each)
    classes = []
    for t in range(n_trees):
        names = [f"h.T{t}.C{j}" for j in range(len(_TREE_SHAPE))]
        bodies: list[list[_Method]] = []
        for j, cname in enumerate(names):
            virt = _VIRTUALS if j == 0 else rng.sample(_VIRTUALS, 3)
            ms = [_Method(cname, vname, tuple(f"p{i}" for i in range(arity)))
                  for vname, arity in virt]
            ms += [_Method(cname, f"u{j}x{h}", _params(rng)) for h in range(5 - len(ms))]
            bodies.append(ms)
        tree_methods = [m for ms in bodies for m in ms]
        # One source per tree passes its value to a virtual call through the
        # root, so its slice spans the tree; the others are never read.
        # Fixed counts of both kinds keep the slicing work seed-stable.
        spanning = rng.randrange(1, len(tree_methods))
        dead = rng.sample(
            [(k, i) for k in range(len(tree_methods)) for i in range(3, stmts_each - 1)],
            _TREE_SOURCES - 1)
        for k, m in enumerate(tree_methods):
            if k == 0:
                b.plant(m, raw=t % 2 == 0)
            if k == spanning:
                b.source(m, "$v0")
                vname, arity = rng.choice([v for v in _VIRTUALS if v[1]])
                m.body.append(f"$v1 = call {names[0]}.{vname}({', '.join(['$v0'] * arity)})")
            sources = {i for mk, i in dead if mk == k}
            _hierarchy_body(b, deck, m, names, tree_methods, sources, stmts_each)
        for j, cname in enumerate(names):
            parent = _TREE_SHAPE[j]
            superclass = "java.lang.Object" if parent is None else names[parent]
            classes.append((cname, superclass, ["f0", "f1"], bodies[j]))
    return b.workload(classes)


def _hierarchy_body(b: _Emitter, deck: _Deck, m: _Method, names: list[str],
                    tree_methods: list[_Method], sources: set[int], stmts_each: int) -> None:
    rng = b.rng
    live = list(m.params)
    loop_floor = len(m.body)  # planted statements stay outside loops

    def arg() -> str:
        # Never pass a parameter on: parameter-to-parameter chains make the
        # ParamIn edge count swing with the seed.
        return rng.choice(live[len(m.params):] or live)

    for i in range(len(m.body), stmts_each - 1):
        v = f"$v{i}"
        if i in sources:
            b.source(m, v)
            continue
        kind = deck.draw()
        if not live:
            kind = "const"
        if kind == "virtual":
            vname, arity = rng.choice(_VIRTUALS)
            args = ", ".join(arg() for _ in range(arity))
            m.body.append(f"{v} = call {rng.choice(names)}.{vname}({args})")
        elif kind == "direct":
            callee = rng.choice(tree_methods)
            args = ", ".join(arg() for _ in callee.params)
            m.body.append(f"{v} = call {callee.cls}.{callee.name}({args})")
        elif kind == "loop" and i > loop_floor + 2:
            m.body.append(f"if {rng.choice(live)} goto {rng.randrange(max(loop_floor, i - 12), i)}")
        elif kind == "skip" and i + 2 < stmts_each:
            cond = rng.choice(live)
            m.body.append(f"if {cond} goto {rng.randrange(i + 1, min(stmts_each, i + 8))}")
        elif kind == "store":
            m.body.append(f"store {m.cls}.f{rng.randrange(2)} = {rng.choice(live)}")
        elif kind == "load":
            m.body.append(f"{v} = load {m.cls}.f{rng.randrange(2)}")
        elif kind == "sink":
            m.body.append(f"call {rng.choice(list(SINKS))}({rng.choice(live)})")
        elif kind == "sanitizer":
            m.body.append(f"{v} = call {rng.choice(SANITIZERS)}({rng.choice(live)})")
        elif kind == "copy":
            m.body.append(f"{v} = {rng.choice(live)}")
        elif kind == "opaque":
            m.body.append(f"{v} = call {rng.choice(OPAQUE)}({rng.choice(live)})")
        else:
            m.body.append(f'{v} = "k{i}"')
        if not m.body[-1].startswith(("if ", "store ", "call ")):
            live.append(v)
    m.body.append(f"return {rng.choice(live)}" if live and rng.random() < 0.7 else "return")


# ---------------------------------------------------------------------------
# labels-dense: loop-free UI-form code, many sources and sinks
# ---------------------------------------------------------------------------

_SCREEN_MIX = {"widget": 0.06, "source": 0.04, "sink": 0.10, "sanitizer": 0.04,
               "helper": 0.12, "branch": 0.06, "copy": 0.25, "opaque": 0.30, "const": 0.03}
_SCREENS = 16  # per form class
_SCREEN_STMTS = 24
_HELPERS = 2  # per form class
_HELPER_STMTS = 12


def gen_labels(rng: random.Random, n_forms: int = 25) -> Workload:
    """~10k statements in form classes. Screens call only their own
    class's helpers and helpers call nothing, which bounds fan-out. No
    field operations and no backward jumps; 6% widget reads (55% of them
    named with a lexicon keyword), 4% system sources, 10% sinks."""
    b = _Emitter(rng)
    deck = _Deck(rng, _SCREEN_MIX, n_forms * _SCREENS * _SCREEN_STMTS)
    classes = []
    for c in range(n_forms):
        cname = f"ui.Form{c}"
        hs = [_Method(cname, f"helper{h}", tuple(f"p{i}" for i in range(1 + h % 2)))
              for h in range(_HELPERS)]
        for h in hs:
            live = list(h.params)
            for i in range(_HELPER_STMTS - 1):
                v = f"$v{i}"
                if rng.random() < 0.5:
                    h.body.append(f"{v} = call {rng.choice(OPAQUE)}({rng.choice(live)})")
                else:
                    h.body.append(f"{v} = {rng.choice(live)}")
                live.append(v)
            h.body.append(f"return {live[-1]}")
        ss = [_Method(cname, f"screen{s}", _params(rng)) for s in range(_SCREENS)]
        for s, m in enumerate(ss):
            if s == 0:
                b.plant(m, raw=c % 2 == 0)
            _screen_body(b, deck, m, hs, _SCREEN_STMTS)
        classes.append((cname, "android.app.Activity", [], hs + ss))
    return b.workload(classes)


def _screen_body(b: _Emitter, deck: _Deck, m: _Method, helpers: list[_Method],
                 n_stmts: int) -> None:
    rng = b.rng
    live = list(m.params)

    def pick() -> str:
        # recent values, so data travels from reads to sinks
        return rng.choice(live[-3:] if rng.random() < 0.6 else live)

    for i in range(len(m.body), n_stmts - 1):
        v = f"$v{i}"
        kind = deck.draw()
        if not live and kind not in ("widget", "source"):
            kind = "const"
        if kind == "widget":
            b.widget_read(m, v, matching=rng.random() < 0.55)
        elif kind == "source":
            b.source(m, v)
        elif kind == "sink":
            m.body.append(f"call {rng.choice(list(SINKS))}({pick()})")
        elif kind == "sanitizer":
            m.body.append(f"{v} = call {rng.choice(SANITIZERS)}({pick()})")
        elif kind == "helper":
            h = rng.choice(helpers)
            m.body.append(f"{v} = call {h.cls}.{h.name}({', '.join(pick() for _ in h.params)})")
        elif kind == "branch" and i + 2 < n_stmts:
            m.body.append(f"if {pick()} goto {rng.randrange(i + 1, n_stmts)}")
        elif kind == "copy":
            m.body.append(f"{v} = {pick()}")
        elif kind == "opaque":
            m.body.append(f"{v} = call {rng.choice(OPAQUE)}({pick()})")
        else:
            m.body.append(f'{v} = "k{i}"')
        if not m.body[-1].startswith(("if ", "call ")):
            live.append(v)
    m.body.append("return")


GENERATORS = {
    "desk-20k": gen_desk,
    "hierarchy-loops": gen_hierarchy,
    "labels-dense": gen_labels,
}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; the same pair gives the same text."""
    return GENERATORS[name](random.Random(f"{name}/{seed}"))
