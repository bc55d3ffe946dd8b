"""Source/sink/sanitizer registries, the keyword lexicon, and source labelling.

Registries are plain JSON data, not code: which calls acquire personal data,
which calls move it out of the app, and which calls pseudonymize it are all
configuration. The package ships replaceable seed files under
``pdaudit/data/``.

File formats:

    sources.json     { "entries": { "<signature>": "<Category>" } }
    sinks.json       { "entries": [ { "match": "<sig | prefix.*>",
                                      "kind": "Analytics", "name": "Tracker" } ] }
    sanitizers.json  { "entries": [ "<signature>" ] }
    lexicon.json     { "entries": { "<keyword>": "<Category>" },
                       "weights": { "<Category>": 2.0 } }

Sink kinds are ThirdParty, Analytics, Network, Storage and Log; ThirdParty
and Analytics entries must carry a recipient name, and a name is a string.
An exact ``match`` beats any prefix; among prefixes the longest wins.
"""

from __future__ import annotations

import json
import re
import sys
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .ir import Call, Loc, Program, Record


class RegistryError(Exception):
    """Base class for registry and DPV map loading errors; file is the
    registry or DPV map file the error is in."""

    def __init__(self, file: Union[str, Path], message: str):
        super().__init__(message)
        self.file = str(file)


class MalformedRegistryError(RegistryError):
    def __init__(self, file: Union[str, Path], reason: str):
        super().__init__(file, f"{file}: {reason}")


class ConflictingEntryError(RegistryError):
    def __init__(self, file: Union[str, Path], signature: str):
        super().__init__(file, f"conflicting registry entry: {signature}")


class PersonalDataCategory(NamedTuple):
    name: str
    weight: float = 1.0


class SinkKind(Enum):
    THIRD_PARTY = "ThirdParty"
    ANALYTICS = "Analytics"
    NETWORK = "Network"
    STORAGE = "Storage"
    LOG = "Log"


class SinkMatch(NamedTuple):
    kind: SinkKind
    name: Optional[str]  # recipient, for ThirdParty/Analytics


class SourceRegistry(Record):
    """Like the other registries, a record whose == and repr leave out
    canonical, the text the report's input digest hashes."""

    _fields = ("entries",)

    def __init__(self, entries: dict[str, PersonalDataCategory], canonical: str = ""):
        self.entries, self.canonical = entries, canonical

    def category_for(self, signature: str) -> Optional[PersonalDataCategory]:
        return self.entries.get(signature)


class SinkRegistry(Record):
    _fields = ("exact", "prefixes")

    def __init__(self, exact: dict[str, SinkMatch], prefixes: dict[str, SinkMatch],
                 canonical: str = ""):
        self.exact = exact
        self.prefixes = prefixes  # key includes the trailing dot
        self.canonical = canonical

    def match(self, signature: str) -> Optional[SinkMatch]:
        hit = self.exact.get(signature)
        if hit is not None:
            return hit
        best: Optional[str] = None
        for prefix in self.prefixes:
            if signature.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        return self.prefixes[best] if best is not None else None


class SanitizerRegistry(Record):
    _fields = ("entries",)

    def __init__(self, entries: frozenset[str], canonical: str = ""):
        self.entries, self.canonical = entries, canonical

    def __contains__(self, signature: str) -> bool:
        return signature in self.entries


class Lexicon(Record):
    _fields = ("entries",)

    def __init__(self, entries: dict[str, PersonalDataCategory], canonical: str = ""):
        self.entries, self.canonical = entries, canonical


class Origin(NamedTuple):
    """How a source acquires personal data: a system API, or user input
    read from a widget whose text matched a lexicon keyword."""

    kind: str  # "SystemApi" | "UserInput"
    widget: Optional[str] = None
    keyword: Optional[str] = None


class SourceLabel(NamedTuple):
    id: int
    location: Loc
    category: PersonalDataCategory
    origin: Origin


_SURROGATE = re.compile("[\ud800-\udfff]")


def parse_json(text: str):
    """json.loads(text), refusing any string, key or value, that holds an
    unpaired surrogate. A \\uD800-style escape spells one; no UTF-8 file,
    file name or report can hold it. json.loads joins a valid surrogate
    pair into one character, so any surrogate left is unpaired. Raises
    ValueError for bad JSON, as json.loads does, and RecursionError for
    nesting past the recursion limit."""
    data = json.loads(text)
    work = [data]
    while work:  # no recursion: data may be nested nearly to the limit
        x = work.pop()
        if isinstance(x, str):
            m = _SURROGATE.search(x)
            if m:
                raise ValueError(f"unpaired surrogate U+{ord(m[0]):04X} in a string")
        elif isinstance(x, dict):
            work += x
            work += x.values()
        elif isinstance(x, list):
            work += x
    return data


def _read_text(path: Union[str, Path]) -> str:
    """The file's UTF-8 text. A failure is a MalformedRegistryError, whose
    message starts with path, so its reason does not name the file again."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise MalformedRegistryError(path, f"invalid UTF-8 at byte {e.start}") from None
    except OSError as e:
        raise MalformedRegistryError(path, f"cannot read: {e.strerror}") from None


def _read_json(path: Union[str, Path]) -> dict:
    raw = _read_text(path)
    try:
        data = parse_json(raw)
    except ValueError as e:  # bad JSON, an integer too long for int(), a lone surrogate
        raise MalformedRegistryError(path, f"invalid JSON: {e}") from None
    except RecursionError:
        raise MalformedRegistryError(path, "invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise MalformedRegistryError(path, "top level must be an object")
    return data


def canonical_text(data: dict) -> str:
    """The text of a loaded registry file that the report's input digest
    hashes: the parsed object with sorted keys, so formatting is ignored."""
    return json.dumps(data, sort_keys=True)


def is_factor(value) -> bool:
    """A category weight or risk multiplier: a finite number >= 0, not a bool."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value <= sys.float_info.max
    )


def _categories(
    source_entries: dict[str, str], lexicon_entries: dict[str, str], weights: dict[str, float]
) -> dict[str, PersonalDataCategory]:
    cats: dict[str, PersonalDataCategory] = {}
    for name in sorted(set(source_entries.values()) | set(lexicon_entries.values()) | set(weights)):
        cats[name] = PersonalDataCategory(name, float(weights.get(name, 1.0)))
    return cats


def load_registries(
    sources_path: Union[str, Path],
    sinks_path: Union[str, Path],
    sanitizers_path: Union[str, Path],
    lexicon_path: Union[str, Path],
) -> tuple[SourceRegistry, SinkRegistry, SanitizerRegistry, Lexicon]:
    """Load and cross-validate the four registry files."""
    src_data = _read_json(sources_path)
    src_entries = src_data.get("entries", {})
    if not isinstance(src_entries, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in src_entries.items()
    ):
        raise MalformedRegistryError(sources_path, "entries must map signature -> category")

    lex_data = _read_json(lexicon_path)
    lex_entries = lex_data.get("entries", {})
    if not isinstance(lex_entries, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in lex_entries.items()
    ):
        raise MalformedRegistryError(lexicon_path, "entries must map keyword -> category")
    for kw in lex_entries:
        if not kw or kw != kw.lower():
            raise MalformedRegistryError(lexicon_path, f"keyword {kw!r} must be non-empty lowercase")
    weights = lex_data.get("weights", {})
    if not isinstance(weights, dict) or not all(
        isinstance(k, str) and isinstance(v, (int, float)) for k, v in weights.items()
    ):
        raise MalformedRegistryError(lexicon_path, "weights must map category -> number")
    for name, value in weights.items():
        if not is_factor(value):
            raise MalformedRegistryError(
                lexicon_path,
                f"weight of category {name!r} must be a finite number >= 0, not {value!r}",
            )

    cats = _categories(src_entries, lex_entries, weights)
    sources = SourceRegistry(
        {sig: cats[cat] for sig, cat in src_entries.items()}, canonical_text(src_data)
    )
    lexicon = Lexicon({kw: cats[cat] for kw, cat in lex_entries.items()}, canonical_text(lex_data))

    sink_data = _read_json(sinks_path)
    sink_entries = sink_data.get("entries", [])
    if not isinstance(sink_entries, list):
        raise MalformedRegistryError(sinks_path, "entries must be a list")
    exact: dict[str, SinkMatch] = {}
    prefixes: dict[str, SinkMatch] = {}
    for entry in sink_entries:
        if not isinstance(entry, dict) or "match" not in entry or "kind" not in entry:
            raise MalformedRegistryError(sinks_path, f"bad sink entry: {entry!r}")
        try:
            kind = SinkKind(entry["kind"])
        except ValueError:
            raise MalformedRegistryError(sinks_path, f"unknown sink kind {entry['kind']!r}") from None
        name = entry.get("name")
        if name is not None and not isinstance(name, str):
            raise MalformedRegistryError(sinks_path, f"sink name must be a string: {entry!r}")
        if kind in (SinkKind.THIRD_PARTY, SinkKind.ANALYTICS) and not name:
            raise MalformedRegistryError(sinks_path, f"{kind.value} sink needs a name: {entry!r}")
        matcher = entry["match"]
        if not isinstance(matcher, str):
            raise MalformedRegistryError(sinks_path, f"sink match must be a string: {entry!r}")
        if matcher.endswith(".*"):
            key = matcher[:-1]  # keep the dot: "com.x.*" matches "com.x.C.m"
            if key in prefixes:
                raise ConflictingEntryError(sinks_path, matcher)
            prefixes[key] = SinkMatch(kind, name)
        else:
            if matcher in exact:
                raise ConflictingEntryError(sinks_path, matcher)
            exact[matcher] = SinkMatch(kind, name)
    sinks = SinkRegistry(exact, prefixes, canonical_text(sink_data))

    san_data = _read_json(sanitizers_path)
    san_entries = san_data.get("entries", [])
    if not isinstance(san_entries, list) or not all(isinstance(s, str) for s in san_entries):
        raise MalformedRegistryError(sanitizers_path, "entries must be a list of signatures")
    if len(set(san_entries)) != len(san_entries):
        dupe = next(s for s in san_entries if san_entries.count(s) > 1)
        raise ConflictingEntryError(sanitizers_path, dupe)
    for sig in san_entries:
        if sig in sources.entries:
            raise ConflictingEntryError(sanitizers_path, sig)
    sanitizers = SanitizerRegistry(frozenset(san_entries), canonical_text(san_data))

    return sources, sinks, sanitizers, lexicon


# ---------------------------------------------------------------------------
# Widget keyword matching
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def tokenize_widget(text: str) -> list[str]:
    """Lowercased tokens: split on '_', '-' and camelCase boundaries.

    "userPhoneNumber" -> ["user", "phone", "number"]; "email_input" ->
    ["email", "input"]; acronym runs stay together ("userID" -> ["user", "id"]).
    """
    tokens: list[str] = []
    for chunk in re.split(r"[_\-]+", text):
        tokens.extend(t.lower() for t in _TOKEN_RE.findall(chunk))
    return tokens


def match_keyword(
    widget_text: str, lex: Lexicon
) -> Optional[tuple[str, PersonalDataCategory]]:
    """The lexicographically smallest lexicon keyword equal to any token."""
    tokens = set(tokenize_widget(widget_text))
    hits = sorted(kw for kw in lex.entries if kw in tokens)
    if not hits:
        return None
    return hits[0], lex.entries[hits[0]]


# ---------------------------------------------------------------------------
# Labelling
# ---------------------------------------------------------------------------


def label_sources(p: Program, src: SourceRegistry, lex: Lexicon) -> list[SourceLabel]:
    """One label per personal-data-acquiring call statement.

    A registry signature match labels the call SystemApi; otherwise a widget
    annotation whose text matches a lexicon keyword labels it UserInput.
    A statement never carries two labels: the system match shadows the
    keyword match. Ids are assigned in (class, method, index) order from 0.
    """
    labels: list[SourceLabel] = []
    for loc, stmt in p.iter_locs():
        if not isinstance(stmt, Call):
            continue
        cat = src.category_for(stmt.callee)
        if cat is not None:
            labels.append(SourceLabel(len(labels), loc, cat, Origin("SystemApi")))
            continue
        if stmt.widget is not None:
            hit = match_keyword(stmt.widget, lex)
            if hit is not None:
                kw, kcat = hit
                labels.append(
                    SourceLabel(len(labels), loc, kcat, Origin("UserInput", stmt.widget, kw))
                )
    return labels
