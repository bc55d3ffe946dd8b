"""Mapping technical findings onto data-protection-vocabulary IRIs.

The map is a bundled, user-replaceable JSON file: category and sink-kind
IRIs, a collection IRI (for data acquired but never egressed), and a
pseudonymisation technical-measure IRI. IRIs are opaque strings here; there
is deliberately no RDF machinery.

Schema:

    { "categories":  { "<Category>": "<IRI>", ... },
      "sink_kinds":  { "ThirdParty": "<IRI>", ..., "Log": "<IRI>" },
      "collection":  "<IRI>",
      "pseudonymisation": "<IRI>" }
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

from .ir import Record
from .registry import MalformedRegistryError, RegistryError, SourceLabel, _read_json, canonical_text
from .taint import Flow, Status


class MissingMappingError(RegistryError):
    def __init__(self, file: Union[str, Path], missing: list[str]):
        self.missing = missing
        super().__init__(file, f"DPV map lacks entries for: {', '.join(missing)}")


class DpvMap(Record):
    """canonical, the text the report's input digest hashes, is left out
    of == and repr."""

    _fields = ("category_iri", "sinkkind_iri", "collection_iri", "pseudonymisation_iri")

    def __init__(self, category_iri: dict[str, str], sinkkind_iri: dict[str, str],
                 collection_iri: str, pseudonymisation_iri: str, canonical: str = ""):
        self.category_iri, self.sinkkind_iri = category_iri, sinkkind_iri
        self.collection_iri, self.pseudonymisation_iri = collection_iri, pseudonymisation_iri
        self.canonical = canonical


class ComplianceStatement(NamedTuple):
    personal_data: str  # category IRI
    processing: str  # processing-operation IRI
    recipient: Optional[str]
    measures: tuple[str, ...]
    status: Status
    provenance: tuple  # ("flow", source id, sink location) | ("collection", label id)


def load_dpv_map(
    path: Union[str, Path],
    categories: Iterable[str] = (),
    sink_kinds: Iterable[str] = (),
) -> DpvMap:
    """Load the map and require totality over the given category and sink
    kind names (pass the ones your loaded registries can produce)."""
    raw = _read_json(path)
    cat_map = raw.get("categories", {})
    kind_map = raw.get("sink_kinds", {})
    for key, table in (("categories", cat_map), ("sink_kinds", kind_map)):
        if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
            raise MalformedRegistryError(path, f"{key} must map names to IRI strings")
    for key in ("collection", "pseudonymisation"):
        if key in raw and not isinstance(raw[key], str):
            raise MalformedRegistryError(path, f"{key} must be an IRI string")
    missing = [f"category {c}" for c in sorted(set(categories)) if c not in cat_map]
    missing += [f"sink kind {k}" for k in sorted(set(sink_kinds)) if k not in kind_map]
    if "collection" not in raw:
        missing.append("collection")
    if "pseudonymisation" not in raw:
        missing.append("pseudonymisation")
    if missing:
        raise MissingMappingError(path, missing)
    return DpvMap(dict(cat_map), dict(kind_map), raw["collection"], raw["pseudonymisation"],
                  canonical_text(raw))


def map_flow(item: Union[Flow, SourceLabel], m: DpvMap) -> ComplianceStatement:
    """A legal-language statement for a flow, or for an unsunk label
    (collection with no recipient)."""
    if isinstance(item, Flow):
        measures = (m.pseudonymisation_iri,) if item.status is Status.PSEUDONYMIZED else ()
        return ComplianceStatement(
            personal_data=m.category_iri[item.source.category.name],
            processing=m.sinkkind_iri[item.sink.kind.value],
            recipient=item.sink.name,
            measures=measures,
            status=item.status,
            provenance=("flow", item.source.id, item.sink.location),
        )
    return ComplianceStatement(
        personal_data=m.category_iri[item.category.name],
        processing=m.collection_iri,
        recipient=None,
        measures=(),
        status=Status.RAW,
        provenance=("collection", item.id),
    )
