import json

import pytest

from conftest import FIXTURE_A, FIXTURE_B_PRIME, fixture_registries
from pdaudit.dpv import (
    ComplianceStatement,
    MissingMappingError,
    bundled_dpv_path,
    load_dpv_map,
    map_flow,
)
from pdaudit.graph import build_call_graph, build_pdg
from pdaudit.ir import parse_program
from pdaudit.registry import MalformedRegistryError, label_sources
from pdaudit.taint import Status, collect_flows, propagate, unsunk_labels

TEST_MAP = {
    "categories": {
        "EmailAddress": "iri:pd/email",
        "Location": "iri:pd/location",
    },
    "sink_kinds": {
        "ThirdParty": "iri:proc/disclose",
        "Analytics": "iri:proc/transfer",
        "Network": "iri:proc/transmit",
        "Storage": "iri:proc/store",
        "Log": "iri:proc/record",
    },
    "collection": "iri:proc/collect",
    "pseudonymisation": "iri:measure/pseudonymisation",
}


def write_map(tmp_path, data):
    p = tmp_path / "dpv.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    return p


def flows_for(text):
    sources, sinks, sanitizers, lexicon = fixture_registries()
    p = parse_program(text)
    cg = build_call_graph(p)
    g = build_pdg(p, cg)
    labels = label_sources(p, sources, lexicon)
    pr = propagate(p, cg, labels, sanitizers)
    return labels, collect_flows(pr, p, sinks, g)


def test_missing_category_rejected(tmp_path):
    data = dict(TEST_MAP, categories={"EmailAddress": "iri:pd/email"})
    path = write_map(tmp_path, data)
    with pytest.raises(MissingMappingError) as e:
        load_dpv_map(path, categories=["Location", "EmailAddress"], sink_kinds=["Network"])
    assert "category Location" in e.value.missing


@pytest.mark.parametrize(
    "data, reason",
    [
        ([TEST_MAP], "top level must be an object"),
        (dict(TEST_MAP, categories=["EmailAddress"]), "categories must map"),
        (dict(TEST_MAP, sink_kinds={"Log": 3}), "sink_kinds must map"),
        (dict(TEST_MAP, collection=None), "collection must be an IRI string"),
    ],
)
def test_malformed_map_rejected(tmp_path, data, reason):
    path = write_map(tmp_path, data)
    with pytest.raises(MalformedRegistryError) as e:
        load_dpv_map(path)
    assert reason in str(e.value)


def test_empty_registries_empty_map_is_valid(tmp_path):
    path = write_map(
        tmp_path,
        {"categories": {}, "sink_kinds": {}, "collection": "iri:c", "pseudonymisation": "iri:p"},
    )
    m = load_dpv_map(path)
    assert m.collection_iri == "iri:c"


def test_bundled_map_is_total_over_bundled_registries():
    from pathlib import Path

    from pdaudit.registry import SinkKind, load_registries

    data_dir = Path(__file__).parent.parent / "src" / "pdaudit" / "data"
    src, _, _, lex = load_registries(
        data_dir / "sources.json",
        data_dir / "sinks.json",
        data_dir / "sanitizers.json",
        data_dir / "lexicon.json",
    )
    cats = {c.name for c in src.entries.values()} | {c.name for c in lex.entries.values()}
    m = load_dpv_map(bundled_dpv_path(), cats, [k.value for k in SinkKind])
    assert m.category_iri["Location"].startswith("https://w3id.org/dpv")


def test_map_fixture_a_flow(tmp_path):
    path = write_map(tmp_path, TEST_MAP)
    m = load_dpv_map(path, ["EmailAddress", "Location"], ["Analytics", "Network"])
    _, flows = flows_for(FIXTURE_A)
    st = map_flow(flows[0], m)
    assert st == ComplianceStatement(
        personal_data="iri:pd/email",
        processing="iri:proc/transfer",
        recipient="Tracker",
        measures=(),
        status=Status.RAW,
        provenance=("flow", 0, flows[0].sink.location),
    )


def test_map_fixture_b_prime_flow_measures(tmp_path):
    path = write_map(tmp_path, TEST_MAP)
    m = load_dpv_map(path)
    _, flows = flows_for(FIXTURE_B_PRIME)
    st = map_flow(flows[0], m)
    assert st.measures == ("iri:measure/pseudonymisation",)
    assert st.status is Status.PSEUDONYMIZED
    assert st.recipient is None  # Network sinks have no named recipient


def test_map_unsunk_label(tmp_path):
    path = write_map(tmp_path, TEST_MAP)
    m = load_dpv_map(path)
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: return
  }
}
"""
    labels, flows = flows_for(src)
    unsunk = unsunk_labels(labels, flows)
    st = map_flow(unsunk[0], m)
    assert st.personal_data == "iri:pd/location"
    assert st.processing == "iri:proc/collect"
    assert st.recipient is None
    assert st.measures == ()
    assert st.provenance == ("collection", 0)


def test_map_flow_deterministic(tmp_path):
    path = write_map(tmp_path, TEST_MAP)
    m = load_dpv_map(path)
    _, flows = flows_for(FIXTURE_A)
    assert map_flow(flows[0], m) == map_flow(flows[0], m)
