import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_A, FIXTURE_B
from pdaudit.registry import (
    ConflictingEntryError,
    Lexicon,
    MalformedRegistryError,
    Origin,
    PersonalDataCategory,
    SinkKind,
    label_sources,
    load_registries,
    match_keyword,
    tokenize_widget,
)
from pdaudit.ir import Loc, parse_program

DATA_DIR = Path(__file__).parent.parent / "src" / "pdaudit" / "data"


def write_registries(tmp_path, sources=None, sinks=None, sanitizers=None, lexicon=None):
    paths = {}
    contents = {
        "sources": sources if sources is not None else {"entries": {}},
        "sinks": sinks if sinks is not None else {"entries": []},
        "sanitizers": sanitizers if sanitizers is not None else {"entries": []},
        "lexicon": lexicon if lexicon is not None else {"entries": {}},
    }
    for name, data in contents.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = p
    return paths["sources"], paths["sinks"], paths["sanitizers"], paths["lexicon"]


def test_empty_files_yield_empty_registries(tmp_path):
    src, snk, san, lex = load_registries(*write_registries(tmp_path))
    assert src.entries == {}
    assert snk.match("a.B.c") is None
    assert "x.Y.z" not in san
    assert lex.entries == {}


def test_location_source_loads(tmp_path):
    paths = write_registries(
        tmp_path,
        sources={"entries": {"android.location.LocationManager.getLastKnownLocation": "Location"}},
    )
    src, _, _, _ = load_registries(*paths)
    cat = src.category_for("android.location.LocationManager.getLastKnownLocation")
    assert cat == PersonalDataCategory("Location", 1.0)


def test_source_sanitizer_overlap_conflicts(tmp_path):
    paths = write_registries(
        tmp_path,
        sources={"entries": {"x.Y.z": "Name"}},
        sanitizers={"entries": ["x.Y.z"]},
    )
    with pytest.raises(ConflictingEntryError):
        load_registries(*paths)


def test_duplicate_sink_matcher_conflicts(tmp_path):
    paths = write_registries(
        tmp_path,
        sinks={"entries": [{"match": "a.*", "kind": "Network"}, {"match": "a.*", "kind": "Log"}]},
    )
    with pytest.raises(ConflictingEntryError):
        load_registries(*paths)


def test_malformed_json_reports_path(tmp_path):
    ok = write_registries(tmp_path)
    bad = tmp_path / "sources.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(MalformedRegistryError) as e:
        load_registries(bad, ok[1], ok[2], ok[3])
    assert str(bad) == e.value.file


def test_analytics_sink_requires_name(tmp_path):
    paths = write_registries(tmp_path, sinks={"entries": [{"match": "a.B.c", "kind": "Analytics"}]})
    with pytest.raises(MalformedRegistryError):
        load_registries(*paths)


def test_exact_match_beats_prefix_and_longest_prefix_wins(tmp_path):
    paths = write_registries(
        tmp_path,
        sinks={
            "entries": [
                {"match": "com.a.*", "kind": "Log"},
                {"match": "com.a.b.*", "kind": "Storage"},
                {"match": "com.a.b.C.m", "kind": "Network"},
            ]
        },
    )
    _, snk, _, _ = load_registries(*paths)
    assert snk.match("com.a.b.C.m").kind is SinkKind.NETWORK
    assert snk.match("com.a.b.C.other").kind is SinkKind.STORAGE
    assert snk.match("com.a.X.y").kind is SinkKind.LOG
    assert snk.match("org.elsewhere.Z.z") is None


def test_category_weights_default_and_override(tmp_path):
    paths = write_registries(
        tmp_path,
        sources={"entries": {"a.B.c": "Location"}},
        lexicon={"entries": {"email": "EmailAddress"}, "weights": {"Location": 2.5}},
    )
    src, _, _, lex = load_registries(*paths)
    assert src.category_for("a.B.c").weight == 2.5
    assert lex.entries["email"].weight == 1.0


def test_bundled_seed_files_load():
    src, snk, san, lex = load_registries(
        DATA_DIR / "sources.json",
        DATA_DIR / "sinks.json",
        DATA_DIR / "sanitizers.json",
        DATA_DIR / "lexicon.json",
    )
    assert "android.location.LocationManager.getLastKnownLocation" in src.entries
    assert len(lex.entries) >= 40
    assert snk.match("com.analytics.Tracker.log").kind is SinkKind.ANALYTICS
    assert "java.security.MessageDigest.digest" in san


# ---------------------------------------------------------------------------
# Keyword matching
# ---------------------------------------------------------------------------

EMAIL_LEX = Lexicon({"email": PersonalDataCategory("EmailAddress")})
PHONE_LEX = Lexicon({"phone": PersonalDataCategory("PhoneNumber")})


def test_tokenizer():
    assert tokenize_widget("email_input") == ["email", "input"]
    assert tokenize_widget("userPhone") == ["user", "phone"]
    assert tokenize_widget("userPhoneNumber") == ["user", "phone", "number"]
    assert tokenize_widget("user-ID_2") == ["user", "id", "2"]
    assert tokenize_widget("") == []


def test_match_keyword_token_equality():
    assert match_keyword("email_input", EMAIL_LEX) == ("email", PersonalDataCategory("EmailAddress"))
    assert match_keyword("submit_button", EMAIL_LEX) is None
    # token equality, not substring: "id" must not fire inside "video"
    id_lex = Lexicon({"id": PersonalDataCategory("DeviceId")})
    assert match_keyword("videoView", id_lex) is None


def test_match_keyword_camel_case():
    # hand-tokenized: both carry a "phone" token, so both match
    assert match_keyword("userPhone", PHONE_LEX) == ("phone", PersonalDataCategory("PhoneNumber"))
    assert match_keyword("userPhoneNumber", PHONE_LEX) == (
        "phone",
        PersonalDataCategory("PhoneNumber"),
    )


def test_match_keyword_smallest_keyword_wins():
    lex = Lexicon(
        {
            "mail": PersonalDataCategory("EmailAddress"),
            "address": PersonalDataCategory("PhysicalAddress"),
        }
    )
    assert match_keyword("mail_address_input", lex)[0] == "address"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_match_keyword_total(text):
    match_keyword(text, EMAIL_LEX)


# ---------------------------------------------------------------------------
# Labelling
# ---------------------------------------------------------------------------


def fixture_lexicon():
    return Lexicon({"email": PersonalDataCategory("EmailAddress")})


def fixture_sources(tmp_path):
    paths = write_registries(
        tmp_path,
        sources={"entries": {"android.location.LocationManager.getLastKnownLocation": "Location"}},
        lexicon={"entries": {"email": "EmailAddress"}},
    )
    src, _, _, lex = load_registries(*paths)
    return src, lex


def test_label_fixture_a(tmp_path):
    src, lex = fixture_sources(tmp_path)
    labels = label_sources(parse_program(FIXTURE_A), src, lex)
    assert len(labels) == 1
    lab = labels[0]
    assert lab.id == 0
    assert lab.location == Loc("com.app.Main", "onCreate/0", 0)
    assert lab.category.name == "EmailAddress"
    assert lab.origin == Origin("UserInput", "email_input", "email")


def test_label_fixture_b(tmp_path):
    src, lex = fixture_sources(tmp_path)
    labels = label_sources(parse_program(FIXTURE_B), src, lex)
    assert len(labels) == 1
    lab = labels[0]
    assert lab.location == Loc("com.app.Loc", "send/1", 0)
    assert lab.category.name == "Location"
    assert lab.origin == Origin("SystemApi")


def test_label_no_calls_no_labels(tmp_path):
    src, lex = fixture_sources(tmp_path)
    p = parse_program('class C extends D { method void f() { 0: $a = "x" 1: return } }')
    assert label_sources(p, src, lex) == []


def test_system_match_shadows_keyword(tmp_path):
    src, lex = fixture_sources(tmp_path)
    p = parse_program(
        "class C extends D { method void f() {"
        ' 0: $a = call android.location.LocationManager.getLastKnownLocation() @widget("email")'
        " 1: return } }"
    )
    labels = label_sources(p, src, lex)
    assert len(labels) == 1
    assert labels[0].origin.kind == "SystemApi"
    assert labels[0].category.name == "Location"


def test_label_ids_are_location_ordered(tmp_path):
    src, lex = fixture_sources(tmp_path)
    p = parse_program(
        "class B extends E { method void f() {"
        " 0: $a = call android.location.LocationManager.getLastKnownLocation() 1: return } }"
        "class A extends E { method void g() {"
        ' 0: $b = call ui.Box.text() @widget("email") 1: return } }'
    )
    labels = label_sources(p, src, lex)
    assert [l.id for l in labels] == [0, 1]
    assert labels[0].location.cls == "A"
    assert labels[1].location.cls == "B"


def test_labelling_monotone_in_lexicon(tmp_path):
    src, lex = fixture_sources(tmp_path)
    bigger = Lexicon(dict(lex.entries) | {"zip": PersonalDataCategory("PhysicalAddress")})
    p = parse_program(FIXTURE_A)
    small = {(l.location, l.category.name) for l in label_sources(p, src, lex)}
    big = {(l.location, l.category.name) for l in label_sources(p, src, bigger)}
    assert small <= big
