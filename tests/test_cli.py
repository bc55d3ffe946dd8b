import copy
import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MUTUAL_EXTENDS, SELF_EXTENDS, time_limit
from gen import SANITIZER_SIGS, SINK_SIGS, SOURCE_SIGS, gen_program, registry_json
import pdaudit.cli as cli
from pdaudit.cli import UsageError, _bundled, cmd_analyze, main, make_parser
from pdaudit.ir import Call, Goto, If, PirError, print_program
from pdaudit.registry import RegistryError
from pdaudit.report import RiskOverflowError
from pdaudit.taint import TaintError
from regen_goldens import analyze_args, perf_inputs

FIXTURES = Path(__file__).parent / "fixtures"
REG = FIXTURES / "registries"


def registry_flags(tmp_out):
    return [
        "--sources", str(REG / "sources.json"),
        "--sinks", str(REG / "sinks.json"),
        "--sanitizers", str(REG / "sanitizers.json"),
        "--lexicon", str(REG / "lexicon.json"),
        "--dpv", str(REG / "dpv.json"),
        "--out", str(tmp_out),
    ]


def run_analyze(fixture, tmp_out, *extra):
    return main(["analyze", str(FIXTURES / fixture)] + registry_flags(tmp_out) + list(extra))


def test_analyze_fixture_a_gates_at_threshold(tmp_path, capsys):
    code = run_analyze("a.pir", tmp_path / "out", "--fail-threshold", "5")
    assert code == 1  # risk 6 >= 5
    out = capsys.readouterr().out
    assert "EmailAddress -> Tracker (Analytics)" in out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "slice_0.dot").exists()


def test_analyze_b_prime_passes_threshold(tmp_path):
    code = run_analyze("b_prime.pir", tmp_path / "out", "--fail-threshold", "5")
    assert code == 0  # risk 2 < 5
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["findings"][0]["kind"] == "PseudonymizedFlow"


def test_missing_registry_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "analyze",
            str(FIXTURES / "a.pir"),
            "--sources", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_parse_error_exits_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.pir"
    bad.write_text("class X extends {\n", encoding="utf-8")
    code = main(["analyze", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.pir:1:" in err


def test_json_errors_flag(tmp_path, capsys):
    bad = tmp_path / "bad.pir"
    bad.write_text("class", encoding="utf-8")
    code = main(["analyze", str(bad), "--json-errors", "--out", str(tmp_path / "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParseError"
    assert payload["line"] == 1


def test_validate_clean_fixture(tmp_path, capsys):
    code = main(
        ["validate", str(FIXTURES / "b.pir")]
        + registry_flags(tmp_path / "unused")[:10]  # registries and DPV map, no --out
    )
    assert code == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_warnings_but_passes(tmp_path, capsys):
    src = tmp_path / "warn.pir"
    src.write_text(
        "class C extends D { method void f() { 0: call x.Y.g($ghost) 1: return } }",
        encoding="utf-8",
    )
    code = main(["validate", str(src)])
    assert code == 0
    assert "$ghost" in capsys.readouterr().out


def test_validate_errors_exit_1(tmp_path, capsys):
    src = tmp_path / "dup.pir"
    src.write_text(
        "class C extends D { method void f() { 0: return } method void f() { 0: return } }",
        encoding="utf-8",
    )
    code = main(["validate", str(src)])
    assert code == 1
    assert "duplicate method" in capsys.readouterr().out


def test_analyze_rejects_ir_errors(tmp_path, capsys):
    src = tmp_path / "dup.pir"
    src.write_text(
        "class C extends D { method void f() { 0: return } method void f() { 0: return } }",
        encoding="utf-8",
    )
    code = main(["analyze", str(src), "--out", str(tmp_path / "out")])
    assert code == 2


def test_print_canonicalizes(tmp_path, capsys):
    src = tmp_path / "messy.pir"
    src.write_text(
        "class C extends D {method void f(){0:$a=\"x\"\n1:return}}", encoding="utf-8"
    )
    code = main(["print", str(src)])
    assert code == 0
    out = capsys.readouterr().out
    assert out == 'class C extends D {\n  method void f() {\n    0: $a = "x"\n    1: return\n  }\n}\n'


def test_config_file_supplies_paths_and_risk(tmp_path):
    cfg = {
        "sources": str(REG / "sources.json"),
        "sinks": str(REG / "sinks.json"),
        "sanitizers": str(REG / "sanitizers.json"),
        "lexicon": str(REG / "lexicon.json"),
        "dpv": str(REG / "dpv.json"),
        "out": str(tmp_path / "from_config"),
        "fail_threshold": 100.0,
        "risk": {"sink_mult": {"Analytics": 10.0}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["analyze", str(FIXTURES / "a.pir"), "--config", str(cfg_path)])
    assert code == 0  # threshold 100 not reached
    report = json.loads((tmp_path / "from_config" / "report.json").read_text())
    assert report["findings"][0]["risk"] == 20.0  # 1 x 2 x 10


def test_flags_win_over_config(tmp_path):
    cfg = {"out": str(tmp_path / "config_out"), "fail_threshold": 100.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(
        ["analyze", str(FIXTURES / "a.pir"), "--config", str(cfg_path)]
        + registry_flags(tmp_path / "flag_out")
    )
    assert code == 0
    assert (tmp_path / "flag_out" / "report.json").exists()
    assert not (tmp_path / "config_out").exists()


def test_toml_config(tmp_path):
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(f'fail_threshold = 100.0\nout = "{tmp_path / "toml_out"}"\n')
    code = main(
        ["analyze", str(FIXTURES / "a.pir"), "--config", str(cfg_path)]
        + registry_flags(tmp_path / "toml_out")[:-2]
        + ["--out", str(tmp_path / "toml_out")]
    )
    assert code == 0
    assert (tmp_path / "toml_out" / "report.json").exists()


def test_negative_threshold_rejected(tmp_path):
    assert run_analyze("a.pir", tmp_path / "out", "--fail-threshold", "-1") == 2


def test_nan_threshold_rejected(tmp_path, capsys):
    assert run_analyze("a.pir", tmp_path / "out", "--fail-threshold", "nan") == 2
    assert "--fail-threshold" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nan_threshold_in_config_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"fail_threshold": NaN}', encoding="utf-8")
    code = main(
        ["analyze", str(FIXTURES / "a.pir"), "--config", str(cfg_path)]
        + registry_flags(tmp_path / "out")
    )
    assert code == 2
    assert "--fail-threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "validate", "print"])
def test_non_utf8_pir_exits_2_with_position(tmp_path, capsys, command):
    bad = tmp_path / "bad.pir"
    bad.write_bytes((FIXTURES / "a.pir").read_bytes() + b"\xff\xfe")
    lines = bad.read_bytes().count(b"\n")
    extra = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    code = main([command, str(bad), *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{bad}:{lines + 1}:1: expected valid UTF-8\n"


@pytest.mark.parametrize("command", ["analyze", "validate", "print"])
def test_non_utf8_pir_json_errors(tmp_path, capsys, command):
    bad = tmp_path / "bad.pir"
    bad.write_bytes(b"class C extends D {\n  \xff }\n")
    extra = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    code = main([command, str(bad), "--json-errors", *extra])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParseError"
    assert (payload["line"], payload["col"]) == (2, 3)
    assert payload["expected"] == "valid UTF-8"
    assert payload["file"] == str(bad)


def _assert_exit_2(code, capsys, json_errors, error, text, file=None):
    """Exit 2 with error/text on stderr, reported against file if given."""
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if json_errors:
        payload = json.loads(captured.err)
        assert payload["error"] == error
        assert text in payload["message"]
        if file is not None:
            assert payload["file"] == str(file)
    else:
        assert text in captured.err
        assert "Traceback" not in captured.err
        if file is not None:
            assert captured.err.startswith(f"{file}: ")


@pytest.mark.parametrize("json_errors", [False, True])
def test_dpv_map_not_an_object_exits_2(tmp_path, capsys, json_errors):
    dpv = tmp_path / "dpv.json"
    dpv.write_text("[]", encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", "--dpv", str(dpv), *flags)
    _assert_exit_2(code, capsys, json_errors, "MalformedRegistryError",
                   f"{dpv}: top level must be an object")


@pytest.mark.parametrize("json_errors", [False, True])
def test_non_string_sink_match_exits_2(tmp_path, capsys, json_errors):
    sinks = tmp_path / "sinks.json"
    sinks.write_text('{"entries": [{"match": 7, "kind": "Log"}]}', encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", "--sinks", str(sinks), *flags)
    _assert_exit_2(code, capsys, json_errors, "MalformedRegistryError",
                   "sink match must be a string")


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("name", [{"x": 1}, 5])
def test_non_string_sink_name_exits_2(tmp_path, capsys, name, command, json_errors):
    # the bundled sinks file with one Analytics recipient name mistyped
    data = json.loads(_bundled("sinks.json").read_text(encoding="utf-8"))
    entry = next(e for e in data["entries"] if e["kind"] == "Analytics")
    entry["name"] = name
    sinks = tmp_path / "sinks.json"
    sinks.write_text(json.dumps(data), encoding="utf-8")
    flags = ["--sinks", str(sinks)] + (["--json-errors"] if json_errors else [])
    if command == "analyze":
        flags += ["--out", str(tmp_path / "out")]
    code = main([command, str(FIXTURES / "a.pir"), *flags])
    _assert_exit_2(code, capsys, json_errors, "MalformedRegistryError",
                   f"{sinks}: sink name must be a string")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("json_errors", [False, True])
def test_taint_engine_error_exits_2(tmp_path, capsys, monkeypatch, json_errors):
    from pdaudit.taint import FixpointBudgetExceededError

    def exceed(p, cg, labels, san):
        raise FixpointBudgetExceededError("fixpoint exceeded 1 statement visits")

    monkeypatch.setattr(cli, "propagate", exceed)
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", *flags)
    _assert_exit_2(code, capsys, json_errors, "FixpointBudgetExceededError",
                   "fixpoint exceeded 1 statement visits")
    assert not (tmp_path / "out").exists()


# One instance of each input error type main handles, and the file it is
# reported against (None: the PIR file).
INPUT_ERRORS = [
    (PirError("bad program"), None), (RegistryError("r.json", "bad registry"), "r.json"),
    (RiskOverflowError("overflow"), None), (TaintError("engine fault"), None),
    (UsageError("bad value"), None), (UsageError("bad key", file="c.json"), "c.json"),
    (OSError("cannot write"), None),
    (OSError(errno.EACCES, "Permission denied", "out/report.json"), "out/report.json"),
]


def test_input_errors_cover_the_handled_types():
    # OSError(errno.EACCES, ...) is a PermissionError, a handled subclass
    assert all(isinstance(e, cli._INPUT_ERRORS) for e, _ in INPUT_ERRORS)
    assert set(cli._INPUT_ERRORS) <= {type(e) for e, _ in INPUT_ERRORS}


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("command", ["analyze", "validate", "print"])
@pytest.mark.parametrize("exc, file", INPUT_ERRORS,
                         ids=[f"{type(e).__name__}-{f}" for e, f in INPUT_ERRORS])
def test_each_input_error_from_inside_a_command_exits_2(tmp_path, capsys, monkeypatch, exc, file,
                                                        command, json_errors):
    """main's one handler covers each command's whole run, and names the
    error's own file if it carries one, else the PIR file."""
    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "_read_pir", fail)
    pir = str(FIXTURES / "b.pir")
    flags = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    flags += ["--json-errors"] if json_errors else []
    code = main([command, pir, *flags])
    # the text form gives an OSError's file once, as its prefix, before its strerror
    text = exc.strerror if file and isinstance(exc, OSError) and not json_errors else str(exc)
    _assert_exit_2(code, capsys, json_errors, type(exc).__name__, text, file=file or pir)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize(
    "config, text",
    [
        ('{"risk": []}', "config key 'risk' must be an object"),
        ('{"risk": {"status_mult": []}}', "config key 'risk.status_mult' must be an object"),
        ('{"fail_threshold": "abc"}', "config key 'fail_threshold' must be a number"),
        ('{"risk": {"sink_mult": {"Log": "x"}}}', "config key 'risk.sink_mult.Log' must be a number"),
        ("[1, 2]", "cfg.json: top level must be an object"),
        ('{"fail_threshold": 1' + "0" * 400 + "}",
         "config key 'fail_threshold' is an integer too large for a float"),
        ('{"out": "a\\u0000"}', "config key 'out' must not contain a NUL character"),
    ],
)
def test_mistyped_config_exits_2(tmp_path, capsys, config, text, json_errors):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config, encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", "--config", str(cfg_path), *flags)
    _assert_exit_2(code, capsys, json_errors, "UsageError", text, file=cfg_path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize(
    "name, data, text",
    [
        ("cfg.toml", b"x = = 1\n", "cfg.toml: Invalid value"),
        ("cfg.json", b'{"out": "\xff"}', "cfg.json: invalid UTF-8 at byte 9"),
    ],
)
def test_undecodable_config_exits_2(tmp_path, capsys, name, data, text, json_errors):
    cfg_path = tmp_path / name
    cfg_path.write_bytes(data)
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", "--config", str(cfg_path), *flags)
    _assert_exit_2(code, capsys, json_errors, "UsageError", text, file=cfg_path)


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize(
    "config, text",
    [
        ("{", "invalid JSON"),
        (None, "cannot read"),
        ('{"fail_threshold": NaN}', "--fail-threshold must be a number >= 0"),
    ],
)
def test_unreadable_config_names_config_file(tmp_path, capsys, config, text, json_errors):
    cfg_path = tmp_path / "cfg.json"
    if config is not None:
        cfg_path.write_text(config, encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", "--config", str(cfg_path), *flags)
    _assert_exit_2(code, capsys, json_errors, "UsageError", text, file=cfg_path)


@pytest.mark.parametrize("json_errors", [False, True])
def test_errors_outside_config_name_pir_file(tmp_path, capsys, json_errors):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"fail_threshold": 1.0}', encoding="utf-8")
    flags = ["--config", str(cfg_path)] + (["--json-errors"] if json_errors else [])
    code = run_analyze("a.pir", tmp_path / "out", "--fail-threshold", "nan", *flags)
    _assert_exit_2(code, capsys, json_errors, "UsageError", "--fail-threshold",
                   file=FIXTURES / "a.pir")
    bad = tmp_path / "bad.pir"
    bad.write_text("class X extends {\n", encoding="utf-8")
    code = main(["analyze", str(bad), "--out", str(tmp_path / "out"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert (json.loads(err)["file"] if json_errors else err.split(":")[0]) == str(bad)


FLAG_ERRORS = [
    ("analyze", ["--fail-threshold", "abc"], "argument --fail-threshold: invalid float value: 'abc'"),
    ("validate", ["--config"], "argument --config: expected one argument"),
    ("print", ["--json-errors=yes"], "argument --json-errors: ignored explicit argument 'yes'"),
] + [(command, ["--bogus", "1"], "unrecognized arguments: --bogus 1")
     for command in ("analyze", "validate", "print")]


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("command, bad, message", FLAG_ERRORS)
def test_flag_errors_exit_2(tmp_path, capsys, command, bad, message, json_errors):
    """A bad flag value or an unknown flag exits 2 with argparse's usage
    text, or with one UsageError object under --json-errors."""
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    flags = ["--json-errors"] if json_errors else []
    argv = [command, str(FIXTURES / "b.pir"), *out, *flags, *bad]
    if json_errors:
        assert main(argv) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if json_errors:
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": "UsageError", "message": message, "file": None}
    else:
        assert captured.err.startswith("usage: pdaudit")
        assert captured.err.endswith(f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_json_errors_after_double_dash_is_an_operand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["print", str(FIXTURES / "b.pir"), "--bogus", "--", "--json-errors"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pdaudit") and "unrecognized arguments: --bogus" in err


BAD_FACTORS = ["-1.0", "-0.5", "NaN", "Infinity", "-Infinity", "true", "1" + "0" * 400]


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("weight", BAD_FACTORS)
def test_bad_category_weight_exits_2(tmp_path, capsys, weight, json_errors):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(
        '{"entries": {"email": "EmailAddress"}, "weights": {"EmailAddress": %s}}' % weight,
        encoding="utf-8",
    )
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", "--lexicon", str(lexicon), *flags)
    _assert_exit_2(code, capsys, json_errors, "MalformedRegistryError",
                   f"{lexicon}: weight of category 'EmailAddress' must be a finite number >= 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("value", BAD_FACTORS)
@pytest.mark.parametrize(
    "template, key",
    [
        ('{"risk": {"status_mult": {"Raw": %s}}}', "risk.status_mult.Raw"),
        ('{"risk": {"sink_mult": {"Analytics": %s}}}', "risk.sink_mult.Analytics"),
        ('{"risk": {"no_egress_mult": %s}}', "risk.no_egress_mult"),
    ],
)
def test_bad_risk_multiplier_exits_2(tmp_path, capsys, template, key, value, json_errors):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(template % value, encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", "--config", str(cfg_path), *flags)
    must = "number" if value == "true" else "finite number >= 0"
    text = f"config key {key!r} must be a {must}"
    _assert_exit_2(code, capsys, json_errors, "UsageError", text, file=cfg_path)
    assert not (tmp_path / "out").exists()


HUGE_INT = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize(
    "body, error, text",
    [
        (f"{HUGE_INT}: return", "ParseError", "expected statement index 0"),
        (f"0: goto {HUGE_INT}", "InvalidTargetError", "C.f/0: jump target out of range"),
    ],
)
def test_huge_statement_index_exits_2(tmp_path, capsys, body, error, text, json_errors):
    bad = tmp_path / "bad.pir"
    bad.write_text("class C extends D { method void f() { %s } }" % body, encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = main(["analyze", str(bad), "--out", str(tmp_path / "out"), *flags])
    _assert_exit_2(code, capsys, json_errors, error, text)


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("slot", ["sources", "sinks", "sanitizers", "lexicon", "dpv", "config"])
def test_huge_json_integer_exits_2(tmp_path, capsys, slot, json_errors):
    path = tmp_path / f"{slot}.json"
    path.write_text('{"n": %s}' % HUGE_INT, encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("a.pir", tmp_path / "out", f"--{slot}", str(path), *flags)
    error = "UsageError" if slot == "config" else "MalformedRegistryError"
    _assert_exit_2(code, capsys, json_errors, error, f"{path}: invalid JSON", file=path)
    assert not (tmp_path / "out").exists()


_BAD_JSON_FILES = {
    "utf8-first-byte": ("f.json", b"\xff\xfe", "invalid UTF-8 at byte 0"),
    "utf8-in-string": ("f.json", b'{"n": "\xc3"}', "invalid UTF-8 at byte 7"),
    "deep-json": ("f.json", b"[" * 200_000, "invalid JSON: nested too deeply"),
    "lone-high-surrogate": ("f.json", b'{"n": ["\\ud800"]}', "invalid JSON: unpaired surrogate U+D800"),
    "lone-low-surrogate-key": ("f.json", b'{"n": {"a\\udc00": 1}}',
                               "invalid JSON: unpaired surrogate U+DC00"),
    "reversed-surrogate-pair": ("f.json", b'{"n": "\\ude00\\ud83d"}',
                                "invalid JSON: unpaired surrogate U+DE00"),
}
_BAD_INPUT_FILES = [
    pytest.param(slot, *bad, id=f"{slot}-{kind}")
    for slot in ("sources", "sinks", "sanitizers", "lexicon", "dpv", "config")
    for kind, bad in _BAD_JSON_FILES.items()
] + [pytest.param("config", "f.toml", b"x = " + b"[" * 200_000,
                  "invalid TOML: nested too deeply", id="config-deep-toml")]


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("slot, name, data, text", _BAD_INPUT_FILES)
def test_undecodable_or_too_deep_input_file_exits_2(tmp_path, capsys, slot, command, name, data,
                                                     text, json_errors):
    """Bad UTF-8, a \\uD800-style escape that leaves an unpaired surrogate
    (no UTF-8 text holds one) or a nesting past the recursion limit, in any
    registry file or the config file, is an input error (exit 2), never a
    traceback with exit 1, which means findings."""
    path = tmp_path / name
    path.write_bytes(data)
    flags = [f"--{slot}", str(path)] + (["--json-errors"] if json_errors else [])
    if command == "analyze":
        flags += ["--out", str(tmp_path / "out")]
    code = main([command, str(FIXTURES / "a.pir"), *flags])
    error = "UsageError" if slot == "config" else "MalformedRegistryError"
    _assert_exit_2(code, capsys, json_errors, error, f"{path}: {text}", file=path)
    assert not (tmp_path / "out").exists()


def test_surrogate_pair_escape_still_loads(tmp_path):
    """A valid pair, \\ud83d\\ude00, is one character: it loads, and
    reaches report.json and the output directory's name."""
    smile = "\U0001F600"
    dpv_map = json.loads((REG / "dpv.json").read_text(encoding="utf-8"))
    dpv_map["sink_kinds"]["Analytics"] = smile
    dpv = tmp_path / "dpv.json"
    dpv.write_text(json.dumps(dpv_map), encoding="ascii")  # ensure_ascii writes the pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(tmp_path / f"out{smile}")}), encoding="ascii")
    assert "\\ud83d\\ude00" in dpv.read_text() and "\\ud83d\\ude00" in config.read_text()
    flags = registry_flags(tmp_path / "unused")[:-2] + ["--dpv", str(dpv), "--config", str(config)]
    assert main(["analyze", str(FIXTURES / "a.pir"), *flags]) == 1
    assert smile in (tmp_path / f"out{smile}" / "report.json").read_text(encoding="utf-8")
    assert main(["validate", str(FIXTURES / "a.pir"), *flags]) == 0


# ---------------------------------------------------------------------------
# Totality on registry and config input
# ---------------------------------------------------------------------------

# Each slot is (file, path of keys and list indexes into its base object);
# the empty path replaces the whole file.
_SOURCE_SIG = "android.location.LocationManager.getLastKnownLocation"
_SLOTS = [
    ("sources", ()), ("sources", ("entries",)), ("sources", ("entries", _SOURCE_SIG)),
    ("sinks", ()), ("sinks", ("entries",)), ("sinks", ("entries", 0)),
    ("sinks", ("entries", 0, "match")), ("sinks", ("entries", 0, "kind")),
    ("sinks", ("entries", 0, "name")), ("sinks", ("entries", 2, "name")),
    ("sanitizers", ()), ("sanitizers", ("entries",)), ("sanitizers", ("entries", 0)),
    ("lexicon", ()), ("lexicon", ("entries",)), ("lexicon", ("entries", "email")),
    ("lexicon", ("weights",)), ("lexicon", ("weights", "Location")),
    ("dpv", ()), ("dpv", ("categories",)), ("dpv", ("categories", "Location")),
    ("dpv", ("sink_kinds",)), ("dpv", ("sink_kinds", "Analytics")),
    ("dpv", ("collection",)), ("dpv", ("pseudonymisation",)),
    ("config", ()), ("config", ("fail_threshold",)), ("config", ("risk",)),
    ("config", ("risk", "status_mult")), ("config", ("risk", "status_mult", "Raw")),
    ("config", ("risk", "sink_mult")), ("config", ("risk", "sink_mult", "Analytics")),
    ("config", ("risk", "no_egress_mult")),
    *(("config", (key,)) for key in ("sources", "sinks", "sanitizers", "lexicon", "dpv", "out")),
]
_BASE_CONFIG = {
    **{name: f"{name}.json" for name in ("sources", "sinks", "sanitizers", "lexicon", "dpv")},
    "out": "out",
    "fail_threshold": 1.0,
    "risk": {"status_mult": {"Raw": 2.0}, "sink_mult": {"Analytics": 3.0}, "no_egress_mult": 0.5},
}
# Strings, as registry words and as paths: a path stays inside the working
# directory, since no string holds "/" or "..".
_WORDS = st.text(alphabet="aZé_*\x00 ", max_size=4) | st.sampled_from(
    ["Analytics", "ThirdParty", "Network", "Storage", "Log", "Raw", "Pseudonymized", "Location",
     "EmailAddress", "email", "com.analytics.*", ".*", "com.app.Crypto.hash", _SOURCE_SIG]
)
_JSON_TEXT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORDS, inner, max_size=3),
    max_leaves=8,
).map(json.dumps)
_MARK = "\x01slot"


def _with_slot(base, path, value_text: str) -> str:
    """base as JSON text, with value_text at path."""
    obj = copy.deepcopy(base)
    if path:
        inner = obj
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = _MARK
    else:
        obj = _MARK
    return json.dumps(obj).replace(json.dumps(_MARK), value_text)


@settings(max_examples=150, deadline=None)
@given(slot=st.sampled_from(_SLOTS), value=_JSON_TEXT, json_errors=st.booleans())
@example(slot=("sinks", ("entries", 0, "name")), value='{"x": 1}', json_errors=False)
@example(slot=("sinks", ("entries", 0, "name")), value="5", json_errors=True)
@example(slot=("lexicon", ("weights", "Location")), value="1e308", json_errors=False)
@example(slot=("lexicon", ("weights", "Location")), value="1" + "0" * 400, json_errors=False)
@example(slot=("config", ("fail_threshold",)), value="1" + "0" * 400, json_errors=True)
@example(slot=("dpv", ("collection",)), value=HUGE_INT, json_errors=False)
@example(slot=("config", ("risk", "no_egress_mult")), value=HUGE_INT, json_errors=True)
@example(slot=("config", ("sources",)), value='"a\\u0000"', json_errors=False)
@example(slot=("config", ("out",)), value='"a\\u0000"', json_errors=True)
@example(slot=("config", ("dpv",)), value='"missing.json"', json_errors=False)
def test_registry_and_config_input_is_total(slot, value, json_errors):
    """Any JSON value in any registry slot or config key: analyze and
    validate exit 0, 1 or 2 and never raise, and exit 2 writes a message
    (a JSON one under --json-errors)."""
    bases = {name: json.loads((REG / f"{name}.json").read_text(encoding="utf-8"))
             for name in ("sources", "sinks", "sanitizers", "lexicon", "dpv")}
    bases["lexicon"]["weights"] = {"Location": 1.0}
    bases["config"] = _BASE_CONFIG
    pir = "\n".join((FIXTURES / f).read_text(encoding="utf-8") for f in ("a.pir", "b.pir"))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, base in bases.items():
                text = _with_slot(base, slot[1], value) if name == slot[0] else json.dumps(base)
                Path(f"{name}.json").write_text(text, encoding="utf-8")
            Path("app.pir").write_text(pir, encoding="utf-8")
            flags = ["--config", "config.json"] + (["--json-errors"] if json_errors else [])
            codes = {}
            for command in ("analyze", "validate"):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = codes[command] = main([command, "app.pir", *flags])
                assert code in (0, 1, 2), (command, code)
                if code == 2:
                    assert err.getvalue()
                    if json_errors:
                        assert "error" in json.loads(err.getvalue())
            if slot != ("config", ("out",)):  # only analyze writes
                assert (codes["analyze"] == 2) == (codes["validate"] == 2), codes
        finally:
            os.chdir(cwd)


# ---------------------------------------------------------------------------
# Totality on PIR input
# ---------------------------------------------------------------------------

_REGISTRY_CALLEES = sorted({*SOURCE_SIGS, *SINK_SIGS, *SANITIZER_SIGS})
_GEN_DPV = {
    "categories": {c: f"iri:{c}" for c in ("Location", "DeviceId", "Name", "EmailAddress",
                                           "PhoneNumber")},
    "sink_kinds": {k: f"iri:{k}" for k in ("ThirdParty", "Analytics", "Network", "Storage",
                                           "Log")},
    "collection": "iri:collect",
    "pseudonymisation": "iri:pseudo",
}


def _mutate(p, rng, mutation):
    """p with one mutation applied in place: a jump moved anywhere in its
    body, a callee renamed to a registry source, sink or sanitizer, a class
    made to extend a program class (itself included; half the time a
    renamed copy of a class is added first, so that cycles of two classes
    and chains into a cycle occur), or a class or method duplicated."""
    cls = rng.choice(p.classes)
    m = rng.choice(cls.methods)
    if mutation == "extends":
        if rng.random() < 0.5:
            twin = copy.deepcopy(cls)
            twin.name = f"{cls.name}{len(p.classes)}"
            p.classes.append(twin)
        rng.choice(p.classes).superclass = rng.choice(p.classes).name
    elif mutation == "jump":
        jumps = [s for s in m.body if isinstance(s, (If, Goto))]
        if jumps:
            rng.choice(jumps).target = rng.randrange(len(m.body))
    elif mutation == "callee":
        calls = [s for s in m.body if isinstance(s, Call)]
        if calls:
            rng.choice(calls).callee = rng.choice(_REGISTRY_CALLEES)
    elif mutation == "class":
        p.classes.append(copy.deepcopy(cls))
    else:
        cls.methods.append(copy.deepcopy(m))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.sampled_from(["jump", "callee", "extends"]), max_size=8),
       duplicate=st.sampled_from([None, None, "class", "method"]),
       json_errors=st.booleans(),
       text=st.none())
@example(seed=0, edits=[], duplicate=None, json_errors=False, text=SELF_EXTENDS)
@example(seed=0, edits=[], duplicate=None, json_errors=True, text=MUTUAL_EXTENDS)
def test_pir_input_is_total(seed, edits, duplicate, json_errors, text):
    """Generated programs with loops and recursion, mutated and printed, or
    the PIR text of an example: analyze and validate exit 0, 1 or 2 within
    a time limit and never raise, and exit 2 writes a message (a JSON one
    under --json-errors). Half the programs hold no duplicate, so that they
    reach the analysis."""
    if text is None:
        rng = random.Random(seed)
        p = gen_program(rng, allow_loops=True, allow_recursion=True)
        for mutation in edits + [duplicate] * (duplicate is not None):
            _mutate(p, rng, mutation)
        text = print_program(p)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            registries = {**registry_json(), "dpv": _GEN_DPV}
            for name, data in registries.items():
                Path(f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
            Path("app.pir").write_text(text, encoding="utf-8")
            flags = [arg for name in registries for arg in (f"--{name}", f"{name}.json")]
            flags += ["--json-errors"] if json_errors else []
            for command in ("analyze", "validate"):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err), time_limit(10):
                    code = main([command, "app.pir", *flags])
                assert code in (0, 1, 2), (command, code)
                if code == 2:
                    assert err.getvalue()
                    if json_errors:
                        assert "error" in json.loads(err.getvalue())
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("text, cycle", [(SELF_EXTENDS, "A extends A"),
                                         (MUTUAL_EXTENDS, "A extends B extends A")])
def test_cyclic_hierarchy_exits_2(tmp_path, capsys, text, cycle, json_errors):
    pir = tmp_path / "app.pir"
    pir.write_text(text, encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    with time_limit(5):
        code = main(["analyze", str(pir), "--out", str(tmp_path / "out"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    message = json.loads(err)["message"] if json_errors else err
    assert f"cyclic inheritance: {cycle}" in message
    assert not (tmp_path / "out").exists()
    assert main(["validate", str(pir)]) == 1
    assert capsys.readouterr().out == f"Error: A: cyclic inheritance: {cycle}\n"


def test_analyze_leaves_no_cyclic_garbage_and_keeps_the_collector_state(tmp_path):
    """cmd_analyze runs with the cyclic collector off, and leaves nothing
    for it: after an analysis of every fixture, and of a generated
    desk-scale program, gc.collect() finds no unreachable object. (main's
    argparse parser holds reference cycles of its own, so the args are
    parsed before the count starts.) main restores the collector's state,
    on or off."""
    runs = [analyze_args(pir, tmp_path / pir.stem) for pir in sorted(FIXTURES.glob("*.pir"))]
    runs.append(perf_inputs(tmp_path, n_methods=40)[1])
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        for argv in runs:
            args = make_parser().parse_args(argv)
            gc.collect()
            with redirect_stdout(io.StringIO()):
                assert cmd_analyze(args) == 0
            assert gc.collect() == 0, argv[1]
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            with redirect_stdout(io.StringIO()):
                main(runs[0])
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_zero_weight_and_multiplier_allowed(tmp_path):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text('{"entries": {"email": "EmailAddress"}, "weights": {"EmailAddress": 0}}',
                       encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"risk": {"sink_mult": {"Analytics": 0.0}, "no_egress_mult": 0}}',
                        encoding="utf-8")
    code = run_analyze("a.pir", tmp_path / "out", "--lexicon", str(lexicon),
                       "--config", str(cfg_path), "--fail-threshold", "0.5")
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [f["risk"] for f in report["findings"]] == [0.0]


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize(
    "lexicon, config, category",
    [
        ('{"weights": {"Location": 1e308}}', None, "Location"),
        # every category overflows; the first by name is reported
        (None, '{"risk": {"status_mult": {"Raw": 1e308}}}', "BirthDate"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_overflowing_risk_exits_2(tmp_path, capsys, lexicon, config, category, json_errors,
                                  command):
    # each factor is finite, but weight x status x sink multiplier is not
    flags = ["--json-errors"] if json_errors else []
    if command == "analyze":
        flags += ["--out", str(tmp_path / "out")]
    for name, text in (("lexicon", lexicon), ("config", config)):
        if text is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            flags += [f"--{name}", str(path)]
    code = main([command, str(FIXTURES / "b.pir"), *flags])
    _assert_exit_2(code, capsys, json_errors, "RiskOverflowError",
                   f"risk of category {category!r} is not a finite number",
                   file=FIXTURES / "b.pir")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_unreadable_dpv_map_in_config_exits_2(tmp_path, capsys, monkeypatch, command,
                                              json_errors):
    monkeypatch.chdir(tmp_path)
    Path("d.json").write_text('{"dpv": "missing.json"}', encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = main([command, str(FIXTURES / "b.pir"), "--config", "d.json", *flags])
    _assert_exit_2(code, capsys, json_errors, "MalformedRegistryError",
                   "missing.json: cannot read", file="missing.json")
    assert not Path("pdaudit-out").exists()


def _without_collection(dpv: dict) -> dict:
    return {k: v for k, v in dpv.items() if k != "collection"}


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize(
    "slot, edit, error, text",
    [
        ("sinks", lambda d: {"entries": d["entries"] + d["entries"][:1]},
         "ConflictingEntryError", "conflicting registry entry: com.analytics.*"),
        ("sanitizers", lambda d: {"entries": ["a.B.c", "a.B.c"]},
         "ConflictingEntryError", "conflicting registry entry: a.B.c"),
        ("sanitizers", lambda d: {"entries": [_SOURCE_SIG]},
         "ConflictingEntryError", f"conflicting registry entry: {_SOURCE_SIG}"),
        ("dpv", _without_collection, "MissingMappingError",
         "DPV map lacks entries for: collection"),
    ],
    ids=["sinks-duplicate", "sanitizers-duplicate", "sanitizers-source", "dpv-missing"],
)
def test_registry_and_dpv_errors_name_their_own_file(tmp_path, capsys, slot, edit, error, text,
                                                      command, json_errors):
    """A conflicting registry entry or a missing DPV mapping is reported
    against the registry or DPV map file that holds it, not the PIR file."""
    path = tmp_path / f"{slot}.json"
    path.write_text(json.dumps(edit(json.loads((REG / f"{slot}.json").read_text()))),
                    encoding="utf-8")
    flags = registry_flags(tmp_path / "out")
    if command == "validate":
        flags = flags[:-2]  # no --out
    flags += [f"--{slot}", str(path)] + (["--json-errors"] if json_errors else [])
    code = main([command, str(FIXTURES / "a.pir"), *flags])
    _assert_exit_2(code, capsys, json_errors, error, text, file=path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("slot, data, reason", [
    ("sinks", {"entries": 5}, "entries must be a list"),
    ("dpv", {"categories": 5}, "categories must map names to IRI strings"),
])
def test_malformed_registry_names_its_file_once_in_text(tmp_path, capsys, slot, data, reason,
                                                        command):
    """A malformed registry's message starts with its file, and the text
    form adds no second copy of it."""
    path = tmp_path / f"{slot}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    flags = [f"--{slot}", str(path)]
    if command == "analyze":
        flags += ["--out", str(tmp_path / "out")]
    code = main([command, str(FIXTURES / "b.pir"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"{path}: {reason}\n"
    assert err.count(str(path)) == 1


def _missing_pir(tmp_path):
    path = tmp_path / "nonexistent.pir"
    return ["analyze", str(path), "--out", str(tmp_path / "o")], path


def _directory_pir(tmp_path):
    path = tmp_path / "app_dir"
    path.mkdir()
    return ["print", str(path)], path


def _out_is_a_file(tmp_path):
    path = tmp_path / "out"
    path.write_text("x", encoding="utf-8")
    return ["analyze", str(FIXTURES / "b.pir"), "--out", str(path)], path


def _missing_registry(tmp_path):
    path = tmp_path / "missing.json"
    return ["analyze", str(FIXTURES / "b.pir"), "--sinks", str(path),
            "--out", str(tmp_path / "o")], path


def _bad_config(name, text):
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return ["analyze", str(FIXTURES / "b.pir"), "--config", str(path),
                "--out", str(tmp_path / "o")], path
    return make


@pytest.mark.parametrize("make, reason", [
    (_missing_pir, "No such file or directory"),
    (_directory_pir, "Is a directory"),
    (_out_is_a_file, "File exists"),
    (_missing_registry, "cannot read: No such file or directory"),
    (_bad_config("cfg.json", "{"), "invalid JSON: "),
    (_bad_config("cfg.toml", "x = = 1\n"), "Invalid value"),
], ids=["missing-pir", "directory-pir", "out-file", "missing-registry", "json-config",
        "toml-config"])
def test_file_errors_name_their_file_once_in_text(tmp_path, capsys, make, reason):
    """A failed read or write, and a config file that does not parse, are
    reported as '<file>: <reason>', with the file named nowhere else."""
    argv, path = make(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: {reason}")
    assert err.count(str(path)) == 1 and err.count(path.name) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("json_errors", [False, True])
def test_failed_write_under_out_names_the_output_file(tmp_path, capsys, json_errors):
    """--out naming an existing regular file fails in the write, and the
    error is reported against that file, not the PIR file."""
    out = tmp_path / "out"
    out.write_text("not a directory", encoding="utf-8")
    flags = ["--json-errors"] if json_errors else []
    code = run_analyze("b.pir", out, *flags)
    _assert_exit_2(code, capsys, json_errors, "FileExistsError", "File exists", file=out)
    assert out.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_dpv_map_must_cover_custom_sources(tmp_path, capsys, command):
    sources = tmp_path / "sources.json"
    sources.write_text('{"entries": {"ext.Sys.birthday": "BirthDate"}}', encoding="utf-8")
    dpv = json.loads((REG / "dpv.json").read_text(encoding="utf-8"))
    flags = [*registry_flags(tmp_path / "out"), "--sources", str(sources)]
    if command == "validate":
        flags = flags[:-4] + flags[-2:]  # no --out
    code = main([command, str(FIXTURES / "b.pir"), *flags])
    _assert_exit_2(code, capsys, False, "MissingMappingError",
                   "DPV map lacks entries for: category BirthDate")

    dpv["categories"]["BirthDate"] = "https://w3id.org/dpv/pd#Birthdate"
    (tmp_path / "dpv.json").write_text(json.dumps(dpv), encoding="utf-8")
    code = main([command, str(FIXTURES / "b.pir"), *flags, "--dpv", str(tmp_path / "dpv.json")])
    assert code == 0


def test_large_finite_risk_is_written(tmp_path):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text('{"weights": {"Location": 1e300}}', encoding="utf-8")
    code = main(["analyze", str(FIXTURES / "b.pir"), "--lexicon", str(lexicon),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    assert json.loads(text)["findings"][0]["risk"] == 4e300  # 1e300 x Raw 2 x Network 2


def test_each_registry_file_read_once(tmp_path, monkeypatch):
    # the input digest hashes the registry text that was analysed
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(Path(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert run_analyze("a.pir", tmp_path / "out") == 1
    names = ("sources", "sinks", "sanitizers", "lexicon", "dpv")
    assert sorted(reads) == sorted(REG / f"{name}.json" for name in names)


def test_bundled_registries_are_the_default(tmp_path, capsys):
    # fixture B's source/sink are covered by the bundled seeds
    code = main(
        ["analyze", str(FIXTURES / "b.pir"), "--out", str(tmp_path / "out"),
         "--fail-threshold", "99"]
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["findings"][0]["kind"] == "RawFlow"
    assert report["findings"][0]["source"]["category"] == "Location"


def test_console_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pdaudit.cli", "print", str(FIXTURES / "a.pir")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "com.app.Main" in result.stdout


def _closed_stdout_run(argv: list[str], unbuffered: bool,
                       target: str) -> subprocess.CompletedProcess:
    """argv run as a `python -m pdaudit.cli` child whose stdout cannot be
    written: for target "pipe" a pipe whose read end is closed before the
    child starts, for "full" /dev/full, on which every write fails with
    ENOSPC."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if target == "pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
    else:
        write_end = os.open("/dev/full", os.O_WRONLY)
    try:
        return subprocess.run([sys.executable, "-m", "pdaudit.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """PIR files larger than a pipe buffer (64 KiB): a generated program
    with its registries, and a program with 2,000 validate warnings."""
    tmp = tmp_path_factory.mktemp("large")
    _, argv = perf_inputs(tmp, n_methods=60)
    warnings = tmp / "warnings.pir"
    calls = " ".join(f"{i}: call x.Y.g($ghost)" for i in range(2000))
    warnings.write_text("class C extends D { method void f() { %s 2000: return } }" % calls,
                        encoding="utf-8")
    return Path(argv[1]), argv[2:-4], warnings


@pytest.mark.parametrize("target", ["pipe", "full"])
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("size", ["fixture", "large"])
@pytest.mark.parametrize("command", ["analyze", "validate", "print"])
def test_closed_stdout_exits_2(tmp_path, large_inputs, command, size, json_errors, unbuffered,
                               target):
    """A closed stdout, or one on a full device, is a failed write: exit 2
    with one message on stderr, never exit 1 (findings), exit 120 (a failed
    flush at interpreter exit) or a traceback, whether the write fails in
    the command or at the final flush, and whatever the size of the
    output."""
    if target == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    big_pir, registries, warnings = large_inputs
    if command == "validate":
        if size == "fixture":
            pir = tmp_path / "warn.pir"
            pir.write_text("class C extends D { method void f() { 0: call x.Y.g($ghost) "
                           "1: return } }", encoding="utf-8")
        else:
            pir = warnings
        flags = []
    else:
        pir = FIXTURES / "b.pir" if size == "fixture" else big_pir
        flags = registries if size == "large" and command == "analyze" else []
    if command == "analyze":
        flags = [*flags, "--out", str(tmp_path / "out")]
    flags += ["--json-errors"] if json_errors else []
    result = _closed_stdout_run([command, str(pir), *flags], unbuffered, target)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
    error, message = {"pipe": ("BrokenPipeError", "[Errno 32] Broken pipe"),
                      "full": ("OSError", "[Errno 28] No space left on device")}[target]
    if json_errors:
        assert json.loads(result.stderr) == {"error": error, "message": message,
                                             "file": str(pir)}
    else:
        assert result.stderr == f"{pir}: {message}\n"


def test_no_color_env(monkeypatch):
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("PDAUDIT_NO_COLOR", raising=False)
    assert cli._use_color()
    monkeypatch.setenv("PDAUDIT_NO_COLOR", "1")
    assert not cli._use_color()
