"""pdaudit command line: parse -> label -> graph -> slice -> taint -> dpv -> report.

Subcommands:
  analyze   full pipeline; writes <out>/report.json and <out>/slice_<id>.dot
  validate  parse the IR, the registries and the DPV map, print diagnostics,
            no analysis
  print     canonical PIR to stdout

Exit codes:
  0  analyze: no finding with risk >= --fail-threshold; validate: no IR
     error among the diagnostics; print: the program was printed
  1  analyze: at least one finding at or above the threshold (report still
     written); validate: at least one IR error among the diagnostics
  2  any failure, with a message on stderr (a JSON object under
     --json-errors): a bad flag or config value; an unreadable or malformed
     PIR, registry, DPV map or config file; a category whose risk
     overflows a float; or a failed write, to the output directory or to
     stdout, a closed pipe or a full device included

An error message names the file the error is in, once: the registry, DPV
map or config file when the error is in one, the file a failed read or
write names (an output file under --out, say), else the PIR file. The
text form gives it as a '<file>: ' prefix, the JSON object as its "file"
member, and the message itself never repeats it.

Registry flags default to the bundled seed files. A --config file (JSON, or
TOML on installs with tomli/tomllib) may supply the same keys; explicit
flags win. PDAUDIT_NO_COLOR=1 disables ANSI color in the text summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Mapping
from pathlib import Path
from typing import Iterator, Optional

from .dpv import load_dpv_map
from .graph import build_call_graph, build_pdg
from .ir import (
    ParseError,
    PirError,
    Program,
    Severity,
    parse_program,
    print_program,
    validate,
)
from .registry import (
    MalformedRegistryError,
    RegistryError,
    SanitizerRegistry,
    SinkKind,
    SinkRegistry,
    SourceLabel,
    _read_json,
    _read_text,
    is_factor,
    label_sources,
    load_registries,
)
from .report import (
    AuditReport,
    ReportConfig,
    RiskOverflowError,
    build_report,
    check_risks_finite,
    input_digest,
    render_dot,
    report_json,
    serialize_report,
    summarize,
)
from .slicer import Slice, forward_slice
from .taint import Status, build_taint_result, propagate


def _bundled(name: str) -> Path:
    """The seed file name in the package's data directory."""
    return Path(__file__).parent / "data" / name


class Config:
    """The inputs and settings of a command; the registry paths default to
    the bundled seed files."""

    def __init__(
        self,
        sources: Path = _bundled("sources.json"),
        sinks: Path = _bundled("sinks.json"),
        sanitizers: Path = _bundled("sanitizers.json"),
        lexicon: Path = _bundled("lexicon.json"),
        dpv: Path = _bundled("dpv.json"),
        out: Path = Path("pdaudit-out"),
        fail_threshold: float = 0.0,
        risk: ReportConfig = ReportConfig(),
    ):
        self.sources, self.sinks, self.sanitizers = sources, sinks, sanitizers
        self.lexicon, self.dpv, self.out = lexicon, dpv, out
        self.fail_threshold, self.risk = fail_threshold, risk


class UsageError(Exception):
    """A bad flag or config value. file is the config file when the error is
    in it, else None, and main reports the error against the PIR file (or,
    for a bad command line under --json-errors, against no file)."""

    def __init__(self, message: str, file: Optional[str] = None):
        super().__init__(message)
        self.file = file


def _load_config_file(path: str) -> dict:
    """The config file's top-level table, read as the registry files are
    (JSON, or TOML by suffix). Its errors are UsageErrors whose message
    starts with path, as a registry error's does."""
    try:
        if Path(path).suffix not in (".toml", ".tml"):
            return _read_json(path)
        text = _read_text(path)
    except MalformedRegistryError as exc:
        raise UsageError(str(exc)) from None
    try:
        import tomllib  # type: ignore[import-not-found]
    except ModuleNotFoundError:
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ModuleNotFoundError:
            raise UsageError("TOML config needs Python 3.11+ or the tomli package") from None
    try:
        return tomllib.loads(text)
    except ValueError as exc:  # TOMLDecodeError, or an integer too long for int()
        raise UsageError(f"{path}: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path}: invalid TOML: nested too deeply") from None


def _table(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"config key {key!r} must be an object, not {type(value).__name__}")
    return value


def _number(value, key: str, factor: bool = False) -> float:
    """value as a float; a factor (risk multiplier) must also be finite and >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"config key {key!r} must be a number, not {type(value).__name__}")
    if factor and not is_factor(value):
        raise UsageError(f"config key {key!r} must be a finite number >= 0, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise UsageError(f"config key {key!r} is an integer too large for a float") from None


def _risk_config(raw) -> ReportConfig:
    raw = _table(raw, "risk")
    base = ReportConfig()
    status = dict(base.status_mult)
    for name, value in _table(raw.get("status_mult", {}), "risk.status_mult").items():
        key = {"Raw": Status.RAW, "Pseudonymized": Status.PSEUDONYMIZED}.get(name)
        if key is None:
            raise UsageError(f"unknown status multiplier {name!r}")
        status[key] = _number(value, f"risk.status_mult.{name}", factor=True)
    sink = dict(base.sink_mult)
    for name, value in _table(raw.get("sink_mult", {}), "risk.sink_mult").items():
        try:
            kind = SinkKind(name)
        except ValueError:
            raise UsageError(f"unknown sink kind {name!r}") from None
        sink[kind] = _number(value, f"risk.sink_mult.{name}", factor=True)
    no_egress = raw.get("no_egress_mult", base.no_egress_mult)
    return ReportConfig(
        status_mult=status,
        sink_mult=sink,
        no_egress_mult=_number(no_egress, "risk.no_egress_mult", factor=True),
    )


def _apply_config_file(cfg: Config, path: str) -> None:
    raw = _load_config_file(path)
    for key in ("sources", "sinks", "sanitizers", "lexicon", "dpv", "out"):
        if key in raw:
            if not isinstance(raw[key], str):
                raise UsageError(
                    f"config key {key!r} must be a string, not {type(raw[key]).__name__}"
                )
            if "\0" in raw[key]:  # no file name holds one; open() raises ValueError
                raise UsageError(f"config key {key!r} must not contain a NUL character")
            setattr(cfg, key, Path(raw[key]))
    if "fail_threshold" in raw:
        cfg.fail_threshold = _number(raw["fail_threshold"], "fail_threshold")
    if "risk" in raw:
        cfg.risk = _risk_config(raw["risk"])


def build_config(args: argparse.Namespace) -> Config:
    cfg = Config()
    if args.config is not None:
        try:
            _apply_config_file(cfg, args.config)
        except UsageError as exc:
            raise UsageError(str(exc), file=args.config) from None
    for key in ("sources", "sinks", "sanitizers", "lexicon", "dpv", "out"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, Path(value))
    threshold_flag = getattr(args, "fail_threshold", None)
    if threshold_flag is not None:
        cfg.fail_threshold = threshold_flag
    if not (cfg.fail_threshold >= 0):  # also rejects NaN, which no risk ever reaches
        raise UsageError(
            "--fail-threshold must be a number >= 0",
            file=args.config if threshold_flag is None else None,
        )
    return cfg


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class AnalysisArtifacts:
    """What an analysis writes: the report and each slice's DOT text by
    label id, a read-only mapping in label-id order.

    run_analysis gives a _SliceDots, which renders a slice's DOT text each
    time it is read and keeps none; it holds the graph and the slices until
    the artifacts are dropped. write_outputs writes any other mapping, a
    plain dict included, the same way. program is not kept, since nothing
    written reads it; it stays only because the traced benchmark
    (bench/layers.py) pins this signature."""

    def __init__(self, program: Program, report: AuditReport, dots: Mapping[int, str]):
        self.report, self.dots = report, dots


class _SliceDots(Mapping):
    """{label id: DOT text} of slices, in label-id order: reading key i
    returns render(slice i, None, labels, sinks, sanitizers), rendered then
    and not kept. render is report.render_dot, which does not read its
    program argument, so no Program is kept here."""

    def __init__(self, render, slices: list[Slice], labels: list[SourceLabel],
                 sinks: SinkRegistry, sanitizers: SanitizerRegistry):
        self._render, self._args = render, (labels, sinks, sanitizers)
        self._slices = {s.root.id: s for s in sorted(slices, key=lambda s: s.root.id)}

    def __getitem__(self, label_id: int) -> str:
        return self._render(self._slices[label_id], None, *self._args)

    def __iter__(self) -> Iterator[int]:
        return iter(self._slices)

    def __len__(self) -> int:
        return len(self._slices)


def run_analysis(pir_text: str | bytes, cfg: Config) -> AnalysisArtifacts:
    program = parse_program(pir_text)
    diags = validate(program)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        raise PirError("; ".join(str(d) for d in errors))

    sources, sinks, sanitizers, lexicon = load_registries(
        cfg.sources, cfg.sinks, cfg.sanitizers, cfg.lexicon
    )
    categories = {*sources.entries.values(), *lexicon.entries.values()}
    check_risks_finite(categories, cfg.risk)
    dpv_map = load_dpv_map(cfg.dpv, {c.name for c in categories}, [k.value for k in SinkKind])

    cg = build_call_graph(program)
    g = build_pdg(program, cg)
    labels = label_sources(program, sources, lexicon)
    rules = propagate(program, cg, labels, sanitizers)
    taint = build_taint_result(rules, program, sinks, g)
    del cg, rules  # not read after the flows
    slices = [forward_slice(g, label) for label in labels]

    digest = input_digest(
        print_program(program),
        *(r.canonical for r in (sources, sinks, sanitizers, lexicon, dpv_map)),
    )
    report = build_report(program, labels, slices, taint, dpv_map, sinks, digest, cfg.risk)
    return AnalysisArtifacts(program, report,
                             _SliceDots(render_dot, slices, labels, sinks, sanitizers))


def write_outputs(artifacts: AnalysisArtifacts, out_dir: Path) -> None:
    """Write report.json, then each slice's DOT file in label-id order.
    Each text is read from artifacts.dots just before its file is written
    and dropped once it is, so with run_analysis's mapping, which renders
    on read, no two DOT texts are alive at once."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(serialize_report(artifacts.report), encoding="utf-8")
    dots = artifacts.dots
    for label_id in dots:
        (out_dir / f"slice_{label_id}.dot").write_text(dots[label_id], encoding="utf-8")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _read_pir(path: str) -> bytes:
    """The PIR file's bytes, for parse_program to decode (so bad UTF-8 is a
    positioned ParseError), with line endings translated as text mode
    would: CR and LF bytes never occur inside a multi-byte UTF-8 sequence."""
    with open(path, "rb") as fh:  # an OSError names path as given
        return fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _emit_error(exc: Exception, args: argparse.Namespace) -> None:
    """Report exc on stderr against the file it is in: its own file when it
    carries one (a config, registry or DPV map error, or an OSError with a
    filename, such as a failed write under --out), else the PIR file. Both
    forms name the file once, apart from the message: an OSError with a
    filename gives its strerror, any other error its text without a
    leading '<file>: '."""
    own = getattr(exc, "file", None) or getattr(exc, "filename", None)
    source_file = args.pir if own is None else str(own)
    if isinstance(exc, OSError) and own is not None:
        text = exc.strerror
    else:
        text = str(exc).removeprefix(f"{source_file}: ")
    if args.json_errors:
        payload: dict = {"error": type(exc).__name__, "message": text, "file": source_file}
        if isinstance(exc, ParseError):
            payload["line"] = exc.line
            payload["col"] = exc.col
            payload["expected"] = exc.expected
        print(json.dumps(payload), file=sys.stderr)
    elif isinstance(exc, ParseError):
        print(f"{source_file}:{exc.line}:{exc.col}: expected {exc.expected}", file=sys.stderr)
    else:
        print(f"{source_file}: {text}", file=sys.stderr)


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("PDAUDIT_NO_COLOR")


def _add_registry_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sources", help="source registry JSON (default: bundled)")
    sp.add_argument("--sinks", help="sink registry JSON (default: bundled)")
    sp.add_argument("--sanitizers", help="sanitizer registry JSON (default: bundled)")
    sp.add_argument("--lexicon", help="keyword lexicon JSON (default: bundled)")
    sp.add_argument("--dpv", help="DPV map JSON (default: bundled)")
    sp.add_argument("--config", help="JSON/TOML config with the same keys; flags win")
    sp.add_argument("--json-errors", action="store_true", help="machine-readable errors")


class _FlagError(Exception):
    """A bad command line: args are the parser that found it and its message."""


class _Parser(argparse.ArgumentParser):
    """Raises _FlagError instead of printing usage and exiting, so main can
    report a bad command line as --json-errors asks."""

    def error(self, message: str):
        raise _FlagError(self, message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdaudit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run the full audit pipeline")
    an.add_argument("pir", help="PIR source file")
    _add_registry_flags(an)
    an.add_argument("--out", help="output directory (default: pdaudit-out)")
    an.add_argument("--fail-threshold", type=float, default=None,
                    help="exit 1 when any finding's risk reaches this (default 0)")

    va = sub.add_parser("validate", help="check the IR and registries only")
    va.add_argument("pir", help="PIR source file")
    _add_registry_flags(va)

    pr = sub.add_parser("print", help="canonical PIR to stdout")
    pr.add_argument("pir", help="PIR source file")
    pr.add_argument("--json-errors", action="store_true", help="machine-readable errors")
    return parser


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the pipeline, write the outputs and print the summary, with the
    cyclic garbage collector off.

    An analysis builds many long-lived objects and no reference cycle
    that needs the collector: gc.collect() after a run finds nothing
    unreachable, yet with it on each run pays for a few hundred
    collections that scan those objects and free nothing. The collector's
    previous state is restored on return, so an in-process caller keeps
    its own."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = build_config(args)
        pir_text = _read_pir(args.pir)
        artifacts = run_analysis(pir_text, cfg)
        write_outputs(artifacts, cfg.out)
        # the dict write_outputs serialized: report_json keeps it on the report
        print(summarize(report_json(artifacts.report), color=_use_color()), end="")
        over = [f for f in artifacts.report.findings if f.risk >= cfg.fail_threshold]
        return 1 if over else 0
    finally:
        if was_enabled:
            gc.enable()


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    pir_text = _read_pir(args.pir)
    program = parse_program(pir_text)
    sources, _, _, lexicon = load_registries(cfg.sources, cfg.sinks, cfg.sanitizers, cfg.lexicon)
    categories = {*sources.entries.values(), *lexicon.entries.values()}
    check_risks_finite(categories, cfg.risk)
    load_dpv_map(cfg.dpv, {c.name for c in categories}, [k.value for k in SinkKind])
    diags = validate(program)
    for d in diags:
        print(str(d))
    return 1 if any(d.severity is Severity.ERROR for d in diags) else 0


def cmd_print(args: argparse.Namespace) -> int:
    pir_text = _read_pir(args.pir)
    program = parse_program(pir_text)
    print(print_program(program), end="")
    return 0


# What a command may raise for bad input or a failed write; main reports
# each as exit 2. A failed write to stdout (BrokenPipeError, ENOSPC) is an OSError.
_INPUT_ERRORS = (PirError, RegistryError, RiskOverflowError, UsageError, OSError)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = make_parser().parse_args(argv)
    except _FlagError as exc:
        parser, message = exc.args
        words = argv[: argv.index("--")] if "--" in argv else argv  # operands follow "--"
        if "--json-errors" not in words:
            argparse.ArgumentParser.error(parser, message)  # usage text, exit 2
        _emit_error(UsageError(message), argparse.Namespace(pir=None, json_errors=True))
        return 2
    command = {"analyze": cmd_analyze, "validate": cmd_validate, "print": cmd_print}
    try:
        code = command[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here at the latest, not at exit
    except _INPUT_ERRORS as exc:
        _emit_error(exc, args)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout cannot be written (a closed pipe, a full device) and
            # still holds what it failed on. Point it at os.devnull, so that
            # the flush at interpreter exit cannot fail on it a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
