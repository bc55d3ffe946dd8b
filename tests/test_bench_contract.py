"""The traced benchmark (bench/layers.py) calls the public stage functions
by name, with fixed parameters, in the order cli.run_analysis calls them,
and reads its counts from the graph, slice and call-graph views. Running it
here makes a change that would break it fail with the tests."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
FIXTURES = Path(__file__).parent / "fixtures"
REG = FIXTURES / "registries"
EDGE_KINDS = ("data_local", "data_field", "control", "call", "param_in", "return_out")


def test_stage_signatures_and_order_match_the_traced_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    layers.load_api()  # raises StageError naming the first stage that no longer matches


def test_traced_run_counts_are_benchmark_metrics(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    api = layers.load_api()
    cfg = api.Config(**{name: REG / f"{name}.json"
                        for name in ("sources", "sinks", "sanitizers", "lexicon", "dpv")})
    pir_text = (FIXTURES / "field_flow.pir").read_text(encoding="utf-8")
    counts = layers.traced_run(api, layers.Tracer(), pir_text, cfg, tmp_path / "out")
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(counts) <= per_layer, set(counts) - per_layer
    assert counts["graph.edges"] == sum(counts[f"graph.edges.{k}"] for k in EDGE_KINDS)
    assert counts["graph.edges.data_field"] > 0 and counts["slicer.edges_sum"] > 0


def test_traced_run_writes_the_bytes_the_cli_writes(monkeypatch, tmp_path):
    """The traced run renders the DOT texts into a plain dict and builds
    AnalysisArtifacts itself; write_outputs writes the same bytes from
    those as from the artifacts run_analysis returns, which render on
    read."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from regen_goldens import perf_inputs

    api = layers.load_api()
    perf_inputs(tmp_path, n_methods=20)
    cfg = api.Config(**{name: tmp_path / f"{name}.json"
                        for name in ("sources", "sinks", "sanitizers", "lexicon", "dpv")})
    pir_text = (tmp_path / "perf.pir").read_text(encoding="utf-8")
    layers.traced_run(api, layers.Tracer(), pir_text, cfg, tmp_path / "traced")
    api.write_outputs(api.run_analysis(pir_text, cfg), tmp_path / "cli")
    files = {d: {f.name: f.read_bytes() for f in (tmp_path / d).iterdir()}
             for d in ("traced", "cli")}
    assert len(files["cli"]) > 2 and files["traced"] == files["cli"]
