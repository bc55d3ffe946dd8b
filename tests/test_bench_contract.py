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
