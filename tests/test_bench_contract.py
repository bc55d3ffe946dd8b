"""The traced benchmark (bench/layers.py) calls the public stage functions
by name, with fixed parameters, in the order cli.run_analysis calls them.
Resolving them here makes a change that would break it fail with the tests."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_stage_signatures_and_order_match_the_traced_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    layers.load_api()  # raises StageError naming the first stage that no longer matches
