"""The summary that ``scripts/bench_pairs.py`` writes for paired runs."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(side, pair, **values):
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    return {"side": side, "pair": pair, "result": {"metrics": metrics}}


def test_pairs_are_won_in_each_metrics_direction():
    runs = [
        _run("parent", 0, lines_per_s=100.0, peak_rss_mb=31.0),
        _run("change", 0, lines_per_s=110.0, peak_rss_mb=30.0),
        _run("change", 1, lines_per_s=90.0, peak_rss_mb=31.0),
        _run("parent", 1, lines_per_s=95.0, peak_rss_mb=31.0),  # a tie on rss
        _run("parent", 2, lines_per_s=80.0, peak_rss_mb=32.0),
        _run("change", 2, lines_per_s=85.0),  # no rss: left out of pair 2
    ]
    summary = _script().summarize(runs, {"lines_per_s": "higher", "peak_rss_mb": "lower",
                                         "setup_s": "lower"})
    assert sorted(summary) == ["lines_per_s", "peak_rss_mb"]
    speed, rss = summary["lines_per_s"], summary["peak_rss_mb"]
    assert (speed["pairs"], speed["change_won"], speed["parent_won"]) == (3, 2, 1)
    assert speed["parent"]["values"] == [100.0, 95.0, 80.0]
    assert speed["change"]["median"] == 90.0
    assert (rss["pairs"], rss["change_won"], rss["parent_won"]) == (2, 1, 0)
