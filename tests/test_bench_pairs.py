"""The summary that ``scripts/bench_pairs.py`` writes for paired runs, the
checkout it refuses to run in, and the export it removes when stopped."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


END_TO_END = [{"name": "lines_per_s", "better": "higher", "bound": 0.24},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


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
    summary = _script().summarize(runs, END_TO_END)
    assert sorted(summary) == ["lines_per_s", "peak_rss_mb"]
    speed, rss = summary["lines_per_s"], summary["peak_rss_mb"]
    assert (speed["pairs"], speed["change_won"], speed["parent_won"]) == (3, 2, 1)
    assert speed["parent"]["values"] == [100.0, 95.0, 80.0]
    assert speed["change"]["median"] == 90.0
    assert (rss["pairs"], rss["change_won"], rss["parent_won"]) == (2, 1, 0)


def _pairs(parent, change, metric="lines_per_s"):
    return [run for pair, values in enumerate(zip(parent, change))
            for run in (_run("parent", pair, **{metric: values[0]}),
                        _run("change", pair, **{metric: values[1]}))]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]


def test_a_gain_needs_nine_pairs_in_ten_and_a_gap_beyond_the_parents_spread():
    summarize = _script().summarize
    wins = [value + 5.0 for value in PARENT]  # wins all ten, gap 5 > the IQR
    row = summarize(_pairs(PARENT, wins), END_TO_END)["lines_per_s"]
    q1, q3 = row["parent"]["q1"], row["parent"]["q3"]
    assert q3 - q1 < 5.0 and row["median_gap"] == 5.0
    assert row["gain_shown"] and not row["worse_than_bound"]
    nine = wins[:9] + [PARENT[9] - 1.0]  # 9 of 10 still shows it
    assert summarize(_pairs(PARENT, nine), END_TO_END)["lines_per_s"]["gain_shown"]
    eight = nine[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert not summarize(_pairs(PARENT, eight), END_TO_END)["lines_per_s"]["gain_shown"]
    # winning every pair by less than the parent's q3 - q1 shows no gain
    close = [value + 0.4 for value in PARENT]
    row = summarize(_pairs(PARENT, close), END_TO_END)["lines_per_s"]
    assert row["change_won"] == 10 and not row["gain_shown"]


def test_worse_than_bound_is_relative_to_the_parents_median():
    summarize = _script().summarize
    rss = [30.0] * 10
    for change, worse in ((31.4, False), (31.6, True), (28.0, False)):  # bound 5%
        row = summarize(_pairs(rss, [change] * 10, "peak_rss_mb"), END_TO_END)
        assert row["peak_rss_mb"]["worse_than_bound"] is worse, change
    slower = [value * 0.75 for value in PARENT]  # 25% fewer lines/s, bound 24%
    row = summarize(_pairs(PARENT, slower), END_TO_END)["lines_per_s"]
    assert row["worse_than_bound"] and not row["gain_shown"]


def test_bytecode_under_src_refuses_the_run(tmp_path, monkeypatch):
    script = _script()
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": [], "run_seconds": 1}')
    cached = tmp_path / "src" / "pkg" / "__pycache__"
    cached.mkdir(parents=True)
    monkeypatch.setattr(script, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match=re.escape(str(cached))):
        script.main(["--parent", "HEAD", "--out", str(tmp_path / "out.json")])
    assert not (tmp_path / "out.json").exists()


# a benchmark whose one run says it has started, then waits to be stopped
_WAITING_RUN = """
import os, time
open(os.environ["RUN_STARTED"], "w").close()
time.sleep(30)
"""


def test_sigterm_removes_the_parents_export(tmp_path):
    repo, scratch = tmp_path / "repo", tmp_path / "tmp"
    (repo / "scripts").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    scratch.mkdir()
    shutil.copy(SCRIPT, repo / "scripts" / SCRIPT.name)
    (repo / "perfbench" / "run.py").write_text(_WAITING_RUN)
    (repo / "BENCHMARK.json").write_text(
        '{"paths": ["perfbench"], "run_seconds": 1, "workloads": [{"name": "w"}], '
        '"end_to_end": []}')
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@example.com",
                  "commit", "-q", "-m", "benchmark"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    started = tmp_path / "started"
    env = dict(os.environ, TMPDIR=str(scratch), RUN_STARTED=str(started))
    proc = subprocess.Popen(
        [sys.executable, str(repo / "scripts" / SCRIPT.name), "--parent", "HEAD",
         "--out", str(tmp_path / "out.json"), "--pairs", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert started.exists() and [p.name[:13] for p in scratch.iterdir()] == ["bench-parent-"]
        proc.terminate()
        assert proc.wait(timeout=60) == 128 + 15
    finally:
        proc.kill()
        proc.wait()
    assert list(scratch.iterdir()) == []
    assert not (tmp_path / "out.json").exists()
