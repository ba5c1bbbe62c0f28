"""Run the benchmark on this checkout and on a parent commit in alternating
pairs, and write both sides' runs and their summary to one JSON file.

Usage (from anywhere; standard library and git only):

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--pairs 10] [--seed N]

Each run is ``perfbench/run.py --workload NAME --seed N --seconds S --trace 0``,
for every workload of ``BENCHMARK.json`` and its ``run_seconds`` as ``S``,
in its own checkout: this one, and a copy of REV exported with ``git
archive`` into a temporary directory, which is removed at the end (an
export leaves nothing in the repository's ``.git``, even when the script is
stopped).  Both sides must hold the same ``perfbench/`` and
``BENCHMARK.json``, so they run the same benchmark code, and no
``__pycache__`` may exist under this checkout's ``src/``: the export has
none, so only the change's commands would skip compiling the program.
Pair ``i`` runs the parent first when ``i`` is even and the change first
when it is odd, and each pair runs every workload in turn, so a slow spell
of the machine falls on both sides.

The file records each run's provenance and result lines as ``run.py``
prints them and, per workload and end-to-end metric, each side's median
and quartiles, the pairs each side won ("better" as ``BENCHMARK.json``
declares it; a tie counts for neither) and two verdicts:

- ``gain_shown``: the change won at least 9 in 10 of the pairs, and its
  median is better than the parent's by more than the parent's q3 - q1;
- ``worse_than_bound``: the change's median is worse than the parent's by
  more than the metric's relative ``bound`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = "BENCHMARK.json"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _benchmark_sha256(checkout: Path) -> str:
    """One digest of the benchmark's files in a checkout."""
    spec = json.loads((checkout / BENCHMARK).read_text(encoding="utf-8"))
    files = [checkout / BENCHMARK, *(path for top in spec["paths"]
                                     for path in (checkout / top).rglob("*.py"))]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(f"{path.relative_to(checkout)}\0".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written into ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"cannot export {rev} into {dest}")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its provenance and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"benchmark failed in {checkout} on {workload} "
                         f"(exit {proc.returncode}):\n{proc.stdout[-800:]}{proc.stderr[-800:]}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _spread(values: list[float]) -> dict:
    """The median and quartiles of some runs' values, with the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, each side's spread, the pairs each side won
    and the two verdicts (see the module docstring).

    ``runs`` holds one workload's runs, each with its ``side`` ("parent" or
    "change") and ``pair``; ``end_to_end`` is ``BENCHMARK.json``'s list of
    metrics, each with its ``name``, ``better`` ("higher" or "lower") and
    ``bound``.  A metric a run did not emit is left out of that run's pair.
    """
    summary = {}
    for spec in end_to_end:
        metric = spec["name"]
        by_pair: dict[int, dict[str, float]] = {}
        for run in runs:
            value = run["result"]["metrics"].get(metric, {}).get("value")
            if value is not None:
                by_pair.setdefault(run["pair"], {})[run["side"]] = value
        pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
        if not pairs:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        parent = _spread([p["parent"] for p in pairs])
        change = _spread([p["change"] for p in pairs])
        change_won = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs)
        gap = sign * (change["median"] - parent["median"])  # > 0: the change is better
        summary[metric] = {
            "parent": parent,
            "change": change,
            "pairs": len(pairs),
            "change_won": change_won,
            "parent_won": sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs),
            "median_gap": gap,
            "gain_shown": (10 * change_won >= 9 * len(pairs)
                           and gap > parent["q3"] - parent["q1"]),
            "worse_than_bound": -gap > spec["bound"] * abs(parent["median"]),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / BENCHMARK).read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cached = sorted((ROOT / "src").rglob("__pycache__"))
    if cached:
        raise SystemExit(f"{cached[0]} exists: the change's runs would read its bytecode "
                         "and the parent's fresh export has none; remove it first")
    parent_rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change = {"git_rev": _git("rev-parse", "HEAD"),
              "uncommitted": bool(_git("status", "--porcelain", "--untracked-files=no"))}
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    parent_dir = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        _export(parent_rev, parent_dir)
        if _benchmark_sha256(parent_dir) != _benchmark_sha256(ROOT):
            raise SystemExit(f"{parent_rev} and this checkout hold different benchmark "
                             "files; their runs would not compare")
        checkouts = {"parent": parent_dir, "change": ROOT}
        for pair in range(args.pairs):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in runs:
                for side in sides:
                    run = _run(checkouts[side], name, args.seed, seconds)
                    runs[name].append({"side": side, "pair": pair, **run})
                    metrics = run["result"]["metrics"]
                    print(f"pair {pair} {name} {side}: " + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in sorted(metrics.items())),
                        flush=True)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
    record = {
        "parent": parent_rev,
        "change": change,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "command": ["perfbench/run.py", "--seed", str(args.seed), "--seconds",
                    str(seconds), "--trace", "0"],
        "workloads": {name: {"summary": summarize(found, spec["end_to_end"]),
                             "runs": found}
                      for name, found in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    for name, found in record["workloads"].items():
        for metric, row in found["summary"].items():
            print(f"{name} {metric}: parent {row['parent']['median']:.4g} "
                  f"(q1 {row['parent']['q1']:.4g}, q3 {row['parent']['q3']:.4g}), "
                  f"change {row['change']['median']:.4g} "
                  f"(q1 {row['change']['q1']:.4g}, q3 {row['change']['q3']:.4g}), "
                  f"change won {row['change_won']}/{row['pairs']}, "
                  f"gain shown {'yes' if row['gain_shown'] else 'no'}, "
                  f"worse than bound {'yes' if row['worse_than_bound'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
