"""The unitgraph benchmark: seeded corpora, the real CLI, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run generates a corpus from the fixture corpus and ``--seed``, prepares
any models it needs (untimed), runs one checked warm-up command, then runs
the workload's ``unitgraph`` command again and again for ``--seconds``,
each time in a fresh process (a closed loop of one client).  Every command
is checked; a command that exits non-zero or fails a check counts as
failed.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the run alternates
plain and traced commands and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  ``--smoke`` runs every workload both
ways on a tiny corpus and checks that every metric is emitted with its
unit or listed as missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import layers

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures" / "corpus"
WORK = ROOT / ".perfbench-work"
DEADLINE_S = 170  # a run must exit within 180 s
MIN_TIMED = 3  # timed commands per run, however short --seconds is
CALIBRATION_S = 0.1  # reference time of the calibration kernel
# The program slows less than the kernel when the machine is loaded: over
# 19 runs of the three workloads, the quartile spread of their typical
# times across runs was lowest when times were divided by the kernel's
# slowdown to a power of 0.5-0.75, and higher at 1 on every workload.
SLOWDOWN_EXPONENT = 0.75

# end-to-end metric -> unit
END_TO_END = {
    "lines_per_s": "lines/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    """Import unitgraph from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import unitgraph
    except ImportError as exc:
        raise BenchError(f"cannot import unitgraph from {SRC}: {exc}") from None
    if not Path(unitgraph.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"unitgraph comes from {unitgraph.__file__}, not {SRC}")
    if not FIXTURES.is_dir():
        raise BenchError(f"fixture corpus {FIXTURES} not found")


@dataclass(frozen=True)
class Paths:
    corpus: Path
    models: Path  # models the command reads (prepared before timing)
    out: Path


# ---------------------------------------------------------------- checks

def _sha256(files: list[Path], base: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(files):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(base)}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _check_extract(paths: Paths, manifest: dict) -> tuple[list[str], list[Path]]:
    from unitgraph.corpus import SCHEMA_RELATION, EntityType, parse_brat

    problems = []
    graph = json.loads((paths.out / "graph.json").read_text(encoding="utf-8"))
    nodes = {n["id"]: n for n in graph["nodes"]}
    if len(nodes) != len(graph["nodes"]):
        problems.append("graph.json: duplicate node ids")
    schema = {etype.value: rtype.value for etype, rtype in SCHEMA_RELATION.items()}
    for edge in graph["edges"]:
        src, dst = nodes.get(edge["from"]), nodes.get(edge["to"])
        if src is None or dst is None:
            problems.append(f"edge {edge['from']}->{edge['to']}: unknown node")
        elif src["type"] != EntityType.PERSON.value or dst["type"] not in schema:
            problems.append(f"edge {edge['from']}->{edge['to']}: "
                            f"{src['type']} -> {dst['type']}")
        elif not src["doc_id"] == dst["doc_id"] == edge["doc_id"]:
            problems.append(f"edge {edge['from']}->{edge['to']}: crosses documents")
        elif edge["rtype"] != schema[dst["type"]]:
            problems.append(f"edge {edge['from']}->{edge['to']}: "
                            f"{edge['rtype']} for a {dst['type']}")
    anns = sorted(paths.out.glob("*.ann"))
    if len(anns) != manifest["docs"]:
        problems.append(f"{len(anns)} .ann files for {manifest['docs']} documents")
    for ann in anns:
        text = (paths.corpus / f"{ann.stem}.txt").read_text(encoding="utf-8")
        parse_brat(ann.read_text(encoding="utf-8"), text, doc_id=ann.stem)
    return problems, [paths.out / "graph.json", *anns]


def _check_evaluate(paths: Paths, manifest: dict) -> tuple[list[str], list[Path]]:
    problems = []
    metrics = json.loads((paths.out / "metrics.json").read_text(encoding="utf-8"))
    if len(metrics["rows"]) != 5:
        problems.append(f"metrics.json has {len(metrics['rows'])} rows, not 5")
    for row in metrics["rows"]:
        if row["tp"] + row["fn"] != manifest["gold_relations"]:
            problems.append(f"{row['name']}: tp+fn={row['tp'] + row['fn']} but "
                            f"the corpus has {manifest['gold_relations']} gold "
                            "relations")
    return problems, [paths.out / "metrics.json"]


def _check_train(paths: Paths, manifest: dict) -> tuple[list[str], list[Path]]:
    from unitgraph.relnet import load_relnet
    from unitgraph.tagger import load_tagger

    files = [paths.out / name for name in
             ("tagger.model", "relnet_select.model", "relnet_constrained.model")]
    problems = []
    if not load_tagger(files[0]).feature_weights:
        problems.append("tagger.model has no feature weights")
    for path, mode in zip(files[1:], ("select_k", "constrained3")):
        if load_relnet(path)[0].mode != mode:
            problems.append(f"{path.name} is not a {mode} model")
    return problems, files


@dataclass(frozen=True)
class Workload:
    copies: int  # uses of each fixture document; smoke runs use 2
    unparsed_share: float  # share of documents without a .conllu
    prepare: list[str] | None  # train flags for the models it reads
    argv: Callable[[Paths], list[str]]
    # (paths, manifest) -> (problems, output files to hash)
    check: Callable[[Paths, dict], tuple[list[str], list[Path]]]


# Corpus sizes.  BASE_COPIES reproduces the corpus the workloads were
# first measured on: the 5 fixture documents used 100 times each, 900
# lines.  train-all uses a tenth of it: a train command on the full size
# takes about 15 s, and the warm-up plus the minimum of three timed
# commands would not fit a run into its share of the benchmark's time.
# Traced runs give about the same tagger/relnet split at both sizes
# (69-72%/26-29% of the command at 10 copies, 71%/28% at 100).
BASE_COPIES = 100
TRAIN_COPIES = 10
# A quarter of the extract documents have no .conllu, so the fallback and
# tokenizer-context paths run; the rest keep the parsed path the workload
# was measured on.  With no parse at all, every nn-constrained attempt
# would fall back to nearest_person, and relnet and span_path would do no
# work on this workload.
UNPARSED_SHARE = 0.25

# --split 1.0 trains on every document, so the work does not depend on
# which documents a seeded split happens to hold out.
WORKLOADS = {
    "extract-model-ner": Workload(
        copies=BASE_COPIES, unparsed_share=UNPARSED_SHARE,
        prepare=["--split", "1.0", "--tagger-epochs", "2", "--epochs", "100"],
        argv=lambda p: ["extract", "--corpus", str(p.corpus), "--out", str(p.out),
                        "--ner-mode", "model",
                        "--tagger-model", str(p.models / "tagger.model"),
                        "--relnet-model", str(p.models),
                        "--strategy", "nn-constrained"],
        check=_check_extract,
    ),
    "evaluate-gold-all": Workload(
        copies=BASE_COPIES, unparsed_share=0.0,
        prepare=["--split", "1.0", "--targets", "relnet-select,relnet-constrained",
                 "--epochs", "100"],
        argv=lambda p: ["evaluate", "--corpus", str(p.corpus), "--out", str(p.out),
                        "--strategy", "all", "--relnet-model", str(p.models)],
        check=_check_evaluate,
    ),
    "train-all": Workload(
        copies=TRAIN_COPIES, unparsed_share=0.0,
        prepare=None,
        argv=lambda p: ["train", "--corpus", str(p.corpus), "--out", str(p.out),
                        "--split", "1.0"],
        check=_check_train,
    ),
}


# ---------------------------------------------------------------- commands

@dataclass
class Command:
    ok: bool
    wall_s: float
    report: dict | None
    problem: str = ""
    digest: str = ""
    slowdown: float = 1.0  # machine slowdown while it ran, see _calibrate


_CALIBRATION_WORDS = [f"w{i}" for i in range(512)]


def _calibration_kernel() -> int:
    counts: dict[str, int] = {}
    total = 0
    for i in range(600_000):
        key = _CALIBRATION_WORDS[i & 511]
        counts[key] = counts.get(key, 0) + 1
        total += len(key) * (i % 7)
    return total


def _reference_s(times: list[float], slowdowns: list[float]) -> float:
    """Typical time of a set of commands, in reference seconds.

    Drops the tenth (at least one) of commands with the highest and the
    lowest time/slowdown, then divides the sum of the remaining times by
    the sum of their slowdowns.  On a shared 2-vCPU virtual machine this
    ratio of sums varied about half as much from run to run as the median
    of time/slowdown, because the kernel's own jitter averages out.
    """
    pairs = sorted(zip(times, slowdowns), key=lambda p: p[0] / p[1])
    cut = max(1, len(pairs) // 10) if len(pairs) >= 3 else 0
    kept = pairs[cut:len(pairs) - cut]
    return sum(t for t, _ in kept) / sum(s for _, s in kept)


def _calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python kernel now.

    The machine's speed drifts by more than half over tens of seconds
    when other tenants load it, and interpreted code slows with it.  The
    kernel runs between commands; the mean of the two runs around a
    command, over CALIBRATION_S and raised to SLOWDOWN_EXPONENT, is that
    command's slowdown, and times divided by it are in reference seconds:
    seconds on a machine where the kernel takes CALIBRATION_S.
    """
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def _run_command(argv: list[str], trace: bool, paths: Paths, deadline: float,
                 check: Callable | None, manifest: dict) -> Command:
    """One CLI command in a fresh process, timed from spawn to exit."""
    shutil.rmtree(paths.out, ignore_errors=True)
    report_path = paths.out.parent / "report.json"
    report_path.unlink(missing_ok=True)
    log_path = paths.out.parent / "command.log"
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(report_path),
                 repr(t0), "1" if trace else "0", *argv],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=max(1.0, deadline - t0),
            )
        except subprocess.TimeoutExpired:
            return Command(False, time.perf_counter() - t0, None, "timed out")
        wall = time.perf_counter() - t0
    if proc.returncode != 0 or not report_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-400:]
        return Command(False, wall, None, f"exit {proc.returncode}: {tail}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["rc"] != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-400:]
        return Command(False, wall, report, f"unitgraph exit {report['rc']}: {tail}")
    if check is None:
        return Command(True, wall, report)
    from unitgraph.errors import DataError

    try:
        problems, files = check(paths, manifest)
    except (OSError, ValueError, KeyError, TypeError, DataError) as exc:
        return Command(False, wall, report, f"output check: {exc!r}")
    if problems:
        return Command(False, wall, report, "; ".join(problems[:5]))
    return Command(True, wall, report, digest=_sha256(files, paths.out))


# ---------------------------------------------------------------- one run

def _provenance(cpus: set[int]) -> dict:
    import numpy

    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    return {
        "git_rev": git_rev,
        "source_sha256": _sha256(list(SRC.rglob("*.py")), SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(cpus),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": min(cpus),
    }


def _prepare(name: str, workload: Workload, seed: int, smoke: bool,
             deadline: float) -> tuple[Paths, dict, list[Path]]:
    """Generate and self-check the corpus, then train the models it needs."""
    import corpusgen

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = Paths(work / "corpus", work / "models", work / "out")
    fixtures = corpusgen.load_fixtures(FIXTURES)
    copies = 2 if smoke else workload.copies
    files, manifest = corpusgen.generate(fixtures, copies, workload.unparsed_share,
                                         seed)
    again = corpusgen.generate(fixtures, copies, workload.unparsed_share, seed)
    if again[1]["sha256"] != manifest["sha256"]:
        raise BenchError("the generator gave two different corpora for one seed")
    corpusgen.write_corpus(files, paths.corpus)
    problems = corpusgen.self_check(paths.corpus, manifest)
    if problems:
        raise BenchError("generated corpus fails its self-check: "
                         + "; ".join(problems[:5]))
    (work / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    model_files: list[Path] = []
    if workload.prepare is not None:
        train = Paths(paths.corpus, paths.models, paths.models)
        argv = ["train", "--corpus", str(paths.corpus), "--out", str(paths.models),
                *workload.prepare]
        if smoke:
            argv += ["--epochs", "5"]
        cmd = _run_command(argv, False, train, deadline, None, manifest)
        if not cmd.ok:
            raise BenchError(f"preparing models failed: {cmd.problem}")
        model_files = sorted(paths.models.glob("*.model"))
    return paths, manifest, model_files


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, provenance)."""
    workload = WORKLOADS[name]
    deadline = time.perf_counter() + DEADLINE_S
    # Commands inherit this affinity, so the calibration kernel measures the
    # CPU the commands run on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    paths, manifest, model_files = _prepare(name, workload, seed, smoke, deadline)
    argv = workload.argv(paths)
    # (traced, command); the warm-up (traced None) fills caches and is
    # checked, not timed.  calibrations[i] and [i + 1] bracket commands[i].
    commands: list[tuple[bool | None, Command]] = []
    calibrations = [_calibrate()]

    def attempt(traced: bool | None) -> None:
        cmd = _run_command(argv, bool(traced), paths, deadline, workload.check,
                           manifest)
        calibrations.append(_calibrate())
        kernel_s = (calibrations[-2] + calibrations[-1]) / 2
        cmd.slowdown = (kernel_s / CALIBRATION_S) ** SLOWDOWN_EXPONENT
        commands.append((traced, cmd))
        if not cmd.ok:
            print(f"FAILED ({'traced' if traced else 'plain'}): {cmd.problem}")

    attempt(None)
    start = time.perf_counter()
    timed = 0
    while timed < MIN_TIMED or time.perf_counter() - start < seconds:
        if time.perf_counter() > deadline - 20:
            break
        attempt(False)
        if trace:
            attempt(True)
        timed += 1

    attempted = len(commands)
    failed = sum(not cmd.ok for _, cmd in commands)
    digests = sorted({cmd.digest for _, cmd in commands if cmd.ok})
    correct = failed == 0 and len(digests) == 1
    if len(digests) > 1:
        print(f"outputs differ between commands of one run: {digests}")
    plain = [cmd for traced, cmd in commands if traced is False and cmd.ok]
    walls = [cmd.wall_s for cmd in plain]
    slowdowns = [cmd.slowdown for cmd in plain]
    print(f"{name} seed {seed}: {manifest['docs']} documents, "
          f"{manifest['lines']} lines (tokenizer sentences), "
          f"{manifest['trees']} parse trees, parsed share "
          f"{manifest['parsed_share']:.2f}, {manifest['gold_relations']} gold "
          f"relations")
    print(f"commands: {attempted} attempted, {failed} failed "
          f"(error rate {failed / attempted:.4f})")
    print(f"plain wall s: {_quartiles(walls)}")
    print("  in order (wall/slowdown): " + " ".join(
        f"{c.wall_s:.3f}/{c.slowdown:.3f}" for c in plain))

    metrics: dict[str, dict] = {}
    missing: list[str] = []
    unscaled: dict[str, float] = {}
    overhead = None
    if not trace and walls:
        setups = [c.report["import_s"] + c.report["loaders_s"] for c in plain]
        values = {
            "lines_per_s": manifest["lines"] / _reference_s(walls, slowdowns),
            "setup_s": _reference_s(setups, slowdowns),
            "peak_rss_mb": statistics.median(
                c.report["max_rss_kb"] / 1024 for c in plain),
            "success_rate": (attempted - failed) / attempted,
        }
        unscaled = {"lines_per_s": manifest["lines"] / statistics.median(walls),
                    "setup_s": statistics.median(setups)}
        print(f"setup s: {_quartiles(setups)}")
        print(f"reference s: wall {_reference_s(walls, slowdowns):.4f}, "
              f"setup {values['setup_s']:.4f}")
        if any(c.report["missing"] for c in plain):  # a loader went untimed
            del values["setup_s"]
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        missing = sorted(set(END_TO_END) - set(metrics))
    traced_cmds = [cmd for traced, cmd in commands if traced and cmd.ok]
    if trace and traced_cmds and walls:
        per_command = [layers.analyse(c.report, manifest["docs"]) for c in traced_cmds]
        names = set.union(*(set(values) for values, _ in per_command))
        medians = {k: statistics.median(v[k] for v, _ in per_command if k in v)
                   for k in names}
        traced_ref = _reference_s([c.wall_s for c in traced_cmds],
                                  [c.slowdown for c in traced_cmds])
        overhead = traced_ref / _reference_s(walls, slowdowns) - 1
        medians["trace.overhead_ratio"] = overhead
        metrics = {k: {"value": medians[k], "unit": layers.METRICS[k][0]}
                   for k in layers.METRICS if k in medians}
        missing = sorted(set(layers.METRICS) - set(metrics))
        spans_missing = sorted({m for c in traced_cmds for m in c.report["missing"]})
        print(f"tracing overhead: {overhead:+.4f} of the plain wall time "
              f"(traced {traced_ref:.4f} reference s)")
        if spans_missing:
            print(f"MISSING wrapped functions: {', '.join(spans_missing)}")
        sdp = [info["strategy_s"].get("sdp-constrained", 0.0)
               for _, info in per_command]
        _print_layers(medians, statistics.median(sdp), per_command[0][1], manifest)
    if missing:
        print(f"MISSING metrics: {', '.join(missing)}")

    provenance = dict(
        _provenance(cpus), workload=name, seed=seed, seconds=seconds,
        trace=int(trace), corpus=manifest,
        model_sha256=_sha256(model_files, paths.models) if model_files else None,
        output_sha256=digests[0] if len(digests) == 1 else digests,
        trace_overhead_ratio=overhead, missing=missing,
        unscaled=unscaled, calibration_s=calibrations,
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, provenance


def _print_layers(medians: dict, sdp_s: float, info: dict, manifest: dict) -> None:
    """The per-layer table, then per-line costs beside the pilot's only
    where the stage does the same work as the pilot's (no row compares
    with the pilot's dependency parser, which this program does not run)."""
    from unitgraph.evaluation import REFERENCE_TIMINGS

    pilot = {name: sec for name, sec, _ in REFERENCE_TIMINGS}
    lines = manifest["lines"]
    bases = {k: v for k, v in info.items() if k != "strategy_s"}
    print(f"per-layer medians (ratio bases: {bases}):")
    for name, (unit, _, _) in layers.METRICS.items():
        if name in medians:
            print(f"  {name:34s} {medians[name]:14.6f} {unit}")
    print(f"per line, over {lines} lines (tokenizer sentences; "
          f"{manifest['trees']} parse trees):")
    rows = [
        ("NER = tagger.predict_s", medians.get("tagger.predict_s"), pilot["NER"]),
        ("SDP = sdp-constrained extraction", sdp_s, pilot["Shortest Dep. Path"]),
        ("NN = relnet.predict_s", medians.get("relnet.predict_s"),
         pilot["Neural Network"]),
        ("corpus.parse_conllu_s", medians.get("corpus.parse_conllu_s"), None),
        ("deptree.align_s", medians.get("deptree.align_s"), None),
    ]
    for label, seconds, ref in rows:
        if seconds:
            ref_text = f"   pilot {ref} s/line" if ref is not None else ""
            print(f"  {label:34s} {seconds / lines:.6f} s/line{ref_text}")


# ---------------------------------------------------------------- smoke

def smoke() -> int:
    """Every workload untraced and traced on a tiny corpus."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    if expected[0] != END_TO_END:
        bad.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if expected[1] != {k: v[0] for k, v in layers.METRICS.items()}:
        bad.append("BENCHMARK.json per_layer differs from layers.METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from WORKLOADS")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, provenance = run(name, seed=1, seconds=1, trace=bool(trace),
                                     smoke=True)
            emitted = result["metrics"]
            for metric, unit in expected[trace].items():
                if metric in provenance["missing"]:
                    continue
                if metric not in emitted:
                    bad.append(f"{name} trace {trace}: {metric} neither emitted "
                               "nor listed as missing")
                elif emitted[metric]["unit"] != unit:
                    bad.append(f"{name} trace {trace}: {metric} has unit "
                               f"{emitted[metric]['unit']}, not {unit}")
            if not result["correct"] or result["failed"]:
                bad.append(f"{name} trace {trace}: incorrect or failed commands")
            print(f"smoke {name} trace {trace}: {len(emitted)} metrics, "
                  f"{len(provenance['missing'])} missing, "
                  f"correct={result['correct']}")
    for line in bad:
        print("SMOKE FAIL", line)
    print("smoke ok" if not bad else f"smoke failed: {len(bad)} problems")
    return 0 if not bad else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    logging.disable(logging.WARNING)  # the generator's loads of unparsed docs
    try:
        _import_program()
        if args.smoke:
            return smoke()
        result, provenance = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
