"""Scoring, report tables and per-line timing for the pipeline.

Entity matching is exact on (start, end, class); relation matching is
exact on (person span, target span, relation type), so predicted IDs
never matter.  Reference rows from the original pilot system are kept
here so reports can print measured numbers next to them.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .corpus import Document, EntitySpan, EntityType
from .deptree import DepTree
from .relations import Attachment, GoldEdge, Strategy, run_document
from .tokens import sentences, tokenize

ENTITY_ROW_ORDER = (
    (EntityType.PERSON, "Person"),
    (EntityType.RANK, "Rank"),
    (EntityType.ORGANIZATION, "Organization"),
    (EntityType.TITLE_ROLE, "Title/Role"),
)

# Reference evaluation rows (TP, FP, FN, P, R, F1) and per-line timings
# from the pilot system this package reimplements; printed alongside
# measured values for comparison.
REFERENCE_NER_ROWS = (
    ("Person", 87, 13, 6, 0.87, 0.94, 0.90),
    ("Rank", 80, 14, 11, 0.85, 0.88, 0.86),
    ("Organization", 103, 33, 31, 0.76, 0.77, 0.76),
    ("Title/Role", 85, 20, 23, 0.81, 0.79, 0.80),
    ("All Classes", 355, 80, 71, 0.82, 0.83, 0.82),
)
REFERENCE_RE_ROWS = (
    ("Nearest Person (Baseline)", 993, 759, 423, 0.567, 0.701, 0.627),
    ("Shortest Dep. Path (No constraint)", 1083, 651, 333, 0.625, 0.765, 0.687),
    ("Shortest Dep. Path (With constraint)", 1180, 559, 236, 0.679, 0.833, 0.748),
    ("Neural Network (No constraint)", 1086, 667, 330, 0.620, 0.767, 0.685),
    ("Neural Network (With constraint)", 1103, 450, 313, 0.710, 0.779, 0.743),
)
REFERENCE_TIMINGS = (
    ("NER", 1.54, 6153100),
    ("Dep. Parsing", 0.70, 8791858),
    ("Shortest Dep. Path", 0.0039, None),
    ("Neural Network", 0.051, 294),
)

STRATEGY_ROW_LABELS = {
    Strategy.NEAREST_PERSON: "Nearest Person (Baseline)",
    Strategy.SDP_FREE: "Shortest Dep. Path (No constraint)",
    Strategy.SDP_CONSTRAINED: "Shortest Dep. Path (With constraint)",
    Strategy.NN_FREE: "Neural Network (No constraint)",
    Strategy.NN_CONSTRAINED: "Neural Network (With constraint)",
}


class PrfRow(NamedTuple):
    name: str
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, name: str, tp: int, fp: int, fn: int) -> "PrfRow":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return cls(name, tp, fp, fn, precision, recall, f1)


class TimingRow(NamedTuple):
    component: str
    seconds_per_line: float
    model_parameters: int | None


def entity_counts(
    gold: list[EntitySpan], pred: list[EntitySpan]
) -> dict[EntityType, tuple[int, int, int]]:
    """Per-class (tp, fp, fn) with exact-span matching.

    Counter intersection guarantees each gold span matches at most one
    prediction even when duplicates occur.
    """
    out: dict[EntityType, tuple[int, int, int]] = {}
    for etype, _ in ENTITY_ROW_ORDER:
        g = Counter((e.start, e.end) for e in gold if e.etype is etype)
        p = Counter((e.start, e.end) for e in pred if e.etype is etype)
        tp = sum((g & p).values())
        out[etype] = (tp, sum(p.values()) - tp, sum(g.values()) - tp)
    return out


def rows_from_entity_counts(
    counts: dict[EntityType, tuple[int, int, int]]
) -> list[PrfRow]:
    """Per-class rows plus a micro-averaged "All Classes" row."""
    rows = [
        PrfRow.from_counts(name, *counts.get(etype, (0, 0, 0)))
        for etype, name in ENTITY_ROW_ORDER
    ]
    total = tuple(sum(c) for c in zip(*counts.values()))
    rows.append(PrfRow.from_counts("All Classes", *total))
    return rows


def _edge_key(person: EntitySpan, target: EntitySpan, rtype) -> tuple:
    """What a gold and a predicted edge must share to match."""
    return (person.start, person.end, target.start, target.end, rtype)


def relation_counts(gold: list[GoldEdge], pred: list[Attachment]) -> tuple[int, int, int]:
    """(tp, fp, fn) of one document's predictions against its gold edges
    (``gold_pairs``).  A gold edge is keyed by its own type, so a
    schema-flagged one never matches; an edge with no Person/target pair
    counts only in fn, and so does an abstention."""
    gold_keys = Counter(_edge_key(e.person, e.target, e.relation.rtype)
                        for e in gold if e.person is not None)
    pred_keys = Counter(_edge_key(a.person, a.target, a.rtype)
                        for a in pred if a.person is not None)
    tp = sum((gold_keys & pred_keys).values())
    return tp, sum(pred_keys.values()) - tp, len(gold) - tp


def verify_reference_metrics(tolerance: float = 0.005) -> list[str]:
    """Recompute P/R/F1 from the reference counts; list any mismatch."""
    problems = []
    for name, tp, fp, fn, p, r, f1 in REFERENCE_NER_ROWS + REFERENCE_RE_ROWS:
        row = PrfRow.from_counts(name, tp, fp, fn)
        for metric, computed, expected in (
            ("precision", row.precision, p),
            ("recall", row.recall, r),
            ("F1", row.f1, f1),
        ):
            if abs(computed - expected) > tolerance:
                problems.append(
                    f"{name}: {metric} {computed:.4f} differs from "
                    f"{expected} by more than {tolerance}"
                )
    return problems


def format_prf_table(rows: list[PrfRow], decimals: int = 2, label: str = "Class") -> str:
    headers = [label, "TP", "FP", "FN", "Precision", "Recall", "F1"]
    body = [
        [
            row.name,
            str(row.tp),
            str(row.fp),
            str(row.fn),
            f"{row.precision:.{decimals}f}",
            f"{row.recall:.{decimals}f}",
            f"{row.f1:.{decimals}f}",
        ]
        for row in rows
    ]
    return _format_table(headers, body)


def format_timing_table(rows: list[TimingRow]) -> str:
    reference = {name: (sec, params) for name, sec, params in REFERENCE_TIMINGS}
    headers = ["Component", "s/line", "ref s/line", "params", "ref params"]
    body = []
    for row in rows:
        ref_sec, ref_params = reference.get(row.component, (None, None))
        body.append(
            [
                row.component,
                f"{row.seconds_per_line:.6f}",
                f"{ref_sec:.4f}" if ref_sec is not None else "-",
                str(row.model_parameters) if row.model_parameters else "N/A",
                str(ref_params) if ref_params else "N/A",
            ]
        )
    return _format_table(headers, body)


def _format_table(headers: list[str], body: list[list[str]]) -> str:
    """Columns padded to their widest cell: the first left-aligned, the
    rest right-aligned."""
    widths = [
        max(len(h), *(len(r[i]) for r in body)) if body else len(h)
        for i, h in enumerate(headers)
    ]
    return "".join(
        "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                  for i, (c, w) in enumerate(zip(r, widths))) + "\n"
        for r in [headers, *body]
    )


def bench_pipeline(
    entries: list[tuple[Document, list[DepTree]]],
    tagger_model,
    relnet_model,
    relnet_vocab,
    repetitions: int = 3,
) -> list[TimingRow]:
    """Per-line wall times for the four pipeline components, each the median
    of its repetitions.

    A repetition runs each document through ``run_document`` with the
    tagger, for "NER" and, from its contexts, "Tree alignment": aligning
    each tree from the last one's end and assigning entities (no parser
    runs, so it has no pilot reference cell).  Each attachment row then
    runs the document on gold entities and times its own contexts plus its
    strategy.  Loading the models and the corpus is never timed.  Every row
    counts lines as tokenizer sentences.
    """
    if repetitions < 3:
        raise ValueError("need at least 3 repetitions")
    networks = {Strategy.NN_CONSTRAINED: (relnet_model, relnet_vocab)}
    attach = {  # each attachment row's strategy
        "Shortest Dep. Path": Strategy.SDP_CONSTRAINED,
        "Neural Network": Strategy.NN_CONSTRAINED,
    }
    n_lines = max(
        1, sum(len(sentences(tokenize(doc.text))) for doc, _ in entries)
    )
    params = {  # row order, and each component's model size
        "NER": tagger_model.param_count(),
        "Tree alignment": None,
        "Shortest Dep. Path": None,
        "Neural Network": relnet_model.param_count(),
    }
    totals = []  # one per repetition: each row's seconds over the corpus
    for _ in range(repetitions):
        total = dict.fromkeys(params, 0.0)
        for doc, trees in entries:
            seconds = run_document(doc, trees, tagger=tagger_model).seconds
            total["NER"] += seconds["ner"]
            total["Tree alignment"] += seconds["contexts"]
            for row, strategy in attach.items():
                seconds = run_document(doc, trees, [strategy], networks).seconds
                total[row] += seconds["contexts"] + seconds[strategy.value]
        totals.append(total)
    return [TimingRow(name, sorted(t[name] for t in totals)[repetitions // 2] / n_lines,
                      n_params) for name, n_params in params.items()]
