"""Per-layer metrics computed from the spans of one traced command.

A span's duration is inclusive; its self time is its duration minus the
durations of its child spans (one thread, so children never overlap).  A
layer's share is the part of ``cli.main`` covered by the layer's
outermost spans, and its self time the sum of its spans' self times.
"""

from __future__ import annotations

import math

LAYERS = ("corpus", "tokens", "tagger", "deptree", "relations", "relnet",
          "evaluation", "cli")

# Span totals reported as ``<span>_s`` (inclusive seconds).
TIMED = (
    "corpus.load", "corpus.parse_conllu", "corpus.serialize",
    "tokens.tokenize",
    "tagger.load", "tagger.predict", "tagger.decode", "tagger.featurize",
    "tagger.train",
    "deptree.align", "deptree.span_path",
    "relations.build_contexts", "relations.extract", "relations.nearest",
    "relations.sdp_attach",
    "relnet.load", "relnet.predict", "relnet.featurize", "relnet.forward",
    "relnet.collect_patterns", "relnet.build_dataset", "relnet.train",
    "evaluation.score",
)
# Span call counts reported as ``<span>_calls``.
COUNTED = ("tokens.tokenize", "tagger.decode", "tagger.featurize",
           "deptree.align", "deptree.span_path")
# Strategy calls made by extract_document; one per attachment attempt,
# plus one nearest_person call per fallback.
STRATEGY_SPANS = ("relations.nearest", "relations.sdp_attach", "relnet.predict")
FALLBACK_ERROR = "MissingParseError"

# name -> (unit, better, spans it needs).  Every per-layer metric is here.
METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {}
for _span in TIMED:
    METRICS[f"{_span}_s"] = ("s", "lower", (_span,))
for _span in COUNTED:
    METRICS[f"{_span}_calls"] = ("count", "lower", (_span,))
METRICS.update({
    "deptree.paths_per_attempt": ("paths/attempt", "lower",
                                  ("deptree.span_path",) + STRATEGY_SPANS),
    "deptree.unaligned_tokens": ("count", "lower", ("deptree.align",)),
    "relations.build_contexts_per_doc": ("calls/doc", "lower",
                                         ("relations.build_contexts",)),
    "relations.attempts": ("count", "higher", STRATEGY_SPANS),
    "relations.fallback_ratio": ("ratio", "lower", STRATEGY_SPANS),
    "relnet.abstain_ratio": ("ratio", "lower", ("relnet.predict",)),
    "relnet.truncated": ("count", "lower", ("relnet.featurize",)),
    "cli.doc_p50_ms": ("ms", "lower", ("cli.main",)),
    "cli.doc_p99_ms": ("ms", "lower", ("cli.main",)),
})
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower", ("cli.main",))
    if _layer != "cli":
        METRICS[f"{_layer}.share"] = ("ratio", "lower", ("cli.main",))
METRICS.update({
    "trace.overhead_ratio": ("ratio", "lower", ()),
    "trace.spans": ("count", "lower", ()),
})


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def analyse(report: dict, docs: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer values for one traced command, and the bases of its ratios.

    Values that need a span listed as missing are left out.
    """
    spans = report["spans"]
    names, parents = spans["name"], spans["parent"]
    doc_ids, notes = spans["doc"], spans["note"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    n = len(names)
    layer = [name.partition(".")[0] for name in names]
    bit = {name: 1 << k for k, name in enumerate(LAYERS)}

    children = [0.0] * n
    above = [0] * n  # bitmask of the layers of a span's ancestors
    for i, p in enumerate(parents):
        if p >= 0:  # a parent is always recorded before its children
            children[p] += dur[i]
            above[i] = above[p] | bit[layer[p]]

    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    cover = dict.fromkeys(LAYERS, 0.0)
    per_doc: dict[str, float] = {}
    attempts = fallbacks = abstains = predicted = 0
    unaligned = truncated = 0
    strategy_s: dict[str, float] = {}  # extract_document time per strategy
    for i, name in enumerate(names):
        totals[name] = totals.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[layer[i]] += dur[i] - children[i]
        if not above[i] & bit[layer[i]]:
            cover[layer[i]] += dur[i]
        doc, p = doc_ids[i], parents[i]
        if doc is not None and (p < 0 or doc_ids[p] != doc):
            per_doc[doc] = per_doc.get(doc, 0.0) + dur[i]
        note = notes[i]
        if name in STRATEGY_SPANS and p >= 0 and names[p] == "relations.extract":
            attempts += 1
            fallbacks += note == FALLBACK_ERROR
        if name == "relations.extract" and isinstance(note, str):
            strategy_s[note] = strategy_s.get(note, 0.0) + dur[i]
        if type(note) is not int:  # the call raised, or has no count
            continue
        if name == "relnet.predict":
            predicted += 1
            abstains += note
        elif name == "deptree.align":
            unaligned += note
        elif name == "relnet.featurize":
            truncated += note
    attempts -= fallbacks  # each fallback made one extra nearest_person call

    main_s = totals.get("cli.main", 0.0)
    values: dict[str, float] = {}
    for span in TIMED:
        values[f"{span}_s"] = totals.get(span, 0.0)
    for span in COUNTED:
        values[f"{span}_calls"] = calls.get(span, 0)
    values.update({
        "deptree.paths_per_attempt": calls.get("deptree.span_path", 0) / attempts
        if attempts else 0.0,
        "deptree.unaligned_tokens": unaligned,
        "relations.build_contexts_per_doc":
            calls.get("relations.build_contexts", 0) / docs,
        "relations.attempts": attempts,
        "relations.fallback_ratio": fallbacks / attempts if attempts else 0.0,
        "relnet.abstain_ratio": abstains / predicted if predicted else 0.0,
        "relnet.truncated": truncated,
        "trace.spans": n,
    })
    doc_ms = [v * 1000 for v in per_doc.values()] or [0.0]
    values["cli.doc_p50_ms"] = _nearest_rank(doc_ms, 0.50)
    values["cli.doc_p99_ms"] = _nearest_rank(doc_ms, 0.99)
    for name in LAYERS:
        values[f"{name}.self_s"] = self_s[name]
        if name != "cli":
            values[f"{name}.share"] = cover[name] / main_s if main_s else 0.0

    missing = set(report["missing"])
    values = {k: v for k, v in values.items()
              if not missing.intersection(METRICS[k][2])}
    return values, {"attempts": attempts, "relnet predictions": predicted,
                    "documents": docs, "strategy_s": strategy_s}
