"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria touching the
full published corpus only run when UNITGRAPH_CORPUS points at a fetched
copy (see scripts/fetch_corpus.sh); they are skipped otherwise.
"""

import json
import os
import random
import time
from pathlib import Path

import numpy as np

from unitgraph.cli import main
from unitgraph.corpus import EntityType, load_corpus, parse_brat, serialize_brat
from unitgraph.deptree import span_path
from unitgraph.evaluation import bench_pipeline, verify_reference_metrics
from unitgraph.relations import Strategy, build_contexts, extract_document
from unitgraph.relnet import (
    build_vocab,
    collect_patterns,
    init_model,
    predict_person,
)
from unitgraph.tagger import START, TaggerModel, featurize_token, viterbi_decode
from unitgraph.tokens import (
    TAGSET,
    iob_to_spans,
    spans_to_iob,
    tokenize,
    valid_transition,
)

from conftest import (
    CORPUS_DIR,
    DOC_GOVERNOR,
    DOC_LOGISTICS,
    EXAMPLE_ANN,
    EXAMPLE_SENTENCE,
    EXAMPLE_TEXT,
)
from test_deptree import bfs_distance, random_tree, tokens
from test_relnet import (max_gradient_error, randomized_model_and_batch, rigged_model,
                         zeroed)
from test_tokens import random_layout


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def full_corpus_dir():
    root = os.environ.get("UNITGRAPH_CORPUS")
    if not root:
        return None
    root = Path(root)
    if not root.exists():
        return None
    best, count = None, 0
    for candidate in [root, *root.rglob("*")]:
        if candidate.is_dir():
            n = len(list(candidate.glob("*.txt")))
            if n > count:
                best, count = candidate, n
    return best


def test_criterion_1_metric_reproduction():
    started = time.perf_counter()
    problems = verify_reference_metrics(tolerance=0.005)
    elapsed = time.perf_counter() - started
    assert problems == []
    assert elapsed < 1.0
    report(1, f"all 30 reference P/R/F1 cells reproduce (in {elapsed:.3f}s)")


def test_criterion_2_format_fidelity(corpus_entries):
    blocks = [(EXAMPLE_ANN, EXAMPLE_TEXT, "inline example")]
    blocks += [
        (serialize_brat(doc), doc.text, doc.doc_id) for doc, _ in corpus_entries
    ]
    for ann, text, label in blocks:
        first = serialize_brat(parse_brat(ann, text, label))
        second = serialize_brat(parse_brat(first, text, label))
        assert first == second, f"round trip unstable for {label}"
    for doc, _ in corpus_entries:
        for ent in doc.entities:
            assert doc.text[ent.start:ent.end] == ent.surface

    full = full_corpus_dir()
    if full is not None:
        entries = load_corpus(full)
        assert len(entries) == 130
        for doc, _ in entries:
            for ent in doc.entities:
                assert doc.text[ent.start:ent.end] == ent.surface
        report(2, "round trips byte-stable; full 130-document corpus verified")
    else:
        report(2, "round trips byte-stable on example block and 5 fixtures "
                  "(full corpus not fetched; set UNITGRAPH_CORPUS to include it)")


def test_criterion_3_iob_fidelity():
    toks = tokenize(EXAMPLE_SENTENCE)
    gold = []
    for i, (surface, etype) in enumerate(
        [
            ("General Officer Commanding", EntityType.TITLE_ROLE),
            ("3 Armoured Division of the Nigerian Army", EntityType.ORGANIZATION),
            ("Major General", EntityType.RANK),
            ("Jack Nwaogbo", EntityType.PERSON),
        ],
        start=1,
    ):
        from unitgraph.corpus import EntitySpan

        start = EXAMPLE_SENTENCE.index(surface)
        gold.append(EntitySpan(f"T{i}", etype, start, start + len(surface), surface))
    tags = spans_to_iob(toks, gold)
    expected = (
        ["B-TTL", "I-TTL", "I-TTL"]
        + ["B-ORG"] + ["I-ORG"] * 6
        + ["O", "B-RNK", "I-RNK", "B-PER", "I-PER"]
        + ["O"] * 15
    )
    assert tags == expected

    rng = random.Random(20240802)
    for trial in range(1000):
        text, toks, entities = random_layout(rng, rng.randint(1, 14))
        decoded = iob_to_spans(toks, spans_to_iob(toks, entities), text=text)
        assert [(e.start, e.end, e.etype) for e in decoded] == [
            (e.start, e.end, e.etype) for e in entities
        ], f"layout {trial}"
    report(3, "printed tag sequence reproduced; 1000 random span layouts "
              "round trip")


def test_criterion_4_path_oracle():
    started = time.perf_counter()
    rng = random.Random(77)
    pairs_checked = 0
    for _ in range(500):
        tree = random_tree(rng, rng.randint(2, 15))
        entities = [
            set(rng.sample(tokens(tree), rng.randint(1, min(3, len(tree.heads)))))
            for _ in range(3)
        ]
        for a in entities:
            for b in entities:
                oracle = min(bfs_distance(tree, x, y) for x in a for y in b)
                assert span_path(tree, a, b).length == oracle
                pairs_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, f"{pairs_checked} span pairs over 500 trees match BFS "
              f"(in {elapsed:.2f}s)")


def _oracle_decode(feature_weights, transition_weights, tokens):
    """Vectorized exhaustive search over all 9^n tag sequences."""
    n, m = len(tokens), len(TAGSET)
    emit = np.array(
        [
            [
                sum(
                    feature_weights.get((f, tag), 0.0)
                    for f in featurize_token(tokens, i, None)
                )
                for tag in TAGSET
            ]
            for i in range(n)
        ]
    )

    def move(prev, prev_tag, tag):
        if not valid_transition(prev_tag, tag):
            return float("-inf")
        return transition_weights.get((prev, tag), 0.0)

    start = np.array([move(START, "O", tag) for tag in TAGSET])
    trans = np.array([[move(p, p, tag) for tag in TAGSET] for p in TAGSET])
    seqs = np.indices((m,) * n).reshape(n, -1).T
    scores = emit[np.arange(n), seqs].sum(axis=1) + start[seqs[:, 0]]
    if n > 1:
        scores = scores + trans[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    return seqs[int(np.argmax(scores))].tolist()


def test_criterion_5_decoder_oracle():
    rng = random.Random(424242)
    index_of = {tag: i for i, tag in enumerate(TAGSET)}
    for trial in range(200):
        n = trial % 6 + 1
        tokens = tokenize(" ".join(f"word{i}" for i in range(n)))
        feature_weights, transition_weights = {}, {}
        for i in range(n):
            for f in featurize_token(tokens, i, None):
                for tag in TAGSET:
                    feature_weights[(f, tag)] = rng.gauss(0, 1)
        # a forbidden move holds no weight, but still draws one, so the
        # allowed moves get the same weights
        for prev, prev_tag in [(START, "O")] + [(t, t) for t in TAGSET]:
            for tag in TAGSET:
                w = rng.gauss(0, 1)
                if valid_transition(prev_tag, tag):
                    transition_weights[(prev, tag)] = w
        model = TaggerModel(feature_weights, transition_weights)
        decoded = [index_of[t] for t in viterbi_decode(model, tokens)]
        assert decoded == _oracle_decode(feature_weights, transition_weights, tokens), \
            f"trial {trial}"
    report(5, "Viterbi equals exhaustive 9^n argmax on 200 random models")


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(31337)
    for trial in range(10):
        mode = "select_k" if trial % 2 == 0 else "constrained3"
        model, X, T, Y = randomized_model_and_batch(rng, mode)
        error = max_gradient_error(model, X, T, Y)
        assert error < 1e-4, f"trial {trial}: {error}"
    report(6, "analytic gradients within 1e-4 of central differences "
              "for all parameter groups, 10 model/input pairs")


def test_criterion_7_mechanism_fixtures(corpus_by_id):
    # forced shortest-path attachment commits the known mistake
    doc, trees = corpus_by_id[DOC_LOGISTICS]
    ctx = build_contexts(doc, trees)[0]
    chief = next(t for t in ctx.targets if t.surface == "Chief of Logistics")
    sdp_choice = extract_document(doc, build_contexts(doc, trees),
                                  Strategy.SDP_FREE)
    wrong = next(a for a in sdp_choice if a.target == chief)
    assert wrong.person.surface == "M. T. Ibrahim"
    gold_person = next(e for e in doc.entities if e.id == "T3")
    assert wrong.person != gold_person

    # a configured network keys on the path pattern and picks the right one
    vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
    model = init_model("select_k", vocab.size, hidden=1, seed=0)
    atewe_toks = ctx.tree_tokens(gold_person)
    pattern_key = span_path(ctx.tree, ctx.tree_tokens(chief), atewe_toks).key()
    model = zeroed(model, {("W1", (vocab.lookup(pattern_key), 0)): 5.0,
                           **{("W3", (slot * model.hidden, slot)): 1.0
                              for slot in range(model.k)}})
    att = predict_person(model, ctx, chief, vocab)
    assert att.person == gold_person

    # and an abstaining network yields fewer attachments than forced SDP
    doc4, trees4 = corpus_by_id[DOC_GOVERNOR]
    vocab4 = build_vocab(collect_patterns([build_contexts(doc4, trees4)]),
                         min_count=1)
    abstainer = rigged_model(vocab4, favored_output=6)
    sdp_atts = extract_document(doc4, build_contexts(doc4, trees4),
                                Strategy.SDP_CONSTRAINED)
    nn_atts = extract_document(doc4, build_contexts(doc4, trees4),
                               Strategy.NN_FREE, abstainer, vocab4)
    assert len([a for a in nn_atts if a.person is not None]) < len(sdp_atts)
    report(7, "SDP commits the forced-attachment error; the network "
              "selects correctly or abstains as configured")


def _run_cli(*args):
    return main([str(a) for a in args])


def test_criterion_8_end_to_end(tmp_path, capsys):
    corpora = [("vendored", CORPUS_DIR)]
    full = full_corpus_dir()
    if full is not None:
        corpora.append(("published", full))
    for label, corpus in corpora:
        started = time.perf_counter()
        models = tmp_path / f"models-{label}"
        assert _run_cli("train", "--corpus", corpus, "--out", models,
                        "--epochs", "80") == 0
        metric_files = []
        for run_name in ("r1", "r2"):
            out = tmp_path / f"eval-{label}-{run_name}"
            assert _run_cli(
                "evaluate", "--corpus", corpus, "--out", out,
                "--strategy", "all", "--relnet-model", models,
            ) == 0
            metric_files.append((out / "metrics.json").read_bytes())
        elapsed = time.perf_counter() - started
        stdout = capsys.readouterr().out
        assert "Method" in stdout and "Precision" in stdout  # table layout
        assert metric_files[0] == metric_files[1]  # seeded determinism
        rows = json.loads(metric_files[0])["rows"]
        assert len(rows) == 5
        assert elapsed < 300, f"{label} corpus took {elapsed:.0f}s"
    note = "" if full else " (published corpus not fetched; vendored only)"
    report(8, "all five strategies ran end to end, text + JSON reports, "
              f"identical metrics across identically-seeded runs{note}")


def test_criterion_9_throughput(corpus_entries, capsys):
    vocab = build_vocab(
        collect_patterns([build_contexts(d, t) for d, t in corpus_entries]),
        min_count=1,
    )
    model = init_model("constrained3", vocab.size, seed=13)
    rows = {
        r.component: r
        for r in bench_pipeline(corpus_entries, TaggerModel(), model, vocab, repetitions=3)
    }
    sdp = rows["Shortest Dep. Path"].seconds_per_line
    nn = rows["Neural Network"].seconds_per_line
    assert sdp < 0.1
    assert nn < 0.5
    print(f"measured: SDP {sdp:.6f} s/line (reference 0.0039), "
          f"network {nn:.6f} s/line (reference 0.051), "
          f"{model.param_count()} parameters (reference 294)")
    report(9, "per-line throughput within bounds")
