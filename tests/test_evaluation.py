import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph.corpus import Document, EntitySpan, EntityType, RelationEdge, RelationType
from unitgraph.evaluation import (
    PrfRow,
    REFERENCE_NER_ROWS,
    REFERENCE_RE_ROWS,
    bench_pipeline,
    entity_counts,
    format_prf_table,
    format_timing_table,
    relation_counts,
    rows_from_entity_counts,
    verify_reference_metrics,
)
from unitgraph.relations import (
    Attachment,
    Strategy,
    build_contexts,
    extract_document,
    gold_pairs,
)
from unitgraph.relnet import build_vocab, collect_patterns, init_model
from unitgraph.tagger import TaggerModel

from conftest import DOC_CEREMONY, DOC_VANGUARD, gold_documents


def span(eid, etype, start, width=5):
    return EntitySpan(eid, etype, start, start + width, "x" * width)


def gold_of(relations, entities):
    """``gold_pairs`` of a document with these entities and relations; no
    sentence is given, so every pair lacks a context, which scoring never
    reads."""
    return gold_pairs(Document("d", "", entities, relations), [])


def reference_relation_counts(gold, pred, entities):
    """The triple counter that paired each gold edge itself, kept as the
    reference for ``relation_counts``: an edge that does not join exactly
    one Person with one non-Person stays in the gold multiset as an
    unmatchable sentinel, and an abstention adds nothing to the predictions."""
    by_id = {e.id: e for e in entities}
    gold_triples = Counter()
    for rel in gold:
        a, b = by_id.get(rel.arg1), by_id.get(rel.arg2)
        if a is None or b is None or (
                (a.etype is EntityType.PERSON) == (b.etype is EntityType.PERSON)):
            gold_triples[("unpaired", rel.id)] += 1
            continue
        person, target = (a, b) if a.etype is EntityType.PERSON else (b, a)
        gold_triples[(person.start, person.end, target.start, target.end,
                      rel.rtype)] += 1
    pred_triples = Counter(
        (att.person.start, att.person.end, att.target.start, att.target.end, att.rtype)
        for att in pred if att.person is not None)
    tp = sum((gold_triples & pred_triples).values())
    return (tp, sum(pred_triples.values()) - tp, sum(gold_triples.values()) - tp)


class TestPrfRow:
    def test_person_reference_row(self):
        row = PrfRow.from_counts("Person", 87, 13, 6)
        assert row.precision == pytest.approx(0.87, abs=0.005)
        assert row.recall == pytest.approx(0.94, abs=0.005)
        assert row.f1 == pytest.approx(0.90, abs=0.005)

    def test_all_classes_reference_row(self):
        row = PrfRow.from_counts("All Classes", 355, 80, 71)
        assert row.precision == pytest.approx(0.82, abs=0.005)
        assert row.recall == pytest.approx(0.83, abs=0.005)
        assert row.f1 == pytest.approx(0.82, abs=0.005)

    def test_baseline_re_row(self):
        row = PrfRow.from_counts("baseline", 993, 759, 423)
        assert row.precision == pytest.approx(0.567, abs=0.001)
        assert row.recall == pytest.approx(0.701, abs=0.001)
        assert row.f1 == pytest.approx(0.627, abs=0.001)

    def test_constrained_sdp_re_row(self):
        row = PrfRow.from_counts("sdp", 1180, 559, 236)
        assert row.precision == pytest.approx(0.679, abs=0.001)
        assert row.recall == pytest.approx(0.833, abs=0.001)
        assert row.f1 == pytest.approx(0.748, abs=0.001)

    def test_zero_denominators(self):
        row = PrfRow.from_counts("empty", 0, 0, 0)
        assert row.precision == row.recall == row.f1 == 0.0

    def test_every_reference_cell_reproduces(self):
        assert verify_reference_metrics(tolerance=0.005) == []


class TestScoreEntities:
    def test_identity_scores_one(self):
        gold = [
            span("T1", EntityType.PERSON, 0),
            span("T2", EntityType.RANK, 10),
            span("T3", EntityType.ORGANIZATION, 20),
            span("T4", EntityType.TITLE_ROLE, 30),
        ]
        for row in rows_from_entity_counts(entity_counts(gold, list(gold))):
            assert row.precision == row.recall == row.f1 == 1.0

    def test_empty_predictions(self):
        gold = [span("T1", EntityType.PERSON, 0)]
        rows = {r.name: r for r in rows_from_entity_counts(entity_counts(gold, []))}
        assert rows["Person"].fn == 1
        assert rows["Person"].precision == 0.0
        assert rows["All Classes"].recall == 0.0

    def test_boundary_mismatch_is_fp_and_fn(self):
        gold = [span("T1", EntityType.PERSON, 0, width=5)]
        pred = [span("T9", EntityType.PERSON, 0, width=6)]
        rows = {r.name: r for r in rows_from_entity_counts(entity_counts(gold, pred))}
        assert rows["Person"].tp == 0
        assert rows["Person"].fp == 1 and rows["Person"].fn == 1

    def test_class_confusion_not_matched(self):
        gold = [span("T1", EntityType.RANK, 0)]
        pred = [span("T9", EntityType.TITLE_ROLE, 0)]
        rows = {r.name: r for r in rows_from_entity_counts(entity_counts(gold, pred))}
        assert rows["Rank"].fn == 1
        assert rows["Title/Role"].fp == 1
        assert rows["All Classes"].tp == 0

    def test_micro_average_totals(self):
        counts = {
            EntityType.PERSON: (87, 13, 6),
            EntityType.RANK: (80, 14, 11),
            EntityType.ORGANIZATION: (103, 33, 31),
            EntityType.TITLE_ROLE: (85, 20, 23),
        }
        rows = rows_from_entity_counts(counts)
        all_row = rows[-1]
        assert (all_row.tp, all_row.fp, all_row.fn) == (355, 80, 71)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        gold = [span(f"T{i}", EntityType.PERSON, 10 * i) for i in range(6)]
        pred = [span(f"P{i}", EntityType.PERSON, 10 * i) for i in range(4)]
        base = entity_counts(gold, pred)
        for _ in range(5):
            rng.shuffle(gold)
            rng.shuffle(pred)
            assert entity_counts(gold, pred) == base


class TestScoreRelations:
    def setup_method(self):
        self.person = span("T1", EntityType.PERSON, 0)
        self.rank = span("T2", EntityType.RANK, 10)
        self.org = span("T3", EntityType.ORGANIZATION, 20)
        self.entities = [self.person, self.rank, self.org]
        self.relations = [
            RelationEdge("R1", RelationType.HAS_RANK, "T1", "T2"),
            RelationEdge("R2", RelationType.IS_POSTED, "T1", "T3"),
        ]
        self.gold = gold_of(self.relations, self.entities)

    def attach(self, target, person, strategy=Strategy.NEAREST_PERSON):
        from unitgraph.relations import type_map

        return Attachment(target, person, type_map(target.etype), strategy)

    def test_exact_match_counts(self):
        pred = [self.attach(self.rank, self.person),
                self.attach(self.org, self.person)]
        assert relation_counts(self.gold, pred) == (2, 0, 0)
        row = PrfRow.from_counts("Relations", *relation_counts(self.gold, pred))
        assert row.precision == row.recall == 1.0

    def test_empty_predictions_score_zero(self):
        row = PrfRow.from_counts("Relations", *relation_counts(self.gold, []))
        assert (row.precision, row.recall, row.f1) == (0.0, 0.0, 0.0)
        assert row.fn == 2

    def test_abstention_counts_only_fn(self):
        pred = [self.attach(self.rank, None, Strategy.NN_FREE),
                self.attach(self.org, self.person)]
        tp, fp, fn = relation_counts(self.gold, pred)
        assert (tp, fp, fn) == (1, 0, 1)

    def test_wrong_person_is_fp_plus_fn(self):
        other = span("T4", EntityType.PERSON, 40)
        pred = [self.attach(self.rank, other)]
        tp, fp, fn = relation_counts(gold_of(self.relations, self.entities + [other]), pred)
        assert (tp, fp, fn) == (0, 1, 2)

    def test_gold_invariants_on_fixture_runs(self, corpus_entries):
        for doc, trees in corpus_entries:
            for strat in (Strategy.NEAREST_PERSON, Strategy.SDP_FREE,
                          Strategy.SDP_CONSTRAINED):
                contexts = build_contexts(doc, trees)
                atts = extract_document(doc, contexts, strat)
                tp, fp, fn = relation_counts(gold_pairs(doc, contexts), atts)
                named = [a for a in atts if a.person is not None]
                assert tp + fn == len(doc.relations)
                assert tp + fp == len(named)

    def test_cross_sentence_gold_scores_fn(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_CEREMONY]
        contexts = build_contexts(doc, trees)
        atts = extract_document(doc, contexts, Strategy.SDP_CONSTRAINED)
        tp, fp, fn = relation_counts(gold_pairs(doc, contexts), atts)
        assert (tp, fn) == (0, 1)

    def test_untypable_gold_edge_stays_fn(self):
        # a relation between two non-Person spans can never be matched
        a, b = span("T5", EntityType.TITLE_ROLE, 50), span("T6", EntityType.TITLE_ROLE, 60)
        gold = [RelationEdge("R9", RelationType.HAS_RANK, "T5", "T6")]
        tp, fp, fn = relation_counts(gold_of(gold, [a, b]), [])
        assert (tp, fp, fn) == (0, 0, 1)

    def test_permutation_invariance(self, corpus_by_id):
        rng = random.Random(5)
        doc, trees = corpus_by_id[DOC_VANGUARD]
        contexts = build_contexts(doc, trees)
        atts = extract_document(doc, contexts, Strategy.NEAREST_PERSON)
        gold = gold_pairs(doc, contexts)
        base = relation_counts(gold, atts)
        for _ in range(4):
            rng.shuffle(gold)
            rng.shuffle(atts)
            assert relation_counts(gold, atts) == base


@given(gold_documents(), st.data())
@settings(max_examples=200, deadline=None)
def test_relation_counts_match_reference(drawn, data):
    # predictions from the document's own entities, each in either role,
    # of any type, some abstaining and some repeated
    doc, contexts = drawn
    entities = st.sampled_from(doc.entities) if doc.entities else st.nothing()
    pred = data.draw(st.lists(st.builds(
        Attachment, target=entities, person=st.none() | entities,
        rtype=st.sampled_from(RelationType), strategy=st.sampled_from(Strategy))))
    # and a correct prediction for some of the gold edges
    pred += [Attachment(e.target, e.person, e.relation.rtype, Strategy.NN_FREE)
             for e in gold_pairs(doc, contexts)
             if e.person is not None and data.draw(st.booleans())]
    assert (relation_counts(gold_pairs(doc, contexts), pred)
            == reference_relation_counts(doc.relations, pred, doc.entities))


class TestFormatting:
    def test_prf_table_layout(self):
        rows = [PrfRow.from_counts("Person", 87, 13, 6)]
        table = format_prf_table(rows)
        head, line = table.splitlines()
        assert head.split() == ["Class", "TP", "FP", "FN", "Precision", "Recall", "F1"]
        assert line.split() == ["Person", "87", "13", "6", "0.87", "0.94", "0.90"]

    def test_timing_table_includes_reference(self):
        from unitgraph.evaluation import TimingRow

        rows = [TimingRow("Shortest Dep. Path", 0.0001, None),
                TimingRow("Neural Network", 0.002, 300)]
        table = format_timing_table(rows)
        assert "0.0039" in table  # reference column
        assert "294" in table


class TestBench:
    @pytest.fixture(scope="class")
    def models(self, corpus_entries):
        """An untrained tagger, and a network over the corpus's patterns."""
        vocab = build_vocab(
            collect_patterns([build_contexts(d, t) for d, t in corpus_entries]),
            min_count=1,
        )
        return TaggerModel(), init_model("constrained3", vocab.size, seed=13), vocab

    def test_bench_smoke(self, corpus_entries, models):
        rows = bench_pipeline(corpus_entries, *models, repetitions=3)
        assert [r.component for r in rows] == [
            "NER", "Tree alignment", "Shortest Dep. Path", "Neural Network",
        ]
        for row in rows:
            assert row.seconds_per_line > 0
            assert math.isfinite(row.seconds_per_line)

    def test_repetitions_floor(self, corpus_entries, models):
        with pytest.raises(ValueError, match="3 repetitions"):
            bench_pipeline(corpus_entries, *models, repetitions=2)

    def test_repeated_runs_are_roughly_stable(self, corpus_entries, models):
        # loose sanity bound: wall-time jitter stays within one order
        a = bench_pipeline(corpus_entries, *models, repetitions=3)
        b = bench_pipeline(corpus_entries, *models, repetitions=3)
        sdp_a = next(r for r in a if r.component == "Shortest Dep. Path")
        sdp_b = next(r for r in b if r.component == "Shortest Dep. Path")
        ratio = max(sdp_a.seconds_per_line, sdp_b.seconds_per_line) / min(
            sdp_a.seconds_per_line, sdp_b.seconds_per_line
        )
        assert ratio < 10
