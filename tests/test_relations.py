import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings

import unitgraph.relations
import unitgraph.tagger
import unitgraph.tokens
from unitgraph import relnet
from unitgraph.corpus import (Document, EntitySpan, EntityType, RelationEdge,
                              RelationType, parse_brat, parse_conllu)
from unitgraph.deptree import span_path
from unitgraph.relations import (
    Attachment,
    SentenceContext,
    Strategy,
    build_contexts,
    extract_document,
    flanking_persons,
    gold_pairs,
    nearest_person,
    run_document,
    sdp_attach,
    type_map,
)
from unitgraph.tagger import predict_entities, train_tagger, training_corpus
from unitgraph.tokens import sentences, tokenize

from conftest import (
    DOC_CEREMONY,
    DOC_LOGISTICS,
    DOC_VANGUARD,
    DUPLICATE_PERSON_ANN,
    DUPLICATE_PERSON_CONLLU,
    DUPLICATE_PERSON_TXT,
    gold_documents,
    tree_from_heads,
)


def person(i, start, width=6):
    return EntitySpan(f"P{i}", EntityType.PERSON, start, start + width, "x" * width)


def target_at(start, width=4, etype=EntityType.RANK):
    return EntitySpan("TT", etype, start, start + width, "y" * width)


def plain_ctx(persons, targets):
    ents = persons + targets
    lo = min(e.start for e in ents)
    hi = max(e.end for e in ents)
    return SentenceContext(
        tree=None,
        persons=sorted(persons, key=lambda e: e.start),
        targets=sorted(targets, key=lambda e: e.start),
        extent=(lo, hi),
    )


class TestTypeMap:
    def test_mapping(self):
        assert type_map(EntityType.ORGANIZATION) is RelationType.IS_POSTED
        assert type_map(EntityType.RANK) is RelationType.HAS_RANK
        assert type_map(EntityType.TITLE_ROLE) is RelationType.HAS_TITLE_ROLE

    def test_person_rejected(self):
        with pytest.raises(ValueError):
            type_map(EntityType.PERSON)


class TestNearestPerson:
    def test_person_immediately_right(self):
        # "General Lamidi Adeosun": the rank attaches to the name after it
        text = "General Lamidi Adeosun"
        rank = EntitySpan("T1", EntityType.RANK, 0, 7, "General")
        who = EntitySpan("T2", EntityType.PERSON, 8, 22, "Lamidi Adeosun")
        att = nearest_person(plain_ctx([who], [rank]), rank)
        assert att.person == who
        assert att.rtype is RelationType.HAS_RANK

    def test_single_person_on_left(self):
        who = person(1, 0)
        tgt = target_at(20)
        att = nearest_person(plain_ctx([who], [tgt]), tgt)
        assert att.person == who

    def test_right_rule_beats_closer_left_person(self):
        tgt = target_at(20, width=4)
        close_left = person(1, 11)  # gap of 5
        far_right = person(2, 36)  # gap of 12, still preferred
        att = nearest_person(plain_ctx([close_left, far_right], [tgt]), tgt)
        assert att.person == far_right

    def test_distance_tie_goes_left(self):
        tgt = target_at(20, width=4)
        left = person(1, 10, width=5)   # gap 20-15 = 5
        other_left = person(2, 5, width=5)
        att = nearest_person(plain_ctx([left, other_left], [tgt]), tgt)
        assert att.person == left

    def test_right_person_always_wins_when_one_exists(self):
        rng = random.Random(808)
        for _ in range(150):
            persons = [person(i, rng.randrange(0, 200), width=4)
                       for i in range(rng.randint(1, 5))]
            tgt = target_at(rng.randrange(0, 200), width=4)
            att = nearest_person(plain_ctx(persons, [tgt]), tgt)
            if any(p.start >= tgt.end for p in persons):
                assert att.person.start >= tgt.end


class TestFlankingPersons:
    def test_matches_brute_force_on_random_layouts(self):
        rng = random.Random(555)
        for _ in range(200):
            persons = []
            used = set()
            for i in range(rng.randint(1, 5)):
                start = rng.randrange(0, 90)
                if start in used:
                    continue
                used.add(start)
                persons.append(person(i, start, width=3))
            tgt = target_at(rng.randrange(0, 90), width=3)
            ctx = plain_ctx(persons, [tgt])
            left, right = flanking_persons(ctx, tgt)
            before = [p for p in persons if p.start < tgt.start]
            after = [p for p in persons if p.start > tgt.start]
            assert left == (max(before, key=lambda p: p.start) if before else None)
            assert right == (min(after, key=lambda p: p.start) if after else None)


class TestContextPath:
    def test_matches_span_path_in_any_call_order(self, corpus_entries):
        seen = {"path": 0, "none": 0}
        for doc, trees in corpus_entries:
            for parsed in (trees, []):
                for backwards in (False, True):
                    contexts = build_contexts(doc, parsed)
                    pairs = [(ctx, t, p) for ctx in contexts
                             for t in ctx.targets for p in ctx.persons]
                    for ctx, t, p in reversed(pairs) if backwards else pairs:
                        t_toks, p_toks = ctx.tree_tokens(t), ctx.tree_tokens(p)
                        expected = (span_path(ctx.tree, t_toks, p_toks)
                                    if t_toks and p_toks else None)
                        assert ctx.path(t, p) == expected
                        assert ctx.path(t, p) == expected  # memoized value
                        seen["path" if expected else "none"] += 1
        assert seen["path"] and seen["none"]

    def test_memo_does_not_change_equality(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_VANGUARD]
        fresh, used = build_contexts(doc, trees), build_contexts(doc, trees)
        for ctx in used:
            for t in ctx.targets:
                for p in ctx.persons:
                    ctx.path(t, p)
        assert fresh == used


class TestBuildContexts:
    # tree 1's straight "'s" matches the one in sentence 2, so tree 1
    # swallows the text and tree 2 finds none of its forms after it
    DRIFT_TEXT = "Colonel Ali\u2019s unit left. Major Bo's unit met there."
    DRIFT_TREES = [
        tree_from_heads(["Colonel", "Ali", "'s", "unit", "left", "."],
                        [1, 3, 1, 4, -1, 4]),
        tree_from_heads(["Major", "Bo", "'s", "unit", "met", "there", "."],
                        [1, 3, 1, 4, -1, 4, 4]),
    ]

    def test_tree_aligned_to_no_text_warns(self, corpus_entries, caplog):
        caplog.set_level(logging.WARNING)
        for doc, trees in corpus_entries:
            build_contexts(doc, trees)
        assert not [r for r in caplog.records if "aligns to no text" in r.getMessage()]
        doc = Document("drift", self.DRIFT_TEXT)
        contexts = build_contexts(doc, self.DRIFT_TREES)
        assert [ctx.extent for ctx in contexts] == [(0, 51), (51, 51)]
        assert [r.getMessage() for r in caplog.records] == [
            "drift: parse tree 2 aligns to no text"
        ]


class TestSdpAttach:
    def test_single_person_regardless_of_constraint(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_VANGUARD]
        ctx = [c for c in build_contexts(doc, trees) if c.persons][0]
        for constrained in (False, True):
            for tgt in ctx.targets:
                att = sdp_attach(ctx, tgt, constrained)
                assert att.person.surface == "Jack Nwaogbo"

    def test_logistics_fixture_reproduces_known_error(self, corpus_by_id):
        # tree distance prefers the sayer over the gold appointee
        doc, trees = corpus_by_id[DOC_LOGISTICS]
        ctx = build_contexts(doc, trees)[0]
        chief = next(t for t in ctx.targets if t.surface == "Chief of Logistics")
        att = sdp_attach(ctx, chief, constrained=False)
        assert att.person.surface == "M. T. Ibrahim"
        gold = next(e for e in doc.entities if e.id == "T3")
        assert gold.surface == "Emmanuel Atewe" and att.person != gold

    def test_constrained_choice_is_a_flank(self, corpus_entries):
        for doc, trees in corpus_entries:
            for ctx in build_contexts(doc, trees):
                if ctx.tree is None or not ctx.persons:
                    continue
                for tgt in ctx.targets:
                    att = sdp_attach(ctx, tgt, constrained=True)
                    assert att.person in flanking_persons(ctx, tgt)

    def test_constrained_choice_is_a_flank_on_random_trees(self):
        from unitgraph.deptree import align_to_text
        from test_deptree import random_tree

        rng = random.Random(31415)
        for _ in range(60):
            tree = random_tree(rng, 10)
            text = " ".join(tree.forms)
            spans = align_to_text(tree, text)
            slots = rng.sample(range(10), 4)
            persons = [
                EntitySpan(f"P{i}", EntityType.PERSON, *spans[tok], tree.forms[tok])
                for i, tok in enumerate(slots[:3])
            ]
            tok = slots[3]
            tgt = EntitySpan("TT", EntityType.RANK, *spans[tok], tree.forms[tok])
            ctx = SentenceContext(
                tree=tree,
                persons=sorted(persons, key=lambda e: e.start),
                targets=[tgt], extent=(0, len(text)), tree_spans=spans,
            )
            att = sdp_attach(ctx, tgt, constrained=True)
            # brute-force flanks by start offset
            before = [p for p in persons if p.start < tgt.start]
            after = [p for p in persons if p.start > tgt.start]
            allowed = {
                max(before, key=lambda p: p.start).id if before else None,
                min(after, key=lambda p: p.start).id if after else None,
            }
            assert att.person.id in allowed

    def test_unconstrained_minimizes_path_length(self, corpus_entries):
        from unitgraph.deptree import span_path

        for doc, trees in corpus_entries:
            for ctx in build_contexts(doc, trees):
                if ctx.tree is None or not ctx.persons:
                    continue
                for tgt in ctx.targets:
                    att = sdp_attach(ctx, tgt, constrained=False)
                    t_toks = ctx.tree_tokens(tgt)
                    best = min(
                        span_path(ctx.tree, t_toks, ctx.tree_tokens(p)).length
                        for p in ctx.persons
                        if ctx.tree_tokens(p)
                    )
                    chosen = span_path(
                        ctx.tree, t_toks, ctx.tree_tokens(att.person)
                    ).length
                    assert chosen == best

    def test_missing_tree_raises(self):
        from unitgraph.errors import MissingParseError

        ctx = plain_ctx([person(1, 0)], [target_at(20)])
        with pytest.raises(MissingParseError):
            sdp_attach(ctx, ctx.targets[0], constrained=False)


class TestExtractDocument:
    def vanguard_gold_view(self, corpus_by_id):
        """The annotated example sentence with its four collapsed entities."""
        doc, trees = corpus_by_id[DOC_VANGUARD]
        keep = {"T1", "T2", "T4", "T5"}  # title, unit, rank, person
        view = Document(
            doc.doc_id, doc.text, [e for e in doc.entities if e.id in keep]
        )
        return view, trees

    def test_one_person_three_targets(self, corpus_by_id):
        view, trees = self.vanguard_gold_view(corpus_by_id)
        atts = extract_document(view, build_contexts(view, trees),
                                Strategy.NEAREST_PERSON)
        assert len(atts) == 3
        assert {a.person.surface for a in atts} == {"Jack Nwaogbo"}
        assert {a.rtype for a in atts} == {
            RelationType.HAS_TITLE_ROLE,
            RelationType.IS_POSTED,
            RelationType.HAS_RANK,
        }

    def test_document_without_persons(self):
        text = "The Nigerian Army issued a statement."
        doc = Document(
            "d", text,
            [EntitySpan("T1", EntityType.ORGANIZATION, 4, 17, "Nigerian Army")],
        )
        contexts = build_contexts(doc, [])
        assert extract_document(doc, contexts, Strategy.NEAREST_PERSON) == []

    def test_rtype_always_matches_target_class(self, corpus_entries):
        for doc, trees in corpus_entries:
            for strat in (Strategy.NEAREST_PERSON, Strategy.SDP_FREE,
                          Strategy.SDP_CONSTRAINED):
                for att in extract_document(doc, build_contexts(doc, trees), strat):
                    assert att.rtype is type_map(att.target.etype)
                    assert isinstance(att, Attachment)

    def test_given_sentences_give_the_same_contexts(self, corpus_entries):
        for doc, trees in corpus_entries:
            sents = sentences(tokenize(doc.text))
            assert build_contexts(doc, [], sents) == build_contexts(doc, [])
            assert build_contexts(doc, trees, sents) == build_contexts(doc, trees)

    def test_fallback_policy_without_parses(self, corpus_by_id):
        doc, _ = corpus_by_id[DOC_VANGUARD]
        contexts = build_contexts(doc, [])
        with_fallback = extract_document(doc, contexts, Strategy.SDP_CONSTRAINED)
        assert with_fallback
        assert {a.strategy for a in with_fallback} == {Strategy.NEAREST_PERSON}
        skipped = extract_document(doc, contexts, Strategy.SDP_CONSTRAINED,
                                   fallback=False)
        assert skipped == []

    def test_duplicate_person_annotation_goes_to_first(self):
        # the two Persons tie on path length, distance and start
        doc = parse_brat(DUPLICATE_PERSON_ANN, DUPLICATE_PERSON_TXT, "dup")
        contexts = build_contexts(doc, parse_conllu(DUPLICATE_PERSON_CONLLU))
        for strat in (Strategy.SDP_FREE, Strategy.SDP_CONSTRAINED,
                      Strategy.NEAREST_PERSON):
            atts = extract_document(doc, contexts, strat, fallback=False)
            assert [(a.person.id, a.target.id) for a in atts] == [("T1", "T3")]
            assert atts[0].strategy is strat

    def test_duplicate_person_left_of_target_goes_to_first(self):
        # both copies are left of the target, where sdp-constrained takes
        # its left flank
        text = "John Smith was the colonel.\n"
        ann = ("T1\tPerson 0 10\tJohn Smith\n"
               "T2\tPerson 0 10\tJohn Smith\n"
               "T3\tRank 19 26\tcolonel\n")
        conllu = (
            "# sent_id = 1\n"
            "1\tJohn\tJohn\tPROPN\t_\t_\t2\tcompound\t_\t_\n"
            "2\tSmith\tSmith\tPROPN\t_\t_\t5\tnsubj\t_\t_\n"
            "3\twas\tbe\tAUX\t_\t_\t5\tcop\t_\t_\n"
            "4\tthe\tthe\tDET\t_\t_\t5\tdet\t_\t_\n"
            "5\tcolonel\tcolonel\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "6\t.\t.\tPUNCT\t_\t_\t5\tpunct\t_\t_\n"
            "\n"
        )
        doc = parse_brat(ann, text, "dup")
        contexts = build_contexts(doc, parse_conllu(conllu))
        left, right = flanking_persons(contexts[0], doc.entities[2])
        assert (left.id, right) == ("T1", None)
        for strat in (Strategy.NEAREST_PERSON, Strategy.SDP_FREE,
                      Strategy.SDP_CONSTRAINED):
            atts = extract_document(doc, contexts, strat, fallback=False)
            assert [(a.person.id, a.target.id) for a in atts] == [("T1", "T3")], strat

    def test_nn_strategy_requires_model(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_VANGUARD]
        with pytest.raises(ValueError, match="model"):
            extract_document(doc, build_contexts(doc, trees), Strategy.NN_FREE)


@pytest.fixture(scope="module")
def networks(corpus_entries):
    """Both relation networks, briefly fitted on the fixtures."""
    vocab, pairs = relnet.training_set(corpus_entries, 1, True)
    return {
        strategy: (relnet.train([relnet.init_model(net.mode, vocab.size)],
                                [relnet.build_dataset(pairs, vocab, net.mode)],
                                epochs=10)[0], vocab)
        for strategy, net in relnet.NETWORKS.items()
    }


class TestRunDocument:
    @pytest.mark.parametrize("fallback", [True, False])
    def test_strategies_match_extract_document(self, corpus_entries, networks,
                                               fallback):
        # every strategy shares one set of contexts, and gets what it gets
        # from contexts of its own; unparsed documents too
        for doc, trees in corpus_entries:
            for given in (trees, []):
                run = run_document(doc, given, list(Strategy), networks,
                                   fallback=fallback)
                assert run.view is doc
                assert run.contexts == build_contexts(doc, given)
                for strategy in Strategy:
                    model, vocab = networks.get(strategy, (None, None))
                    assert run.attachments[strategy] == extract_document(
                        doc, build_contexts(doc, given), strategy, model, vocab,
                        fallback=fallback)
                assert set(run.seconds) == {"ner", "contexts",
                                            *(s.value for s in Strategy)}

    def test_tagger_view_tokenizes_once(self, corpus_entries, monkeypatch):
        tagger = train_tagger(training_corpus([doc for doc, _ in corpus_entries]),
                              epochs=1)
        texts = Counter()
        tokenize = unitgraph.tokens.tokenize

        def counted(text):
            texts[text] += 1
            return tokenize(text)

        for module in (unitgraph.tagger, unitgraph.relations):
            monkeypatch.setattr(module, "tokenize", counted)
        for doc, trees in corpus_entries:
            for given in (trees, []):
                texts.clear()
                run = run_document(doc, given, [Strategy.NEAREST_PERSON],
                                   tagger=tagger)
                assert texts == {doc.text: 1}
                assert run.view.entities == predict_entities(tagger, doc)
                assert run.view.relations == []
                assert run.contexts == build_contexts(run.view, given)


class TestGoldPairs:
    def test_cross_sentence_relation_counted(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_CEREMONY]
        [edge] = gold_pairs(doc, build_contexts(doc, trees))
        assert edge.relation == doc.relations[0]
        assert edge.person is not None and edge.context is None

    def test_same_sentence_pairs(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_VANGUARD]
        contexts = build_contexts(doc, trees)
        edges = gold_pairs(doc, contexts)
        assert [e.relation for e in edges] == doc.relations
        assert all(e.context in contexts for e in edges)
        assert {(e.target.surface, e.person.surface) for e in edges} == {
            ("General Officer Commanding", "Jack Nwaogbo"),
            ("3 Armoured Division", "Jack Nwaogbo"),
            ("Major General", "Jack Nwaogbo"),
        }

    P = EntitySpan("T1", EntityType.PERSON, 0, 4, "John")
    Q = EntitySpan("T2", EntityType.PERSON, 10, 14, "Mary")
    R = EntitySpan("T3", EntityType.RANK, 5, 9, "Col.")

    def pairs(self, arg1, arg2):
        doc = Document("d", "John Col. Mary", [self.P, self.Q, self.R],
                       [RelationEdge("R1", RelationType.HAS_RANK, arg1, arg2)])
        [edge] = gold_pairs(doc, build_contexts(doc, []))
        return edge

    def test_either_argument_order(self):
        assert self.pairs("T1", "T3")[1:3] == (self.P, self.R)
        assert self.pairs("T3", "T2")[1:3] == (self.Q, self.R)

    def test_unpairable_edges(self):
        for arg1, arg2 in (("T1", "T9"), ("T9", "T3"), ("T1", "T2"), ("T3", "T3")):
            assert self.pairs(arg1, arg2)[1:] == (None, None, None)


def _home(contexts, ent):
    """The first context whose extent the entity overlaps, as
    ``build_contexts`` assigns it, or None."""
    return next((c for c in contexts if ent.start < c.extent[1]
                 and ent.end > c.extent[0]), None)


@given(gold_documents())
@settings(max_examples=200, deadline=None)
def test_gold_pairs_partition_the_relations(drawn):
    # one record per relation, in order; each unpairable, same-sentence or
    # cross-sentence, as the entities' types and sentences say it must be
    doc, contexts = drawn
    edges = gold_pairs(doc, contexts)
    assert [e.relation for e in edges] == doc.relations
    by_id = {e.id: e for e in doc.entities}
    for edge in edges:
        rel = edge.relation
        args = [by_id.get(rel.arg1), by_id.get(rel.arg2)]
        persons = [a for a in args if a is not None and a.etype is EntityType.PERSON]
        if None in args or len(persons) != 1:
            assert edge[1:] == (None, None, None)
            continue
        assert edge.person is persons[0]
        assert {edge.person.id, edge.target.id} == {rel.arg1, rel.arg2}
        assert edge.target.etype is not EntityType.PERSON
        home = _home(contexts, edge.target)
        if home is not None and _home(contexts, edge.person) is home:
            assert edge.context is home
            assert edge.person in home.persons and edge.target in home.targets
        else:
            assert edge.context is None
