import hashlib
import itertools
import logging
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph import tagger
from unitgraph.corpus import Document, EntitySpan, EntityType, load_corpus
from unitgraph.errors import DataError, ModelFileError
from unitgraph.tagger import (
    MODEL_MAGIC,
    Gazetteers,
    START,
    TaggerModel,
    _emissions,
    _moves,
    _sentence_ids,
    _shape,
    _tag_sentences,
    _viterbi,
    featurize_sentences,
    featurize_token,
    load_tagger,
    predict_entities,
    rank_lexicon,
    save_tagger,
    train_tagger,
    training_corpus,
    viterbi_decode,
)
from unitgraph.tokens import (
    TAGSET,
    iob_to_spans,
    sentences,
    spans_to_iob,
    tokenize,
    valid_transition,
)

from conftest import CORPUS_DIR, GAZETTEERS

# every (previous tag, tag) name pair, with START first, and those that
# valid_transition allows (it treats START as O)
MOVES = [(prev, tag) for prev in (START, *TAGSET) for tag in TAGSET]
ALLOWED = frozenset(
    (prev, tag) for prev, tag in MOVES if valid_transition("O" if prev == START else prev, tag))


def token_features(tokens, gazetteers=None):
    """Each token's features from the per-token featurizer, built once per
    sentence rather than once per scored tag sequence."""
    return [featurize_token(tokens, i, gazetteers) for i in range(len(tokens))]


def sequence_score(feature_weights, transition_weights, feats, tags):
    """Independent scorer used by the exhaustive oracle; ``feats`` holds
    each token's features (``token_features``)."""
    total = 0.0
    prev = START
    for token_feats, tag in zip(feats, tags):
        for f in token_feats:
            total += feature_weights.get((f, tag), 0.0)
        total += reference_transition(transition_weights, prev, tag)
        prev = tag
    return total


def exhaustive_best(feature_weights, transition_weights, feats):
    best_tags, best_score = None, float("-inf")
    for combo in itertools.product(TAGSET, repeat=len(feats)):
        score = sequence_score(feature_weights, transition_weights, feats, combo)
        if score > best_score:
            best_tags, best_score = list(combo), score
    return best_tags, best_score


def reference_transition(transition_weights, prev, nxt_tag):
    """The transition score as the per-token decoder computed it."""
    if (prev, nxt_tag) not in ALLOWED:
        return float("-inf")
    return transition_weights.get((prev, nxt_tag), 0.0)


def reference_decode(feature_weights, transition_weights, feats):
    """The decoder that scored every token and transition through dict
    lookups, kept as the reference for tie-breaking; ``feats`` holds each
    token's features."""
    NEG_INF = float("-inf")
    if not feats:
        return []
    tags = TAGSET
    n, m = len(feats), len(tags)
    emit = [
        [
            sum(feature_weights.get((f, tag), 0.0) for f in feats[i])
            for tag in tags
        ]
        for i in range(n)
    ]
    score = [[NEG_INF] * m for _ in range(n)]
    back = [[0] * m for _ in range(n)]
    for t in range(m):
        score[0][t] = emit[0][t] + reference_transition(transition_weights, START, tags[t])
    for i in range(1, n):
        for t in range(m):
            best_prev, best_score = 0, NEG_INF
            for p in range(m):
                if score[i - 1][p] == NEG_INF:
                    continue
                s = score[i - 1][p] + reference_transition(
                    transition_weights, tags[p], tags[t])
                if s > best_score:
                    best_prev, best_score = p, s
            score[i][t] = best_score + emit[i][t] if best_score != NEG_INF else NEG_INF
            back[i][t] = best_prev
    last = max(range(m), key=lambda t: (score[n - 1][t], -t))
    path = [last]
    for i in range(n - 1, 0, -1):
        path.append(back[i][path[-1]])
    path.reverse()
    return [tags[t] for t in path]


def reference_train(corpus, epochs, seed, gazetteers=None):
    """The dict trainer the array trainer replaced, kept as its oracle.

    Each update bumps one ``(feature, tag)`` or ``(previous tag, tag)``
    weight by +-1.0.  Lazy averaging keeps, per key, the weight's total
    over the steps before its last bump and the step of that bump.
    """
    gazetteers = gazetteers or Gazetteers()
    feats = [token_features(tokens, gazetteers) for tokens, _ in corpus]
    tables = {"F": {}, "T": {}}
    totals, stamps = {}, {}
    now = 0

    def bump(kind, key, delta):
        table = tables[kind]
        full = (kind,) + key
        totals[full] = totals.get(full, 0.0) + table.get(key, 0.0) * (now - stamps.get(full, 0))
        stamps[full] = now
        table[key] = table.get(key, 0.0) + delta

    def apply(sent_feats, tags, delta):
        prev = START
        for token_feats, tag in zip(sent_feats, tags):
            for f in token_feats:
                bump("F", (f, tag), delta)
            bump("T", (prev, tag), delta)
            prev = tag

    rng = random.Random(seed)
    order = list(range(len(corpus)))
    for _ in range(epochs):
        rng.shuffle(order)
        for si in order:
            gold = corpus[si][1]
            pred = reference_decode(tables["F"], tables["T"], feats[si])
            now += 1
            if pred != gold:
                apply(feats[si], gold, +1.0)
                apply(feats[si], pred, -1.0)

    averaged = {"F": {}, "T": {}}
    for kind, table in tables.items():
        for key, w in table.items():
            full = (kind,) + key
            total = totals.get(full, 0.0) + w * (now - stamps.get(full, 0))
            if total != 0.0:
                averaged[kind][key] = total / now
    return TaggerModel(averaged["F"], averaged["T"], gazetteers,
                       {"seed": seed, "epochs": epochs, "sentences": len(corpus)})


def string_ids(model, token_feats):
    """Each token's feature rows, looked up string by string, with
    ``None`` for a feature the model lacks: the rows the tagger decoded
    before it resolved features per word."""
    return [tuple(model.row.get(f) for f in feats) for feats in token_feats]


def bits(emissions):
    """Each emission's float bits, which tell -0.0 from 0.0."""
    return [[float.hex(e) for e in row] for row in emissions]


def saved_bytes(model):
    """The bytes ``save_tagger`` writes for the model."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.model"
        save_tagger(model, path)
        return path.read_bytes()


def reference_phrase_hits(tokens, i, phrases, span):
    """Whether a window of at most ``span`` tokens covering token i is a
    phrase, as the per-token featurizer looked it up."""
    for width in range(1, span + 1):
        for offset in range(width):
            lo = i - offset
            if lo < 0 or lo + width > len(tokens):
                continue
            phrase = " ".join(t.text.lower() for t in tokens[lo:lo + width])
            if phrase in phrases:
                return True
    return False


def reference_features(tokens, i, gazetteers=None):
    """The per-token featurizer, kept as the reference for the features."""
    word = tokens[i].text
    lower = word.lower()
    feats = [f"w={lower}", f"shape={_shape(word)}", f"pre3={lower[:3]}",
             f"suf3={lower[-3:]}"]
    if word[:1].isupper():
        feats.append("cap")
    feats.append(f"prev={tokens[i - 1].text.lower()}" if i > 0 else "prev=<s>")
    feats.append(f"next={tokens[i + 1].text.lower()}" if i + 1 < len(tokens)
                 else "next=</s>")
    if gazetteers is not None:
        span = gazetteers.max_words
        if gazetteers.organizations and reference_phrase_hits(
                tokens, i, gazetteers.organizations, span):
            feats.append("org-lex")
        if gazetteers.ranks and reference_phrase_hits(tokens, i, gazetteers.ranks, span):
            feats.append("rank-lex")
    return feats


def fixture_training_corpus():
    corpus = []
    for doc, _ in load_corpus(CORPUS_DIR):
        for sent in sentences(tokenize(doc.text)):
            ents = [e for e in doc.entities
                    if e.start < sent[-1].end and e.end > sent[0].start]
            corpus.append((sent, spans_to_iob(sent, ents)))
    return corpus


def random_weights(rng, tokens):
    """Gaussian feature weights for every tag of every token feature, and
    transition weights for every allowed move."""
    feature_weights = {}
    for i in range(len(tokens)):
        for f in featurize_token(tokens, i, None):
            for tag in TAGSET:
                feature_weights[(f, tag)] = rng.gauss(0, 1)
    transition_weights = {move: rng.gauss(0, 1) for move in MOVES if move in ALLOWED}
    return feature_weights, transition_weights


class TestFeatures:
    def test_capitalized_name(self):
        toks = tokenize("Jack Nwaogbo spoke")
        feats = featurize_token(toks, 1)
        assert "shape=Xxxxxxx" in feats
        assert "pre3=nwa" in feats
        assert "cap" in feats

    def test_digit_token_sees_next_word(self):
        toks = tokenize("3 Armoured Division")
        feats = featurize_token(toks, 0)
        assert "shape=d" in feats
        assert "next=armoured" in feats

    def test_rank_gazetteer_hit(self):
        docs = [
            Document(
                "d",
                "Major General Jack",
                [EntitySpan("T1", EntityType.RANK, 0, 13, "Major General")],
            )
        ]
        gaz = Gazetteers(ranks=rank_lexicon(docs))
        toks = tokenize("Major General Jack")
        assert "rank-lex" in featurize_token(toks, 0, gaz)
        assert "rank-lex" in featurize_token(toks, 1, gaz)
        assert "rank-lex" not in featurize_token(toks, 2, gaz)

    def test_org_gazetteer_from_file(self):
        gaz = Gazetteers.from_files(
            GAZETTEERS / "organizations.txt", GAZETTEERS / "ranks.txt"
        )
        toks = tokenize("the Nigerian Army said")
        assert "org-lex" in featurize_token(toks, 1, gaz)
        assert "org-lex" in featurize_token(toks, 2, gaz)
        assert "org-lex" not in featurize_token(toks, 3, gaz)

    def test_gazetteer_line_whitespace_does_not_matter(self, tmp_path):
        # a phrase's words may be split by a run of spaces or a tab
        toks = tokenize("The Major General spoke.")
        hits = []
        for i, line in enumerate(["major general", "Major  General", "major\tgeneral "]):
            (tmp_path / f"ranks{i}.txt").write_text(line + "\n", encoding="utf-8")
            gaz = Gazetteers.from_files(rank_path=tmp_path / f"ranks{i}.txt")
            assert gaz.ranks == {"major general"}
            hits.append([j for j in range(len(toks))
                         if "rank-lex" in featurize_token(toks, j, gaz)])
        assert hits == [[1, 2]] * 3


_WORDS = ["Nigerian", "nigerian", "ARMY", "Army", "Major", "General", "general",
          "of", "the", "3", "Division", "Brig.", "Gen.", "O'Neil", "Émile", "said",
          "-", ","]
_PHRASES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(
    lambda words: " ".join(words).lower())


@given(st.lists(st.sampled_from(_WORDS), max_size=30),
       st.none() | st.builds(Gazetteers, st.frozensets(_PHRASES, max_size=6),
                             st.frozensets(_PHRASES, max_size=6)))
@settings(max_examples=300, deadline=None)
def test_sentence_features_match_per_token_reference(words, gazetteers):
    # phrases drawn from the same words overlap and nest in the sentence
    tokens = tokenize(" ".join(words))
    expected = [reference_features(tokens, i, gazetteers) for i in range(len(tokens))]
    assert featurize_sentences([tokens], gazetteers)[0] == expected
    assert [featurize_token(tokens, i, gazetteers)
            for i in range(len(tokens))] == expected


def reference_shape(word):
    """The per-character shape rule, kept as the reference for ``_shape``."""
    return "".join("X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit()
                   else ch for ch in word)


# letters, digits and marks outside ASCII that str.isupper/islower/isdigit
# classify, some of which change length when lower-cased (İ) or are
# title-case (ǅ)
_NON_ASCII = ["İ", "ß", "²", "Ọ", "’", "É", "é", "ǅ", "Ⅻ", "٣", "ﬁ", "Σ", "ς", "µ", "—", "\u00a0"]


def test_shape_matches_per_character_rule():
    for ch in [chr(c) for c in range(128)] + _NON_ASCII:
        assert _shape(ch) == reference_shape(ch), repr(ch)
    for word in ["O'Neil", "3rd", "Brig.", "İstanbul", "Straße", "x²", "Ọba", "AbC-12_z"]:
        assert _shape(word) == reference_shape(word), word


_TAGGED_WORDS = _WORDS + ["İstanbul", "Straße", "x²", "Ọba", "’", "İ", "ß", "²", "Ọ"]
_TAGGED_PHRASES = st.lists(st.sampled_from(_TAGGED_WORDS), min_size=1, max_size=3).map(
    lambda words: " ".join(words).lower())
# signed zeros, and magnitudes far apart, so that the order of the
# additions shows in the bits of the emissions
_WEIGHTS = st.sampled_from([-0.0, 0.0]) | st.floats(-1e6, 1e6) | st.floats(-1e-6, 1e-6)


@st.composite
def tagging_cases(draw):
    """A document of random words in one or more sentences, and a model
    with random gazetteers and random weights on some of its features."""
    words = st.lists(st.sampled_from(_TAGGED_WORDS), min_size=1, max_size=12)
    text = ".\n\n".join(" ".join(ws) for ws in draw(st.lists(words, min_size=1, max_size=4)))
    gazetteers = draw(st.builds(Gazetteers, st.frozensets(_TAGGED_PHRASES, max_size=5),
                                st.frozensets(_TAGGED_PHRASES, max_size=5)))
    sents = sentences(tokenize(text))
    features = sorted({f for sent in featurize_sentences(sents, gazetteers)
                       for token in sent for f in token})
    feature_weights = draw(st.dictionaries(
        st.tuples(st.sampled_from(features), st.sampled_from(TAGSET)), _WEIGHTS, max_size=80))
    transition_weights = draw(st.dictionaries(st.sampled_from(sorted(ALLOWED)), _WEIGHTS))
    return text, TaggerModel(feature_weights, transition_weights, gazetteers)


@given(tagging_cases())
@settings(max_examples=300, deadline=None)
def test_rows_per_word_tag_as_the_feature_strings_do(case):
    # the feature-string path: each token's features looked up one by one
    text, model = case
    sents = sentences(tokenize(text))
    strings = [f for sent in featurize_sentences(sents, model.gazetteers) for f in sent]
    assert strings == [reference_features(sent, i, model.gazetteers)
                       for sent in sents for i in range(len(sent))]
    expected = _emissions(model.weights, string_ids(model, strings))
    got = _emissions(model.weights, _sentence_ids(model, sents))
    assert bits(got) == bits(expected)
    spans, at = [], 0
    for sent in sents:
        path = _viterbi(_moves(model.transitions), expected[at:at + len(sent)])
        at += len(sent)
        spans.extend(iob_to_spans(sent, [TAGSET[t] for t in path], text=text,
                                  first_id=len(spans) + 1))
    assert predict_entities(model, Document("d", text)) == spans


class TestEmissions:
    def test_match_a_left_to_right_float_loop(self):
        # magnitudes from 1e-8 to 1e8 make the order of the additions show
        # in the low bits; signed zeros and unknown features are mixed in
        rng = random.Random(3318)
        for trial in range(200):
            vocab = [f"f{i}" for i in range(rng.randint(1, 30))]
            weights = {}
            for f in vocab:
                for name in TAGSET:
                    if rng.random() < 0.7:
                        weights[(f, name)] = rng.choice([
                            rng.gauss(0, 1) * 10.0 ** rng.randint(-8, 8), -0.0, 0.0])
            token_feats = [
                [rng.choice(vocab + ["unknown", "also-unknown"])
                 for _ in range(rng.randint(1, 12))]
                for _ in range(rng.randint(1, 20))
            ]
            expected = []
            for feats in token_feats:
                row = []
                for name in TAGSET:
                    acc = 0.0
                    for f in feats:
                        acc += weights.get((f, name), 0.0)
                    row.append(acc)
                expected.append(row)
            model = TaggerModel(weights)
            got = _emissions(model.weights, string_ids(model, token_feats))
            assert bits(got) == bits(expected), f"trial {trial}"


class TestViterbi:
    def test_zero_model_decodes_all_o(self):
        model = TaggerModel()
        toks = tokenize("General Nwaogbo spoke")
        assert viterbi_decode(model, toks) == ["O"] * 3

    def test_empty_input(self):
        assert viterbi_decode(TaggerModel(), []) == []

    def test_hand_set_weights_match_exhaustive(self):
        toks = tokenize("Jack Nwaogbo said")
        weights = {
            ("w=jack", "B-PER"): 2.0,
            ("w=nwaogbo", "I-PER"): 2.0,
            ("w=said", "O"): 1.0,
            ("w=said", "I-PER"): 0.5,
        }
        model = TaggerModel(weights)
        decoded = viterbi_decode(model, toks)
        assert decoded == ["B-PER", "I-PER", "O"]
        feats = token_features(toks)
        oracle, oracle_score = exhaustive_best(weights, {}, feats)
        assert decoded == oracle
        assert sequence_score(weights, {}, feats, decoded) == pytest.approx(oracle_score)

    def test_matches_exhaustive_on_random_models(self):
        rng = random.Random(20240801)
        for trial in range(20):
            n = rng.randint(1, 5)
            toks = tokenize(" ".join(f"word{i}" for i in range(n)))
            weights = random_weights(rng, toks)
            decoded = viterbi_decode(TaggerModel(*weights), toks)
            oracle, oracle_score = exhaustive_best(*weights, token_features(toks))
            assert decoded == oracle, f"trial {trial}"

    def test_matches_reference_with_tied_integer_weights(self):
        # small integer weights, half of them missing, over a vocabulary of
        # eight words: many sequences tie, so tie-breaking decides the output
        rng = random.Random(6151)
        gaz = Gazetteers(organizations=frozenset({"nigerian army", "army"}),
                         ranks=frozenset({"major general", "colonel"}))
        vocab = ["Nigerian", "Army", "Major", "General", "Colonel", "Musa",
                 "said", "the"]
        for trial in range(300):
            n = rng.randint(1, 40)
            toks = tokenize(" ".join(rng.choice(vocab) for _ in range(n)))
            feature_weights, transition_weights = {}, {}
            for i in range(len(toks)):
                for f in featurize_token(toks, i, gaz):
                    for tag in TAGSET:
                        if rng.random() < 0.5:
                            feature_weights[(f, tag)] = float(rng.randint(-2, 2))
            # a forbidden move holds no weight (test_rejects_weights_it_cannot_use);
            # it still draws one, so the allowed moves get the same weights
            for move in MOVES:
                if rng.random() < 0.5:
                    w = float(rng.randint(-2, 2))
                    if move in ALLOWED:
                        transition_weights[move] = w
            model = TaggerModel(feature_weights, transition_weights, gaz)
            assert viterbi_decode(model, toks) == reference_decode(
                feature_weights, transition_weights, token_features(toks, gaz)), \
                f"trial {trial}"

    def test_ragged_batch_matches_reference_sentence_by_sentence(self):
        # a 1-token sentence beside the longest one: its tags come from the
        # first step's scores, though the batch runs on to the longest
        rng = random.Random(4417)
        vocab = ["Musa", "Army", "General", "said", "the", "x"]
        for trial in range(40):
            lengths = [1, 12] + [rng.randint(1, 12) for _ in range(rng.randint(0, 4))]
            rng.shuffle(lengths)
            text = "\n\n".join(" ".join(rng.choice(vocab) for _ in range(n))
                               for n in lengths)
            sents = sentences(tokenize(text))
            assert [len(sent) for sent in sents] == lengths
            feature_weights, transition_weights = {}, {}
            for sent in sents:
                for token_feats in featurize_sentences([sent])[0]:
                    for f in token_feats:
                        for tag in TAGSET:
                            feature_weights[(f, tag)] = rng.gauss(0, 1)
            for move in MOVES:
                w = rng.gauss(0, 1)
                if move in ALLOWED:
                    transition_weights[move] = w
            model = TaggerModel(feature_weights, transition_weights)
            assert _tag_sentences(model, sents) == [
                reference_decode(feature_weights, transition_weights, token_features(sent))
                for sent in sents], f"trial {trial}"

    def test_output_always_transition_valid(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 7)
            toks = tokenize(" ".join(f"t{i}" for i in range(n)))
            model = TaggerModel(*random_weights(rng, toks))
            prev = "O"
            for tag in viterbi_decode(model, toks):
                assert valid_transition(prev, tag)
                prev = tag


class TestTaggerModel:
    def test_rejects_weights_it_cannot_use(self):
        with pytest.raises(ValueError, match="unknown tag 'B-XYZ'"):
            TaggerModel({("w=musa", "B-XYZ"): 1.0})
        with pytest.raises(ValueError, match="unknown tag '<end>'"):
            TaggerModel(transition_weights={("<end>", "O"): 1.0})
        with pytest.raises(ValueError, match="forbidden move <start> -> I-PER"):
            TaggerModel(transition_weights={(START, "I-PER"): 1.0})
        with pytest.raises(ValueError, match="forbidden move B-ORG -> I-PER"):
            TaggerModel(transition_weights={("B-ORG", "I-PER"): 1.0})

    def test_weights_round_trip_through_the_constructor(self):
        rng = random.Random(8)
        weights = random_weights(rng, tokenize("Colonel Musa arrived"))
        model = TaggerModel(*weights)
        assert (model.feature_weights, model.transition_weights) == weights
        assert model.param_count() == len(weights[0]) + len(weights[1])
        # a weight of 0 is no weight
        zero = TaggerModel({("w=musa", "O"): 0.0, ("w=musa", "B-PER"): 1.0},
                           {(START, "O"): -0.0})
        assert zero.feature_weights == {("w=musa", "B-PER"): 1.0}
        assert zero.transition_weights == {}
        assert zero.param_count() == 1


class TestTraining:
    def sentence_pair(self, text, *surface_type_pairs):
        toks = tokenize(text)
        ents = []
        for i, (surface, etype) in enumerate(surface_type_pairs, start=1):
            start = text.index(surface)
            ents.append(EntitySpan(f"T{i}", etype, start, start + len(surface), surface))
        return toks, spans_to_iob(toks, ents)

    def test_memorizes_single_sentence(self):
        pair = self.sentence_pair(
            "Major General Jack Nwaogbo spoke",
            ("Major General", EntityType.RANK),
            ("Jack Nwaogbo", EntityType.PERSON),
        )
        model = train_tagger([pair] * 4, epochs=5, seed=1)
        assert viterbi_decode(model, pair[0]) == pair[1]

    def test_two_disjoint_sentences(self):
        a = self.sentence_pair(
            "Colonel Musa arrived", ("Colonel", EntityType.RANK),
            ("Musa", EntityType.PERSON),
        )
        b = self.sentence_pair(
            "the Nigerian Army meeting", ("Nigerian Army", EntityType.ORGANIZATION),
        )
        model = train_tagger([a, b], epochs=8, seed=3)
        assert viterbi_decode(model, a[0]) == a[1]
        assert viterbi_decode(model, b[0]) == b[1]

    def test_deterministic_given_seed(self):
        pairs = [
            self.sentence_pair("Colonel Musa arrived",
                               ("Colonel", EntityType.RANK),
                               ("Musa", EntityType.PERSON)),
            self.sentence_pair("the Nigerian Army meeting",
                               ("Nigerian Army", EntityType.ORGANIZATION)),
        ]
        m1 = train_tagger(pairs, epochs=4, seed=11)
        m2 = train_tagger(pairs, epochs=4, seed=11)
        assert m1.feature_weights == m2.feature_weights
        assert m1.transition_weights == m2.transition_weights

    def test_fixture_model_file_unchanged(self, tmp_path):
        # sha256 of this model file as the per-token decoder trained it
        gaz = Gazetteers.from_files(
            GAZETTEERS / "organizations.txt", GAZETTEERS / "ranks.txt"
        )
        model = train_tagger(fixture_training_corpus(), epochs=2, seed=13,
                             gazetteers=gaz)
        save_tagger(model, tmp_path / "t.model")
        digest = hashlib.sha256((tmp_path / "t.model").read_bytes()).hexdigest()
        assert digest == (
            "dbe4b618a3b548f9035f86d4e1a8fbe548a0efb5a772f9288112b3cdab5d721b"
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_tagger([], epochs=1, seed=0)

    def test_forbidden_gold_move_rejected(self):
        toks = tokenize("Colonel Musa arrived")
        with pytest.raises(ValueError, match="forbidden move O -> I-PER"):
            train_tagger([(toks, ["O", "I-PER", "O"])], epochs=1)

    def test_training_corpus_matches_reference_loop(self):
        docs = [doc for doc, _ in load_corpus(CORPUS_DIR)]
        assert training_corpus(docs) == fixture_training_corpus()
        assert training_corpus([]) == []


@st.composite
def training_corpora(draw):
    """One to five sentences of the feature test's words, with random
    gold tags that make only allowed moves."""
    corpus = []
    for _ in range(draw(st.integers(1, 5))):
        tokens = tokenize(" ".join(draw(st.lists(st.sampled_from(_WORDS),
                                                 min_size=1, max_size=8))))
        tags, prev = [], "O"
        for t in draw(st.lists(st.integers(0, len(TAGSET) - 1),
                               min_size=len(tokens), max_size=len(tokens))):
            tag = TAGSET[t]
            if not valid_transition(prev, tag):
                tag = f"B-{tag[2:]}"
            tags.append(tag)
            prev = tag
        corpus.append((tokens, tags))
    return corpus


@given(training_corpora(),
       st.builds(Gazetteers, st.frozensets(_PHRASES, max_size=4),
                 st.frozensets(_PHRASES, max_size=4)),
       st.integers(1, 4), st.integers())
@settings(max_examples=150, deadline=None)
def test_trainer_matches_reference_trainer(corpus, gazetteers, epochs, seed):
    model = train_tagger(corpus, epochs=epochs, seed=seed, gazetteers=gazetteers)
    expected = reference_train(corpus, epochs, seed, gazetteers)
    assert saved_bytes(model) == saved_bytes(expected)


def random_tag_corpus(rng, size):
    """``size`` sentences of the feature test's words, with random gold tags
    that make only allowed moves."""
    corpus = []
    for _ in range(size):
        tokens = tokenize(" ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 8))))
        tags, prev = [], "O"
        for _ in tokens:
            tag = rng.choice(TAGSET)
            if not valid_transition(prev, tag):
                tag = f"B-{tag[2:]}"
            tags.append(tag)
            prev = tag
        corpus.append((tokens, tags))
    return corpus


class TestConvergedEpochs:
    """On corpora long enough for training to converge, the trainer writes
    the reference trainer's bytes and logs its per-epoch exact counts.
    It decodes a sentence only when an update came after the sentence's
    last exact decode, so nothing after the first epoch that decoded
    every sentence exactly."""

    @staticmethod
    def reference_run(monkeypatch, corpus, epochs, seed, gazetteers):
        """The reference trainer's model, how many sentences it decoded
        exactly in each epoch, and how many of its decodes came after an
        update that followed the sentence's last exact decode, read off
        its predictions in its own order."""
        preds, decode = [], reference_decode

        def recording(*args):
            preds.append(decode(*args))
            return preds[-1]

        with monkeypatch.context() as patch:
            patch.setitem(globals(), "reference_decode", recording)
            model = reference_train(corpus, epochs, seed, gazetteers)
        rng, order, counts = random.Random(seed), list(range(len(corpus))), []
        needed = updates = 0
        exact_at = {}  # per sentence, the updates made when it last decoded exactly
        for epoch in range(epochs):
            rng.shuffle(order)
            epoch_preds = preds[epoch * len(corpus):(epoch + 1) * len(corpus)]
            counts.append(sum(pred == corpus[si][1] for si, pred in zip(order, epoch_preds)))
            for si, pred in zip(order, epoch_preds):
                if exact_at.get(si) == updates:
                    assert pred == corpus[si][1]
                    continue
                needed += 1
                if pred == corpus[si][1]:
                    exact_at[si] = updates
                else:
                    updates += 1
        return model, counts, needed

    def test_long_corpora_match_the_reference_trainer(self, monkeypatch, caplog):
        fixture = fixture_training_corpus()
        rng = random.Random(2606)
        cases = [(fixture * -(-60 // len(fixture)), epochs, seed, None)
                 for epochs, seed in ((1, 13), (4, 5))]
        cases.append((fixture * -(-90 // len(fixture)), 3, 13, Gazetteers.from_files(
            GAZETTEERS / "organizations.txt", GAZETTEERS / "ranks.txt")))
        cases += [(random_tag_corpus(rng, size), epochs, rng.randrange(2 ** 32), None)
                  for size, epochs in ((30, 4), (75, 2), (120, 3))]
        decodes = 0  # the sentences train_tagger decodes
        decode = tagger._viterbi

        def recording(moves, emit):
            nonlocal decodes
            decodes += 1
            return decode(moves, emit)

        monkeypatch.setattr(tagger, "_viterbi", recording)
        caplog.set_level(logging.INFO, logger="unitgraph.tagger")
        skipped = 0  # the epochs after the first that decoded every sentence exactly
        for corpus, epochs, seed, gazetteers in cases:
            assert len(corpus) >= 30
            caplog.clear()
            decodes = 0
            model = train_tagger(corpus, epochs=epochs, seed=seed, gazetteers=gazetteers)
            expected, counts, needed = self.reference_run(monkeypatch, corpus, epochs,
                                                          seed, gazetteers)
            assert saved_bytes(model) == saved_bytes(expected)
            logged = [re.fullmatch(r"tagger epoch (\d+): (\d+)/(\d+) sentences decoded exactly",
                                   record.getMessage()).groups() for record in caplog.records]
            assert logged == [(str(epoch), str(count), str(len(corpus)))
                              for epoch, count in enumerate(counts, start=1)]
            assert decodes == needed
            converged = next((epoch for epoch, count in enumerate(counts, start=1)
                              if count == len(corpus)), epochs)
            assert decodes <= converged * len(corpus)
            skipped += epochs - converged
        assert skipped > 0


class TestPredictEntities:
    def test_model_mode_empty_text(self):
        assert predict_entities(TaggerModel(), Document("d", "")) == []

    def test_document_batch_matches_one_sentence_at_a_time(self):
        # tied integer weights make tie-breaking decide many tags; sentences
        # of 1 and 40 tokens in one document make the batch pad a lot
        rng = random.Random(5122)
        gaz = Gazetteers(organizations=frozenset({"nigerian army", "army"}),
                         ranks=frozenset({"major general", "colonel"}))
        vocab = ["Nigerian", "Army", "Major", "General", "Colonel", "Musa",
                 "said", "the"]
        for trial in range(60):
            lengths = [rng.choice([1, 40, rng.randint(1, 40)])
                       for _ in range(rng.randint(2, 8))]
            # one paragraph per sentence, with no sentence-ending punctuation
            text = "\n\n".join(" ".join(rng.choice(vocab) for _ in range(n))
                               for n in lengths)
            sents = sentences(tokenize(text))
            assert [len(sent) for sent in sents] == lengths
            feature_weights, transition_weights = {}, {}
            for sent in sents:
                for i in range(len(sent)):
                    for f in featurize_token(sent, i, gaz):
                        for tag in TAGSET:
                            if rng.random() < 0.5:
                                feature_weights[(f, tag)] = float(rng.randint(-2, 2))
            for move in MOVES:
                if rng.random() < 0.5:
                    w = float(rng.randint(-2, 2))
                    if move in ALLOWED:
                        transition_weights[move] = w
            model = TaggerModel(feature_weights, transition_weights, gaz)
            expected = []
            for sent in sents:
                expected.extend(iob_to_spans(sent, viterbi_decode(model, sent),
                                             text=text, first_id=len(expected) + 1))
            assert predict_entities(model, Document("d", text)) == expected, \
                f"trial {trial}"

    def test_sentences_out_receives_the_decoded_sentences(self):
        text = "Major General Jack Nwaogbo spoke. The Army said so."
        model = TaggerModel(feature_weights={("w=jack", "B-PER"): 1.0})
        sents: list = []
        spans = predict_entities(model, Document("d", text), sents)
        assert sents == sentences(tokenize(text))
        assert spans == predict_entities(model, Document("d", text))

    def test_model_mode_finds_trained_name(self):
        text = "Major General Jack Nwaogbo spoke"
        pair = TestTraining().sentence_pair(
            text,
            ("Major General", EntityType.RANK),
            ("Jack Nwaogbo", EntityType.PERSON),
        )
        model = train_tagger([pair] * 4, epochs=5, seed=1)
        spans = predict_entities(model, Document("d", text))
        assert {(e.surface, e.etype) for e in spans} == {
            ("Major General", EntityType.RANK),
            ("Jack Nwaogbo", EntityType.PERSON),
        }
        # decoded surfaces slice the document text exactly
        for e in spans:
            assert text[e.start:e.end] == e.surface


class TestPersistence:
    def test_round_trip_and_reproducibility(self, tmp_path):
        pairs = [
            TestTraining().sentence_pair(
                "Colonel Musa arrived",
                ("Colonel", EntityType.RANK), ("Musa", EntityType.PERSON),
            )
        ]
        gaz = Gazetteers(organizations=frozenset({"nigerian army"}),
                         ranks=frozenset({"colonel"}))
        m1 = train_tagger(pairs, epochs=3, seed=5, gazetteers=gaz)
        save_tagger(m1, tmp_path / "a.model")
        m2 = train_tagger(pairs, epochs=3, seed=5, gazetteers=gaz)
        save_tagger(m2, tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()

        loaded = load_tagger(tmp_path / "a.model")
        assert loaded.feature_weights == m1.feature_weights
        assert loaded.transition_weights == m1.transition_weights
        assert loaded.gazetteers == m1.gazetteers
        toks = pairs[0][0]
        assert viterbi_decode(loaded, toks) == viterbi_decode(m1, toks)

    def test_reject_foreign_file(self, tmp_path):
        (tmp_path / "x.model").write_text("not a model\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a tagger model"):
            load_tagger(tmp_path / "x.model")

    def test_meta_keeps_its_types(self, tmp_path):
        model = TaggerModel(meta={"config_hash": "012345678901", "seed": 13,
                                  "epochs": 2, "sentences": 1, "split": 0.6})
        save_tagger(model, tmp_path / "a.model")
        loaded = load_tagger(tmp_path / "a.model")
        assert loaded.meta == model.meta
        assert type(loaded.meta["split"]) is float
        save_tagger(loaded, tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()

    def test_held_out_documents_round_trip(self, tmp_path):
        # a record ends at a line break alone: spaces, tabs, non-ASCII text
        # and the breaks only str.splitlines() knows stay in the id
        ids = ["zz last", "a\tb", "Ẹ̀kọ́ 1", "line\u2028sep", "\u00e9t\u00e9 2024"]
        model = TaggerModel(meta={"seed": 3, "split": 0.6}, held_out=ids)
        save_tagger(model, tmp_path / "a.model")
        text = (tmp_path / "a.model").read_text(encoding="utf-8")
        assert [line for line in text.split("\n") if line.startswith("held-out")] == [
            f"held-out\t{i}" for i in sorted(ids)]
        loaded = load_tagger(tmp_path / "a.model")
        assert loaded.held_out == tuple(sorted(ids))
        assert saved_bytes(loaded) == (tmp_path / "a.model").read_bytes()

    def test_held_out_records_follow_meta(self):
        model = TaggerModel({("cap", "B-PER"): 1.0}, meta={"seed": 3},
                            gazetteers=Gazetteers(frozenset({"army"})), held_out=["d2", "d1"])
        assert saved_bytes(model).decode("utf-8").split("\n")[1:5] == [
            "meta\tseed\t3", "held-out\td1", "held-out\td2", "gaz-org\tarmy"]

    @pytest.mark.parametrize("body, message, line", [
        ("unitgraph-tagger 2\n", "not a tagger model file", 1),
        ("unitgraph-tagger 1\nF\tw=musa\tB-PER\tabc\n",
         "weight is not a number: 'abc'", 2),
        ("unitgraph-tagger 1\nT\t<start>\tO\t1.0\nT\tO\tO\tinf\n",
         "weight is not finite: 'inf'", 3),
        ("unitgraph-tagger 1\nF\tw=musa\t1.0\n", "F record needs 3 fields", 2),
        ("unitgraph-tagger 1\nmeta\tseed\t13\nW\tw=musa\n",
         "unknown record 'W'", 3),
        ("unitgraph-tagger 1\nF\tw=musa\tB-PER\t1.0\nF\tw=musa\tB-XYZ\t1.0\n",
         "unknown tag 'B-XYZ'", 3),
        ("unitgraph-tagger 1\nT\t<start>\tO\t1.0\nT\tO\tI-PER\t1.0\n",
         "forbidden move O -> I-PER", 3),
        # a repeated key is rejected on the line of the repeat, and a key
        # out of save_tagger's order on the first line that breaks it
        ("unitgraph-tagger 1\nF\tcap\tB-ORG\t1.0\nF\tcap\tB-ORG\t99.0\n",
         "record 'F cap B-ORG' is repeated or out of order", 3),
        ("unitgraph-tagger 1\nT\tO\tO\t1.0\nT\t<start>\tO\t1.0\nT\tO\tO\t2.0\n",
         "record 'T <start> O' is repeated or out of order", 3),
        ("unitgraph-tagger 1\nmeta\tseed\t13\nmeta\tepochs\t2\nmeta\tseed\t14\n",
         "record 'meta epochs' is repeated or out of order", 3),
        ("unitgraph-tagger 1\ngaz-org\tnigerian army\ngaz-org\tnigerian army\n",
         "record 'gaz-org nigerian army' is repeated or out of order", 3),
        ("unitgraph-tagger 1\nT\t<start>\tO\t1.0\nF\tcap\tB-ORG\t1.0\n",
         "record 'F cap B-ORG' is repeated or out of order", 3),
        ("unitgraph-tagger 1\nheld-out\tdoc 1\nheld-out\tdoc 2\nheld-out\tdoc 1\n",
         "record 'held-out doc 1' is repeated or out of order", 4),
        ("unitgraph-tagger 1\nheld-out\tdoc 2\nheld-out\tdoc 1\n",
         "record 'held-out doc 1' is repeated or out of order", 3),
        ("unitgraph-tagger 1\nheld-out\tdoc 1\nheld-out\tdoc 1\n",
         "record 'held-out doc 1' is repeated or out of order", 3),
        ("unitgraph-tagger 1\ngaz-org\tarmy\nheld-out\tdoc 1\n",
         "record 'held-out doc 1' is repeated or out of order", 3),
        ("unitgraph-tagger 1\nheld-out\tdoc 1\nmeta\tseed\t13\n",
         "record 'meta seed' is repeated or out of order", 3),
        ("unitgraph-tagger 1\nmeta\tsplit\tmost\n", "meta split is not a number: 'most'", 2),
        ("unitgraph-tagger 1\nmeta\tsplit\tnan\n", "meta split is not in (0, 1]: 'nan'", 2),
        ("unitgraph-tagger 1\nmeta\tsplit\t0\n", "meta split is not in (0, 1]: '0'", 2),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, body, message, line):
        (tmp_path / "x.model").write_text(body, encoding="utf-8")
        with pytest.raises(ModelFileError, match=re.escape(message)) as err:
            load_tagger(tmp_path / "x.model")
        assert isinstance(err.value, DataError) and isinstance(err.value, ValueError)
        assert str(err.value).startswith(f"{tmp_path / 'x.model'}: line {line}: ")

    def test_binary_file_is_a_model_file_error(self, tmp_path):
        (tmp_path / "x.model").write_bytes(b"\x80\x81 not text")
        with pytest.raises(ModelFileError, match="not UTF-8 text"):
            load_tagger(tmp_path / "x.model")

    def test_reject_non_integer_seed(self, tmp_path):
        (tmp_path / "x.model").write_text(
            "unitgraph-tagger 1\nmeta\tseed\tthirteen\n", encoding="utf-8")
        with pytest.raises(ValueError, match="seed is not an integer"):
            load_tagger(tmp_path / "x.model")


_RECORD_FIELDS = st.sampled_from([
    "F", "T", "meta", "held-out", "gaz-org", "gaz-rank", "seed", "epochs", "split",
    "config_hash",
    "w=musa", START, "O", "B-PER", "I-PER", "I-ORG", "B-XYZ", "1.0", "-2.5", "0",
    "-0.0", "1e308", "nan", "inf", "abc", "", " "]) | st.text(max_size=4)


@given(st.lists(st.lists(_RECORD_FIELDS, max_size=5).map("\t".join), max_size=8))
@settings(max_examples=300, deadline=None)
def test_load_tagger_returns_a_model_or_a_model_file_error(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.model"
        path.write_text("\n".join([MODEL_MAGIC, *records]) + "\n", encoding="utf-8")
        try:
            model = load_tagger(path)
        except ModelFileError:
            return
    # what loads saves, and what it saves loads again to the same model
    saved = saved_bytes(model)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.model"
        path.write_bytes(saved)
        assert saved_bytes(load_tagger(path)) == saved
