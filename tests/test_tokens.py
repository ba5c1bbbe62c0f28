import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph.corpus import EntitySpan, EntityType
from unitgraph.errors import DataError
from unitgraph.tokens import (
    ABBREVIATIONS,
    _TOKEN_RE,
    LABEL_TO_ETYPE,
    TAGSET,
    Token,
    _guarded,
    iob_to_spans,
    sentences,
    spans_to_iob,
    tokenize,
    valid_transition,
)

from conftest import EXAMPLE_SENTENCE


def spans_of(text, *surface_type_pairs):
    """Entity spans located by first occurrence of each surface string."""
    out = []
    cursor = {}
    for i, (surface, etype) in enumerate(surface_type_pairs, start=1):
        start = text.index(surface, cursor.get(surface, 0))
        cursor[surface] = start + 1
        out.append(EntitySpan(f"T{i}", etype, start, start + len(surface), surface))
    return out


class TestTokenize:
    def test_abbreviations_do_not_split_sentence(self):
        toks = tokenize("Maj. Gen. Jack Nwaogbo said.")
        assert [t.text for t in toks] == ["Maj.", "Gen.", "Jack", "Nwaogbo", "said", "."]
        assert {t.sent_index for t in toks} == {0}

    def test_empty_text(self):
        assert tokenize("") == []

    def test_hyphenated_word_stays_whole(self):
        assert [t.text for t in tokenize("re-assured")] == ["re-assured"]

    def test_sentence_split_on_period_whitespace_capital(self):
        toks = tokenize("The unit moved. Then it stopped.")
        assert len(sentences(toks)) == 2

    def test_no_split_before_lowercase(self):
        toks = tokenize("The unit moved. and waited.")
        assert len(sentences(toks)) == 1

    def test_blank_line_is_a_boundary(self):
        toks = tokenize("A headline without punctuation\n\nThe story starts here.")
        assert len(sentences(toks)) == 2

    def test_initials_guarded(self):
        toks = tokenize("Col. M. T. Ibrahim spoke. Nobody answered.")
        sents = sentences(toks)
        assert len(sents) == 2
        assert [t.text for t in sents[0]][:4] == ["Col.", "M.", "T.", "Ibrahim"]

    def test_offsets_slice_text(self):
        text = "Maj. Gen. Jack Nwaogbo re-assured everyone."
        for tok in tokenize(text):
            assert text[tok.start:tok.end] == tok.text

    def test_gaps_between_tokens_are_whitespace(self, corpus_entries):
        for doc, _ in corpus_entries:
            for sent in sentences(tokenize(doc.text)):
                for prev, cur in zip(sent, sent[1:]):
                    assert doc.text[prev.end:cur.start].strip() == ""


def reference_sentence_spans(text):
    """The per-character sentence scan the tokenizer used before it matched
    punctuation runs with a regex, kept as the reference for the boundaries."""
    paragraphs = []
    pos = 0
    for m in re.finditer(r"\n[ \t]*\n", text):
        paragraphs.append((pos, m.start()))
        pos = m.end()
    paragraphs.append((pos, len(text)))

    spans = []
    for pstart, pend in paragraphs:
        sent_start = pstart
        i = pstart
        while i < pend:
            ch = text[i]
            if ch in ".!?":
                j = i + 1
                while j < pend and text[j] in ".!?":
                    j += 1
                k = j
                while k < pend and text[k].isspace():
                    k += 1
                boundary = k > j and k < pend and text[k].isupper()
                if boundary and ch == "." and j == i + 1 and _guarded(text, i):
                    boundary = False
                if boundary:
                    spans.append((sent_start, j))
                    sent_start = k
                i = j
            else:
                i += 1
        if sent_start < pend:
            spans.append((sent_start, pend))
    return [(s, e) for s, e in spans if text[s:e].strip()]


def reference_tokenize(text):
    """``tokenize`` over the reference sentence scan, as plain tuples."""
    return [(m.group(), m.start(), m.end(), sent_index, tok_index)
            for sent_index, (start, end) in enumerate(reference_sentence_spans(text))
            for tok_index, m in enumerate(_TOKEN_RE.finditer(text, start, end))]


# sentence-ending punctuation, every kind of gap (blank lines, unicode
# spaces), ASCII, non-ASCII and title-case capitals, abbreviations and
# initials: the pieces whose order decides where a sentence ends
_PIECES = st.sampled_from([
    ".", "!", "?", "...", " ", "  ", "\t", "\n", "\n\n", "\n \t\n", "\u00a0",
    "\u2003", "\x1c", "A", "Z", "É", "Ω", "Ж", "ǅ", "word", "x", "é", "3", "'",
    "-", *ABBREVIATIONS, "M.", "T.", "j.", "Gen", "mr.",
])


@given(st.lists(_PIECES, max_size=40).map("".join))
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_per_character_scan(text):
    tokens = tokenize(text)
    assert tokens == reference_tokenize(text)
    assert all(type(tok) is Token for tok in tokens)


def test_token_is_an_immutable_named_tuple():
    tok = tokenize("Maj. Gen. Jack")[1]
    assert tok == Token("Gen.", 5, 9, 0, 1) == ("Gen.", 5, 9, 0, 1)
    assert tok._fields == ("text", "start", "end", "sent_index", "tok_index")
    with pytest.raises(AttributeError):
        tok.text = "Col."


class TestSpansToIob:
    def gold_entities(self):
        return spans_of(
            EXAMPLE_SENTENCE,
            ("General Officer Commanding", EntityType.TITLE_ROLE),
            ("3 Armoured Division of the Nigerian Army", EntityType.ORGANIZATION),
            ("Major General", EntityType.RANK),
            ("Jack Nwaogbo", EntityType.PERSON),
        )

    def test_example_sentence_tags(self):
        toks = tokenize(EXAMPLE_SENTENCE)
        tags = spans_to_iob(toks, self.gold_entities())
        assert tags == [
            "B-TTL", "I-TTL", "I-TTL",
            "B-ORG", "I-ORG", "I-ORG", "I-ORG", "I-ORG", "I-ORG", "I-ORG",
            "O",
            "B-RNK", "I-RNK",
            "B-PER", "I-PER",
            "O", "O", "O", "O", "O", "O", "O", "O", "O", "O", "O", "O", "O",
            "O", "O",
        ]

    def test_no_entities_all_o(self):
        toks = tokenize(EXAMPLE_SENTENCE)
        assert spans_to_iob(toks, []) == ["O"] * len(toks)

    def test_mid_token_boundary_expands_with_warning(self, caplog):
        caplog.set_level(logging.WARNING)
        text = "General Nwaogbo spoke."
        toks = tokenize(text)
        whole = EntitySpan("T1", EntityType.PERSON, 8, 15, "Nwaogbo")
        clipped = EntitySpan("T1", EntityType.PERSON, 10, 13, "aog")
        assert spans_to_iob(toks, [clipped]) == spans_to_iob(toks, [whole])
        assert any("expanded" in rec.message for rec in caplog.records)

    def test_entity_outside_tokens_is_error(self):
        toks = tokenize("General Nwaogbo spoke.")
        ghost = EntitySpan("T9", EntityType.PERSON, 100, 110, "nobody")
        with pytest.raises(DataError, match="T9"):
            spans_to_iob(toks, [ghost])

    def test_overlapping_entities_rejected(self):
        text = "Major General Nwaogbo"
        toks = tokenize(text)
        a = EntitySpan("T1", EntityType.RANK, 0, 13, "Major General")
        b = EntitySpan("T2", EntityType.PERSON, 6, 21, "General Nwaogbo")
        with pytest.raises(DataError, match="overlap"):
            spans_to_iob(toks, [a, b])


class TestIobToSpans:
    def test_example_sentence_round_trip(self):
        toks = tokenize(EXAMPLE_SENTENCE)
        gold = TestSpansToIob().gold_entities()
        tags = spans_to_iob(toks, gold)
        decoded = iob_to_spans(toks, tags, text=EXAMPLE_SENTENCE)
        assert [(e.start, e.end, e.etype, e.surface) for e in decoded] == [
            (e.start, e.end, e.etype, e.surface) for e in gold
        ]

    def test_all_o(self):
        toks = tokenize("Nothing here.")
        assert iob_to_spans(toks, ["O"] * len(toks), text="Nothing here.") == []

    def test_stray_inside_tag_repaired_to_begin(self):
        toks = tokenize("meeting Nigerian Army")
        tags = ["O", "I-ORG", "I-ORG"]
        spans = iob_to_spans(toks, tags, text="meeting Nigerian Army")
        assert len(spans) == 1
        assert spans[0].etype is EntityType.ORGANIZATION
        assert spans[0].surface == "Nigerian Army"

    def test_length_mismatch(self):
        toks = tokenize("a b")
        with pytest.raises(DataError, match="tokens vs"):
            iob_to_spans(toks, ["O"], text="a b")

    def test_label_change_without_b_starts_new_span(self):
        toks = tokenize("General Nwaogbo")
        tags = ["I-RNK", "I-PER"]
        spans = iob_to_spans(toks, tags, text="General Nwaogbo")
        assert [e.etype for e in spans] == [EntityType.RANK, EntityType.PERSON]


class TestValidTransition:
    def test_inside_cannot_follow_other_label(self):
        assert not valid_transition("I-PER", "I-ORG")

    def test_inside_follows_begin(self):
        assert valid_transition("B-ORG", "I-ORG")

    def test_inside_cannot_open(self):
        assert not valid_transition("O", "I-RNK")

    def test_begin_and_o_always_allowed(self):
        for prev in TAGSET:
            assert valid_transition(prev, "O")
            assert valid_transition(prev, "B-PER")

    def test_every_pair_of_tags(self):
        # I-X follows B-X or I-X only; anything else may follow anything
        for prev in TAGSET:
            for nxt in TAGSET:
                allowed = nxt[0] != "I" or prev in ("B" + nxt[1:], nxt)
                assert valid_transition(prev, nxt) == allowed, (prev, nxt)

    def test_tagset_order(self):
        # the decoder breaks ties on the lowest index, so models and
        # outputs depend on this order
        assert TAGSET == ("O", "B-PER", "I-PER", "B-ORG", "I-ORG",
                          "B-RNK", "I-RNK", "B-TTL", "I-TTL")


def random_layout(rng, n_tokens):
    """Synthetic sentence text, tokens and non-overlapping entities."""
    words = [f"w{i}x" for i in range(n_tokens)]
    text = " ".join(words)
    toks = tokenize(text)
    assert len(toks) == n_tokens
    entities = []
    i = 0
    tid = 1
    while i < n_tokens:
        if rng.random() < 0.4:
            width = min(rng.randint(1, 3), n_tokens - i)
            start = toks[i].start
            end = toks[i + width - 1].end
            etype = rng.choice(list(EntityType))
            entities.append(
                EntitySpan(f"T{tid}", etype, start, end, text[start:end])
            )
            tid += 1
            i += width
        else:
            i += 1
    return text, toks, entities


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16))
@settings(max_examples=120, deadline=None)
def test_round_trip_property(seed, n_tokens):
    rng = random.Random(seed)
    text, toks, entities = random_layout(rng, n_tokens)
    tags = spans_to_iob(toks, entities)
    decoded = iob_to_spans(toks, tags, text=text)
    assert [(e.start, e.end, e.etype, e.surface) for e in decoded] == [
        (e.start, e.end, e.etype, e.surface) for e in entities
    ]


@given(st.lists(st.sampled_from(TAGSET), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_decode_then_encode_is_transition_valid(tags):
    text = " ".join(f"w{i}" for i in range(len(tags)))
    toks = tokenize(text)
    spans = iob_to_spans(toks, tags, text=text)
    repaired = spans_to_iob(toks, spans)
    prev = "O"
    for tag in repaired:
        assert valid_transition(prev, tag)
        prev = tag


def reference_iob_to_spans(tokens, tags, text, first_id=1):
    """The token-by-token span decoder, kept as the reference for the
    decoder: a run continues on an ``I-X`` of its label in the sentence
    of the token before it, and ends at anything else."""
    spans, run, run_label = [], [], None

    def close():
        if not run:
            return
        start, end = tokens[run[0]].start, tokens[run[-1]].end
        spans.append(EntitySpan(f"T{first_id + len(spans)}", LABEL_TO_ETYPE[run_label],
                                start, end, text[start:end]))

    for i, (tok, tag) in enumerate(zip(tokens, tags)):
        new_sentence = i > 0 and tokens[i - 1].sent_index != tok.sent_index
        if tag == "O":
            close()
            run, run_label = [], None
            continue
        prefix, _, label = tag.partition("-")
        if not (prefix == "I" and run and run_label == label and not new_sentence):
            close()
            run, run_label = [], label
        run.append(i)
    close()
    return spans


@given(st.lists(st.tuples(st.sampled_from(TAGSET), st.booleans(), st.integers(1, 3)),
                max_size=30),
       st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_iob_to_spans_matches_token_by_token_reference(cells, first_id):
    # each cell is a token's tag, whether a new sentence starts at it and
    # the gap before it, so runs meet sentence breaks and uneven spacing
    tokens, text, sent = [], "", 0
    for i, (_, new_sentence, gap) in enumerate(cells):
        sent += bool(i and new_sentence)
        text += " " * gap
        word = f"w{i}"
        tokens.append(Token(word, len(text), len(text) + len(word), sent, i))
        text += word
    tags = [tag for tag, _, _ in cells]
    assert (iob_to_spans(tokens, tags, text, first_id)
            == reference_iob_to_spans(tokens, tags, text, first_id))
