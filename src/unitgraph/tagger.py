"""Discrete-feature sequence tagger with constrained Viterbi decoding.

An averaged perceptron over hand-built token features stands in for a
neural encoder; joint decoding enforces the IOB transition rules (an
``I-X`` can only follow ``B-X``/``I-X``), so the output is always a valid
tag sequence.  Weights are rows of Python floats, in inference and in
training, so the tagger imports no numpy.
"""

from __future__ import annotations

import logging
import random
import string
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Document, EntitySpan, EntityType
from .errors import ModelFileError, read_model_lines, read_utf8, read_weight
from .tokens import TAGSET, Token, iob_to_spans, sentences, spans_to_iob, tokenize, valid_transition

if TYPE_CHECKING:
    from .relnet import Rows

log = logging.getLogger(__name__)

NEG_INF = float("-inf")
START = "<start>"  # the previous tag of a first token; valid_transition treats it as O

MODEL_MAGIC = "unitgraph-tagger 1"
# meta keys written as numbers, with their type; every other key loads as a string
_NUMBER_META = {"seed": int, "epochs": int, "sentences": int, "split": float}
# the record kinds of a model file, in the order save_tagger writes them
_RECORDS = ("meta", "held-out", "gaz-org", "gaz-rank", "F", "T")


@dataclass(frozen=True)
class Gazetteers:
    """Case-insensitive phrase lists that fire lexicon features."""

    organizations: frozenset[str] = frozenset()
    ranks: frozenset[str] = frozenset()

    @classmethod
    def from_files(cls, org_path=None, rank_path=None) -> "Gazetteers":
        def read(path):
            if path is None:
                return frozenset()
            lines = read_utf8(path).splitlines()
            # a phrase's words are joined by one space, as _lexicon_hits joins tokens
            return frozenset(" ".join(line.lower().split()) for line in lines if line.strip())

        return cls(read(org_path), read(rank_path))

    @cached_property
    def max_words(self) -> int:
        """Words in the longest phrase (at least 1); computed once."""
        return max((p.count(" ") + 1 for p in self.organizations | self.ranks), default=1)

    @cached_property
    def first_words(self) -> frozenset[str]:
        """The first word of every phrase; computed once."""
        return frozenset(p.split(" ", 1)[0] for p in self.organizations | self.ranks)


def rank_lexicon(docs: list[Document]) -> frozenset[str]:
    """Compile a rank lexicon from the gold Rank spans of training docs."""
    return frozenset(ent.surface.lower() for doc in docs for ent in doc.entities
                     if ent.etype is EntityType.RANK)


_SHAPE = str.maketrans(string.ascii_uppercase + string.ascii_lowercase + string.digits,
                       "X" * 26 + "x" * 26 + "d" * 10)


def _shape(word: str) -> str:
    """The word with each upper-case letter as X, each lower-case letter as
    x and each digit as d.  An ASCII word takes one ``translate``; any
    other word goes character by character, since ``str.isupper`` and its
    kin also hold for letters and digits outside ASCII."""
    if word.isascii():
        return word.translate(_SHAPE)
    return "".join("X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit()
                   else ch for ch in word)


def _token_slots(sents: list[list[Token]], gazetteers: Gazetteers, get, none) -> list[tuple]:
    """One row of feature slots per token of the sentences, in order.

    The only definition of the features.  A token's slots hold its word's
    ``w=``, ``shape=``, ``pre3=`` and ``suf3=`` features and ``cap`` if
    the word starts upper-case, the ``prev=`` feature of the token before
    it (``prev=<s>`` first), the ``next=`` feature of the token after it
    (``next=</s>`` last) and, if the gazetteers hold a phrase, ``org-lex``
    and ``rank-lex`` where a phrase of that gazetteer covers the token.  A
    feature ``f`` is stored as ``get(f, none)``, got once per distinct
    word; a slot with no feature holds ``none``.
    """
    texts = [tok.text for tokens in sents for tok in tokens]
    # each distinct word's own five slots, then its prev= and next= features
    words: dict[str, tuple] = {}
    for word in dict.fromkeys(texts):
        low = word.lower()
        words[word] = ((get(f"w={low}", none), get(f"shape={_shape(word)}", none),
                        get(f"pre3={low[:3]}", none), get(f"suf3={low[-3:]}", none),
                        get("cap", none) if word[:1].isupper() else none),
                       get(f"prev={low}", none), get(f"next={low}", none))
    found = [words[text] for text in texts]
    # each word's prev= feature goes to the token after it, and its next=
    # feature to the token before it, but for the ends of the sentences
    prevs = [none, *(entry[1] for entry in found[:-1])]
    nexts = [*(entry[2] for entry in found[1:]), none]
    ends = list(accumulate(len(tokens) for tokens in sents if tokens))
    first, last = get("prev=<s>", none), get("next=</s>", none)
    for start, end in zip([0, *ends], ends):
        prevs[start] = first
        nexts[end - 1] = last
    if not gazetteers.first_words:
        return [own + (prev, nxt) for (own, _, _), prev, nxt in zip(found, prevs, nexts)]
    lexicon = []
    for hits, name in zip(_lexicon_hits([text.lower() for text in texts], ends, gazetteers),
                          ("org-lex", "rank-lex")):
        column = [none] * len(texts)
        feature = get(name, none)
        for i in hits:
            column[i] = feature
        lexicon.append(column)
    return [own + (prev, nxt, org, rank) for (own, _, _), prev, nxt, org, rank
            in zip(found, prevs, nexts, *lexicon)]


def featurize_sentences(sents: list[list[Token]], gazetteers: Gazetteers | None = None
                        ) -> list[list[list[str]]]:
    """Deterministic discrete features for every token of every sentence:
    the features in its ``_token_slots``, in order."""
    slots = iter(_token_slots(sents, gazetteers or Gazetteers(), lambda f, _: f, None))
    return [[[f for f in next(slots) if f is not None] for _ in tokens] for tokens in sents]


def _lexicon_hits(lower: list[str], ends: list[int], gazetteers: Gazetteers
                  ) -> tuple[set[int], set[int]]:
    """The positions of the lower-cased words covered by an organization
    phrase and by a rank phrase.  ``ends`` holds where each sentence ends,
    in order; no phrase runs past the end of its sentence."""
    hits: tuple[set[int], set[int]] = (set(), set())
    lexicons = gazetteers.organizations, gazetteers.ranks
    for lo, first in enumerate(lower):
        if first not in gazetteers.first_words:
            continue
        end = ends[bisect_right(ends, lo)]
        for hi in range(lo + 1, min(lo + gazetteers.max_words, end) + 1):
            phrase = " ".join(lower[lo:hi])
            for covered, lexicon in zip(hits, lexicons):
                if phrase in lexicon:
                    covered.update(range(lo, hi))
    return hits


def featurize_token(tokens: list[Token], i: int, gazetteers: Gazetteers | None = None) -> list[str]:
    """The features ``featurize_sentences`` gives token ``i`` of one sentence."""
    return featurize_sentences([tokens], gazetteers)[0][i]


_COLUMN = {tag: t for t, tag in enumerate(TAGSET)}
# the rows of TaggerModel.transitions: the previous tag, then START
_ROW = {**_COLUMN, START: len(TAGSET)}
# -inf where valid_transition forbids the move from the row's tag (START
# acts as O) to the column's tag, else 0.0; the decoder adds it to the
# transition weights, so a forbidden move is never taken
_BARRED = tuple(tuple(0.0 if valid_transition(prev, tag) else NEG_INF for tag in TAGSET)
                for prev in (*TAGSET, "O"))


def _column(tag: str) -> int:
    """The column of a tag's weights."""
    if tag not in _COLUMN:
        raise ValueError(f"unknown tag {tag!r}")
    return _COLUMN[tag]


def _move(prev: str, tag: str) -> tuple[int, int]:
    """The ``transitions`` cell of a move the decoder can take."""
    if prev not in _ROW:
        raise ValueError(f"unknown tag {prev!r}")
    row, col = _ROW[prev], _column(tag)
    if _BARRED[row][col] < 0:
        raise ValueError(f"forbidden move {prev} -> {tag}")
    return row, col


class TaggerModel:
    """A tagger's weights over the 9-tag IOB set, held as rows of floats.

    ``row`` maps each feature to its row of ``weights``, one float per tag
    of ``TAGSET``; a feature without a row has no weight.
    ``transitions[p][t]`` weighs the move from tag p to tag t; its last
    row moves from ``START``.  A cell that is not zero is a stored weight.
    Forbidden moves hold 0, and the decoder bars them.  ``held_out`` names
    the documents of its training corpus that it never saw.
    """

    def __init__(self, feature_weights: Mapping[tuple[str, str], float] | None = None,
                 transition_weights: Mapping[tuple[str, str], float] | None = None,
                 gazetteers: Gazetteers | None = None, meta: dict | None = None,
                 held_out: Iterable[str] = ()):
        """A model from ``(feature, tag)`` and ``(previous tag, tag)``
        weights.  A tag outside ``TAGSET`` or a forbidden move raises
        ``ValueError``."""
        feature_weights = feature_weights or {}
        self.row = {f: r for r, f in enumerate(dict.fromkeys(f for f, _ in feature_weights))}
        weights = [[0.0] * len(TAGSET) for _ in self.row]
        for (f, tag), w in feature_weights.items():
            weights[self.row[f]][_column(tag)] = w
        transitions = [[0.0] * len(TAGSET) for _ in _BARRED]
        for (prev, tag), w in (transition_weights or {}).items():
            row, col = _move(prev, tag)
            transitions[row][col] = w
        self.weights: Rows = tuple(map(tuple, weights))
        self.transitions: Rows = tuple(map(tuple, transitions))
        self.gazetteers = gazetteers or Gazetteers()
        self.meta = meta or {}
        self.held_out = tuple(held_out)

    @property
    def feature_weights(self) -> dict[tuple[str, str], float]:
        """The stored feature weights by ``(feature, tag)``."""
        return _stored(self.weights, list(self.row))

    @property
    def transition_weights(self) -> dict[tuple[str, str], float]:
        """The stored transition weights by ``(previous tag, tag)``."""
        return _stored(self.transitions, list(_ROW))

    def param_count(self) -> int:
        return sum(1 for rows in (self.weights, self.transitions)
                   for cells in rows for w in cells if w)


def _stored(rows, names: list[str]) -> dict[tuple[str, str], float]:
    """The non-zero cells of weight rows by the name of their row and
    their tag, row by row."""
    return {(name, tag): w for name, cells in zip(names, rows)
            for tag, w in zip(TAGSET, cells) if w}


_ZERO = (0.0,) * len(TAGSET)


def _emissions(weights, ids: list[tuple]) -> list:
    """Per token of ``ids`` (each a tuple of feature rows, ``None`` for no
    feature), each tag's weights added from +0.0 in slot order.

    A slot of ``None`` adds nothing, which is exact: adding a zero row
    leaves a running total as it is (the total starts at +0.0, and a sum
    that starts there is never -0.0).  A token's rows are chained through
    ``map``, so each tag's total is still added left to right.
    """
    out = []
    for slots in ids:
        total = _ZERO
        for r in slots:
            if r is not None:
                total = map(add, total, weights[r])
        out.append(list(total))
    return out


# per tag, the previous tags valid_transition allows, in index order
_ALLOWED = tuple(tuple(p for p in range(len(TAGSET)) if _BARRED[p][t] == 0.0)
                 for t in range(len(TAGSET)))


def _moves(transitions) -> tuple:
    """The decoder's form of transition rows: ``START``'s row, and per tag
    its allowed previous tags in index order, each with its move's score.

    Every score is a stored weight plus ``_BARRED``, so a stored -0.0
    scores +0.0.  A tag's first allowed previous tag comes apart from the
    rest: ``(p, score, ((p, score), ...))``.
    """
    scores = [list(map(add, row, barred)) for row, barred in zip(transitions, _BARRED)]
    return scores[-1], [(first, scores[first][t], tuple((p, scores[p][t]) for p in rest))
                        for t, (first, *rest) in enumerate(_ALLOWED)]


def _viterbi(moves: tuple, emit: list) -> list[int]:
    """The best tag sequence of one sentence as ``TAGSET`` indices, given
    ``_moves`` and the emissions of its tokens.

    Each step scans a tag's allowed previous tags in index order and keeps
    one only when its score is strictly greater, so the first maximum wins
    and ties go to the lowest index; the last tag is the first maximum
    too.  A forbidden move from ``START`` scores -inf at the first token.
    """
    if not emit:
        return []
    start, into = moves
    score = list(map(add, emit[0], start))
    backs = []
    for emitted in emit[1:]:
        back, now = [], []
        for (arg, w, rest), e in zip(into, emitted):
            best = score[arg] + w
            for p, move in rest:
                s = score[p] + move
                if s > best:
                    best = s
                    arg = p
            back.append(arg)
            now.append(best + e)
        backs.append(back)
        score = now
    tag = score.index(max(score))
    path = [tag]
    for back in reversed(backs):
        tag = back[tag]
        path.append(tag)
    path.reverse()
    return path


def _sentence_ids(model: TaggerModel, sents: list[list[Token]]) -> list[tuple]:
    """The feature rows of every token of the sentences, in order: its
    ``_token_slots`` with each feature resolved to its row, and ``None``
    for a feature the model lacks or a slot with no feature.  Features are
    resolved once per distinct word, not per token."""
    return _token_slots(sents, model.gazetteers, model.row.get, None)


def _tag_sentences(model: TaggerModel, sents: list[list[Token]]) -> list[list[str]]:
    """Decode the sentences one by one, on emissions computed for all of
    them at once."""
    emit = _emissions(model.weights, _sentence_ids(model, sents))
    moves = _moves(model.transitions)
    tags, at = [], 0
    for sent in sents:
        tags.append([TAGSET[t] for t in _viterbi(moves, emit[at:at + len(sent)])])
        at += len(sent)
    return tags


def viterbi_decode(model: TaggerModel, tokens: list[Token]) -> list[str]:
    """Argmax tag sequence under emission + transition scores.

    Ties resolve to the lowest tagset index (see ``_viterbi``), so a zero
    model decodes to all O.
    """
    return _tag_sentences(model, [tokens])[0]


def training_corpus(docs: list[Document]) -> list[tuple[list[Token], list[str]]]:
    """Every rule-based sentence of the documents with its gold IOB tags.

    A sentence's tags come from the entities overlapping its tokens.
    """
    corpus = []
    for doc in docs:
        for sent in sentences(tokenize(doc.text)):
            ents = [e for e in doc.entities
                    if e.start < sent[-1].end and e.end > sent[0].start]
            corpus.append((sent, spans_to_iob(sent, ents)))
    return corpus


def train_tagger(
    corpus: list[tuple[list[Token], list[str]]],
    epochs: int = 5,
    seed: int = 13,
    gazetteers: Gazetteers | None = None,
) -> TaggerModel:
    """Averaged-perceptron training against Viterbi predictions.

    Each feature gets a row as the sentences' slots are built, once,
    before the first epoch.  Each sentence is decoded in turn and, when
    its prediction is not its gold tags, the rows of the gold tags' cells
    gain 1.0 and those of the predicted ones lose it, in place.  Averaging
    is lazy: each cell also accumulates ``delta * now`` over its updates,
    so after ``now`` steps the sum of the cell's weight over the steps is
    ``weight * now - accumulated``.  All of these are integers below 2**53
    and so exact (the order of the additions does not matter), and the
    averaged weight is that sum divided by ``now``.  The averaged model
    keeps only its non-zero cells, as a loaded one does.  Deterministic
    for a fixed seed: the sentence order is reshuffled per epoch from a
    seeded RNG.  A gold move the decoder can never take raises
    ``ValueError``.

    A sentence that decoded exactly, with no update since, would decode
    exactly again with the same weights, so it is counted as exact and
    not decoded.  So once an epoch decodes every sentence exactly, every
    later epoch only counts its steps.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    for prev, tag in dict.fromkeys(move for _, tags in corpus
                                   for move in zip([START, *tags], tags)):
        _move(prev, tag)
    gold = [[_COLUMN[tag] for tag in tags] for _, tags in corpus]
    gazetteers = gazetteers or Gazetteers()
    row: dict[str, int] = {}  # each feature gets the next row as it is met
    slots = _token_slots([tokens for tokens, _ in corpus], gazetteers,
                         lambda f, _: row.setdefault(f, len(row)), None)
    ids = [slots[end - len(tags):end]
           for tags, end in zip(gold, accumulate(len(tags) for tags in gold))]
    # a feature's row is the shared zero row until an update touches it
    weights: list = [_ZERO] * len(row)
    transitions = [[0.0] * len(TAGSET) for _ in _BARRED]
    # per cell of a touched row, the sum of delta * now over the cell's updates
    weights_at: dict[int, list[float]] = {}
    transitions_at = [[0.0] * len(TAGSET) for _ in _BARRED]
    now = 0

    def update(si: int, pred: list[int]) -> None:
        """Gold cells gain 1.0 and predicted ones lose it.  Where a token's
        tag or a move is predicted right, both would land on one cell and
        cancel exactly, so those are skipped."""
        step = float(now)
        tags = gold[si]
        for cells, g, p in zip(ids[si], tags, pred):
            if g != p:
                for r in cells:
                    if r is not None:
                        if r not in weights_at:
                            weights[r], weights_at[r] = [0.0] * len(TAGSET), [0.0] * len(TAGSET)
                        cell, cell_at = weights[r], weights_at[r]
                        cell[g] += 1.0
                        cell[p] -= 1.0
                        cell_at[g] += step
                        cell_at[p] -= step
        first = _ROW[START]
        for (a, g), (b, p) in zip(zip([first, *tags], tags), zip([first, *pred], pred)):
            if (a, g) != (b, p):
                transitions[a][g] += 1.0
                transitions[b][p] -= 1.0
                transitions_at[a][g] += step
                transitions_at[b][p] -= step

    rng = random.Random(seed)
    order = list(range(len(corpus)))
    moves = _moves(transitions)
    updates = 0
    exact_at = [-1] * len(corpus)  # per sentence, the updates made when it last decoded exactly
    for epoch in range(epochs):
        rng.shuffle(order)
        exact = 0
        for si in order:
            now += 1
            if exact_at[si] != updates:
                pred = _viterbi(moves, _emissions(weights, ids[si]))
                if pred != gold[si]:
                    update(si, pred)
                    moves = _moves(transitions)
                    updates += 1
                    continue
                exact_at[si] = updates
            exact += 1
        log.info("tagger epoch %d: %d/%d sentences decoded exactly",
                 epoch + 1, exact, len(corpus))

    def averaged(rows) -> dict[tuple[str, str], float]:
        """The non-zero averaged cells of ``(name, weights, accumulated)``
        rows, by name and tag."""
        return {(name, tag): (w * now - a) / now for name, cells, cells_at in rows
                for tag, w, a in zip(TAGSET, cells, cells_at) if w * now != a}

    names = list(row)
    return TaggerModel(averaged((names[r], weights[r], cells_at)
                                for r, cells_at in weights_at.items()),
                       averaged(zip(_ROW, transitions, transitions_at)),
                       gazetteers, {"seed": seed, "epochs": epochs, "sentences": len(corpus)})


def predict_entities(model: TaggerModel, doc: Document,
                     sents_out: list | None = None) -> list[EntitySpan]:
    """Entity spans for a document, decoded by ``model``.

    The document's features and emissions are computed once, for all
    its sentences; each sentence's tags are those ``viterbi_decode``
    gives it.
    ``sents_out``, if given, receives those sentences
    (``sentences(tokenize(doc.text))``), so a caller can build the
    document's contexts without tokenizing it again.
    """
    tokens = tokenize(doc.text)
    sents = sentences(tokens)
    if sents_out is not None:
        sents_out.extend(sents)
    # no span crosses a sentence, so one pass over the document's tags
    # gives the spans, and ids, of one pass per sentence
    tags = [tag for sent_tags in _tag_sentences(model, sents) for tag in sent_tags]
    return iob_to_spans(tokens, tags, text=doc.text)


def save_tagger(model: TaggerModel, path) -> None:
    """Sorted key->weight text format; reruns with one seed diff clean."""
    lines = [MODEL_MAGIC]
    lines += [f"meta\t{key}\t{model.meta[key]}" for key in sorted(model.meta)]
    lines += [f"held-out\t{doc_id}" for doc_id in sorted(model.held_out)]
    lines += [f"gaz-org\t{phrase}" for phrase in sorted(model.gazetteers.organizations)]
    lines += [f"gaz-rank\t{phrase}" for phrase in sorted(model.gazetteers.ranks)]
    for kind, table in (("F", model.feature_weights), ("T", model.transition_weights)):
        lines += [f"{kind}\t{a}\t{b}\t{w!r}" for (a, b), w in sorted(table.items())]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_tagger(path) -> TaggerModel:
    """Read a file written by ``save_tagger``, record by record in its order.

    Each record must sort after the one before it: by its kind's place in
    ``_RECORDS``, then by its key (a meta key, a document id, a phrase, or
    an ``F`` or ``T`` pair).  A malformed file, a record that is repeated
    or out of order, or a weight on a tag outside ``TAGSET`` or on a
    forbidden move raises ``ModelFileError`` naming the file and line.
    """
    lines = read_model_lines(path, MODEL_MAGIC, "tagger model")
    tables: dict[str, dict] = {"F": {}, "T": {}}
    listed: dict[str, list[str]] = {"held-out": [], "gaz-org": [], "gaz-rank": []}
    meta: dict = {}
    last: tuple = ()  # the place of the record before
    for number, line in enumerate(lines[1:], start=2):
        kind, _, rest = line.partition("\t")
        try:
            if kind == "meta":
                name, _, value = rest.partition("\t")
                meta[name] = value
                if name in _NUMBER_META:
                    parse = _NUMBER_META[name]
                    try:
                        meta[name] = parse(value)
                    except ValueError:
                        wanted = "an integer" if parse is int else "a number"
                        raise ValueError(f"meta {name} is not {wanted}: {value!r}") from None
                    if name == "split" and not 0 < meta[name] <= 1:  # as --split
                        raise ValueError(f"meta split is not in (0, 1]: {value!r}")
                key = [name]
            elif kind in tables:
                fields = rest.split("\t")  # features and tags hold no whitespace
                if len(fields) != 3:
                    raise ValueError(f"{kind} record needs 3 fields, has {len(fields)}")
                first, tag, weight = fields
                if kind == "F":
                    _column(tag)
                else:
                    _move(first, tag)
                tables[kind][(first, tag)] = read_weight(weight)
                key = [first, tag]
            elif kind in listed:
                listed[kind].append(rest)
                key = [rest]
            else:
                raise ValueError(f"unknown record {kind!r}")
            place = (_RECORDS.index(kind), *key)
            if place <= last:
                raise ValueError(f"record '{kind} {' '.join(key)}' is repeated "
                                 "or out of order")
            last = place
        except ValueError as exc:
            raise ModelFileError(path, str(exc), number) from None
    gazetteers = Gazetteers(frozenset(listed["gaz-org"]), frozenset(listed["gaz-rank"]))
    return TaggerModel(tables["F"], tables["T"], gazetteers, meta, held_out=listed["held-out"])
