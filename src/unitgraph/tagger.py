"""Discrete-feature sequence tagger with constrained Viterbi decoding.

An averaged perceptron over hand-built token features stands in for a
neural encoder; joint decoding enforces the IOB transition rules (an
``I-X`` can only follow ``B-X``/``I-X``), so the output is always a valid
tag sequence.
"""

from __future__ import annotations

import logging
import random
import string
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Document, EntitySpan, EntityType
from .errors import ModelFileError, read_model_lines, read_utf8, read_weight
from .tokens import TAGSET, Token, iob_to_spans, sentences, spans_to_iob, tokenize, valid_transition

if TYPE_CHECKING:  # numpy loads at the first call that needs it
    import numpy as np

log = logging.getLogger(__name__)

NEG_INF = float("-inf")
START = "<start>"  # the previous tag of a first token; valid_transition treats it as O

MODEL_MAGIC = "unitgraph-tagger 1"
# the most sentences training decodes in one batch; keeps the Viterbi
# arrays small however long the corpus
DECODE_AHEAD = 64
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
            return frozenset(line.strip().lower() for line in lines if line.strip())

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


def _token_slots(sents: list[list[Token]], gazetteers: Gazetteers, get, none) -> np.ndarray:
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
    import numpy as np
    lexicon = [none, none] if gazetteers.first_words else []
    texts = [tok.text for tokens in sents for tok in tokens]
    number: dict[str, int] = {}  # each distinct word's place in table
    numbers = [number.setdefault(text, len(number)) for text in texts]
    lows: list[str] = []
    table: list = []  # the slots of each distinct word, one word after another
    for word in number:
        low = word.lower()
        lows.append(low)
        table += (get(f"w={low}", none), get(f"shape={_shape(word)}", none),
                  get(f"pre3={low[:3]}", none), get(f"suf3={low[-3:]}", none),
                  get("cap", none) if word[:1].isupper() else none,
                  get(f"prev={low}", none), get(f"next={low}", none), *lexicon)
    # strings go in an object array: a fixed-width one would cut prev=<s> short
    dtype = object if none is None else np.intp
    slots = np.array(table, dtype).reshape(len(number), 7 + len(lexicon))[numbers]
    slots[1:, 5] = slots[:-1, 5]  # each word's prev= feature moves to the token after it
    slots[:-1, 6] = slots[1:, 6]  # and its next= feature to the token before it
    lengths = np.array([len(tokens) for tokens in sents], dtype=np.intp)
    ends = np.cumsum(lengths)[lengths > 0]
    slots[ends - lengths[lengths > 0], 5] = get("prev=<s>", none)
    slots[ends - 1, 6] = get("next=</s>", none)
    if lexicon:
        org, rank = _lexicon_hits([lows[k] for k in numbers], ends.tolist(), gazetteers)
        slots[list(org), 7] = get("org-lex", none)
        slots[list(rank), 8] = get("rank-lex", none)
    return slots


def featurize_sentences(sents: list[list[Token]], gazetteers: Gazetteers | None = None
                        ) -> list[list[list[str]]]:
    """Deterministic discrete features for every token of every sentence:
    the features in its ``_token_slots``, in order."""
    slots = iter(_token_slots(sents, gazetteers or Gazetteers(), lambda f, _: f, None).tolist())
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
# transition weights, so a forbidden move is never taken.  Rows of floats,
# so that importing this module builds no array
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
    """A tagger's weights over the 9-tag IOB set, held as arrays.

    ``row`` maps each feature to its row of ``weights``, an ``(F + 1, 9)``
    matrix with a column per tag of ``TAGSET`` and a last row of zeros
    for any other feature.  ``transitions[p, t]`` weighs the move from
    tag p to tag t; its last row moves from ``START``.  A cell that is not
    zero is a stored weight.  Forbidden moves hold 0, and the decoder
    bars them.  ``held_out`` names the documents of its training corpus
    that it never saw.
    """

    def __init__(self, feature_weights: Mapping[tuple[str, str], float] | None = None,
                 transition_weights: Mapping[tuple[str, str], float] | None = None,
                 gazetteers: Gazetteers | None = None, meta: dict | None = None,
                 features: Iterable[str] = (), held_out: Iterable[str] = ()):
        """A model from ``(feature, tag)`` and ``(previous tag, tag)``
        weights; ``features`` get rows ahead of the weighted features.  A
        tag outside ``TAGSET`` or a forbidden move raises ``ValueError``."""
        import numpy as np
        feature_weights = feature_weights or {}
        self.row = {f: r for r, f in enumerate(
            dict.fromkeys(chain(features, (f for f, _ in feature_weights))))}
        self.weights = np.zeros((len(self.row) + 1, len(TAGSET)))
        for (f, tag), w in feature_weights.items():
            self.weights[self.row[f], _column(tag)] = w
        self.transitions = np.zeros((len(_BARRED), len(TAGSET)))
        for (prev, tag), w in (transition_weights or {}).items():
            self.transitions[_move(prev, tag)] = w
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
        import numpy as np
        return int(np.count_nonzero(self.weights) + np.count_nonzero(self.transitions))

    def emissions(self, ids: np.ndarray) -> np.ndarray:
        """Per token and tag, the feature weights added from 0.0 in order."""
        import numpy as np
        total = np.zeros((len(ids), len(TAGSET)))
        for column in ids.T:
            total += self.weights[column]
        return total


def _stored(matrix: np.ndarray, names: list[str]) -> dict[tuple[str, str], float]:
    """The non-zero cells of a weight matrix by the name of their row and
    their tag, as Python floats."""
    import numpy as np
    rows, tags = np.nonzero(matrix)
    return {(names[r], TAGSET[t]): w for r, t, w in
            zip(rows.tolist(), tags.tolist(), matrix[rows, tags].tolist())}


def _decode(model: TaggerModel, ids: np.ndarray, lengths: list[int]) -> list[list[int]]:
    """Viterbi over a batch of sentences, given the feature rows of their
    tokens in order (``_sentence_ids``) and each sentence's length; each
    sentence's tags come back as ``TAGSET`` indices.

    The sentences are padded to the longest one and advanced together:
    each step adds every sentence's scores to the transition matrix, keeps
    the first maximum over the previous tag (so ties go to the lowest
    index) and adds the step's emissions.  Every step's ``(n, tags)``
    scores are kept, and each sentence's last tag is read from the step of
    its own last token, so the padded steps after it change nothing.  Each
    sentence sees the same float64 additions as when it is decoded alone,
    so batching does not change a tag.
    """
    import numpy as np
    lengths = np.array(lengths, dtype=int)
    n, width, m = len(lengths), int(lengths.max(initial=0)), len(TAGSET)
    if width == 0:
        return [[] for _ in lengths]
    moves = model.transitions + _BARRED
    # into[t, p]: the score of a move from tag p to tag t
    start, into = moves[-1], moves[:-1].T
    emit = np.zeros((n, width, m))
    # the mask lists its cells sentence by sentence, token by token
    emit[np.arange(width) < lengths[:, None]] = model.emissions(ids)
    score = np.empty((width, n, m))
    back = np.empty((width - 1, n, m), dtype=np.intp)
    score[0] = emit[:, 0] + start
    rows = np.arange(n * m) * m  # where each (k, t) row of a flattened cand starts
    # cand[k, t, p]: sentence k's score of reaching tag t from tag p; the
    # maximum is read at the argmax, which is cheaper than a second reduction.
    # Each step writes into buffers made once and views of score and back
    cand, at = np.empty((n, m, m)), np.empty(n * m, dtype=np.intp)
    for prev, best, now, emitted in zip(score[:-1, :, None, :], back, score[1:],
                                        emit.transpose(1, 0, 2)[1:]):
        np.add(prev, into, out=cand)
        cand.argmax(axis=2, out=best)
        np.add(rows, best.ravel(), out=at)
        np.add(cand.take(at).reshape(n, m), emitted, out=now)
    last = score[lengths - 1, np.arange(n)].argmax(axis=1)
    back_rows = back.tolist()
    out = []
    for k, (length, tag) in enumerate(zip(lengths.tolist(), last.tolist())):
        path = [tag]
        for i in range(length - 2, -1, -1):
            path.append(back_rows[i][k][path[-1]])
        out.append(path[::-1] if length else [])
    return out


def _sentence_ids(model: TaggerModel, sents: list[list[Token]]) -> np.ndarray:
    """The feature rows of every token of the sentences, in order: its
    ``_token_slots`` with each feature resolved to its row, and the zero
    row for a feature the model lacks or a slot with no feature.

    Features are resolved once per distinct word, not per token.  A token
    gets the rows of its ``featurize_sentences`` features in their order,
    with zero rows between them where a slot is empty.  Adding the zero
    row leaves a running emission total as it is (the total starts at
    +0.0, and a sum that starts there is never -0.0), so the emissions are
    those of its features' rows, bit for bit.
    """
    return _token_slots(sents, model.gazetteers, model.row.get, len(model.row))


def _tag_sentences(model: TaggerModel, sents: list[list[Token]]) -> list[list[str]]:
    """Resolve the sentences' features to rows and decode them in one batch."""
    paths = _decode(model, _sentence_ids(model, sents), [len(sent) for sent in sents])
    return [[TAGSET[t] for t in path] for path in paths]


def viterbi_decode(model: TaggerModel, tokens: list[Token]) -> list[str]:
    """Argmax tag sequence under emission + transition scores.

    The tokens are decoded as a batch of one sentence (see ``_decode``).
    Ties resolve to the lowest tagset index, so a zero model decodes to
    all O.
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

    The model starts with a row for each training feature, assigned as
    the sentences' slots are built, once, before the first epoch, so each
    update adds +-1.0 to its arrays in place (the order of the additions
    does not matter).  Averaging is lazy: each cell also accumulates
    ``delta * now`` over its updates, so after ``now`` steps the sum of
    the cell's weight over the steps is ``weight * now - accumulated``.
    All of these are integers below 2**53 and so exact, and the averaged
    weight is that sum divided by ``now``.  The averaged model keeps only
    its non-zero cells, as a loaded one does.  Deterministic for a fixed
    seed: the sentence order is reshuffled per epoch from a seeded RNG.
    A gold move the decoder can never take raises ``ValueError``.

    The sentences are decoded ahead: the next ``w`` of the epoch's order
    in one ``_decode`` call, then taken in order up to the first whose
    prediction is not its gold tags.  That one is updated, and the rest of
    the window is decoded again, with the new weights.  ``w`` doubles
    after a window decoded exactly throughout, up to ``DECODE_AHEAD``, and
    falls back to 1 after an update.  This is exact: each sentence of a
    batch gets the tags it gets alone (``_decode``), and the weights change
    only at an update.
    """
    import numpy as np
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    gold = []
    for _, tags in corpus:
        for prev, tag in zip([START, *tags], tags):
            _move(prev, tag)
        gold.append([_COLUMN[tag] for tag in tags])
    gazetteers = gazetteers or Gazetteers()
    sents = [tokens for tokens, _ in corpus]
    row: dict[str, int] = {}  # each feature gets the next row as it is met; -1 is the zero row
    slots = _token_slots(sents, gazetteers, lambda f, _: row.setdefault(f, len(row)), -1)
    model = TaggerModel(gazetteers=gazetteers, features=row)
    lengths = [len(tags) for tags in gold]
    ids = np.split(slots, np.cumsum(lengths)[:-1])
    # per cell, the sum of delta * now over the cell's updates
    weights_at, transitions_at = np.zeros_like(model.weights), np.zeros_like(model.transitions)
    now = 0

    def apply(si: int, tags: list[int], delta: float) -> None:
        columns = np.array(tags)
        tokens, slots = np.nonzero(ids[si] >= 0)  # the cells without padding
        cells = ids[si][tokens, slots], columns[tokens]
        np.add.at(model.weights, cells, delta)
        np.add.at(weights_at, cells, delta * now)
        moves = [_ROW[START], *tags[:-1]], columns
        np.add.at(model.transitions, moves, delta)
        np.add.at(transitions_at, moves, delta * now)

    rng = random.Random(seed)
    order = list(range(len(corpus)))
    width = 1
    for epoch in range(epochs):
        rng.shuffle(order)
        exact = taken = 0
        while taken < len(order):
            window = order[taken:taken + width]
            preds = _decode(model, np.concatenate([ids[si] for si in window]),
                            [lengths[si] for si in window])
            width = min(2 * width, DECODE_AHEAD)
            for si, pred in zip(window, preds):
                taken += 1
                now += 1
                if pred != gold[si]:
                    apply(si, gold[si], +1.0)
                    apply(si, pred, -1.0)
                    width = 1
                    break
                exact += 1
        log.info("tagger epoch %d: %d/%d sentences decoded exactly",
                 epoch + 1, exact, len(corpus))

    weights = (model.weights * now - weights_at) / now
    transitions = (model.transitions * now - transitions_at) / now
    return TaggerModel(_stored(weights, list(model.row)), _stored(transitions, list(_ROW)),
                       gazetteers, {"seed": seed, "epochs": epochs, "sentences": len(corpus)})


def predict_entities(model: TaggerModel, doc: Document,
                     sents_out: list | None = None) -> list[EntitySpan]:
    """Entity spans for a document, decoded by ``model``.

    The sentences of the document are decoded together in one batch;
    each sentence's tags are those ``viterbi_decode`` gives it.
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
