"""Discrete-feature sequence tagger with constrained Viterbi decoding.

An averaged perceptron over hand-built token features stands in for a
neural encoder; joint decoding enforces the IOB transition rules (an
``I-X`` can only follow ``B-X``/``I-X``), so the output is always a valid
tag sequence.
"""

from __future__ import annotations

import logging
import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .corpus import Document, EntitySpan, EntityType
from .errors import ModelFileError, read_model_lines
from .tokens import (
    IobTag,
    O_TAG,
    TAGSET,
    Token,
    iob_to_spans,
    sentences,
    spans_to_iob,
    tokenize,
    valid_transition,
)

log = logging.getLogger(__name__)

NEG_INF = float("-inf")
START = "<start>"  # sentinel previous-tag key; validity-wise it acts like O

MODEL_MAGIC = "unitgraph-tagger 1"
# meta keys train_tagger writes as ints; every other key loads as a string
_INT_META = ("seed", "epochs", "sentences")


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
            lines = Path(path).read_text(encoding="utf-8").splitlines()
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


def _shape(word: str) -> str:
    return "".join("X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit()
                   else ch for ch in word)


def featurize_sentences(sents: list[list[Token]], gazetteers: Gazetteers | None = None
                        ) -> list[list[list[str]]]:
    """Deterministic discrete features for every token of every sentence.

    A word's own features (``w=``, ``shape=``, ``pre3=``, ``suf3=``,
    ``cap``) and its ``prev=``/``next=`` features as a neighbour are built
    once per distinct token text in the call.  A gazetteer window of at
    most ``max_words`` tokens is joined only when its first word starts a
    phrase; a window found in a lexicon marks every token it covers.
    """
    # token text -> (lower-cased, own features, its prev= and next= features)
    words: dict[str, tuple[str, list[str], str, str]] = {}
    out = []
    for tokens in sents:
        entries = []
        for tok in tokens:
            entry = words.get(tok.text)
            if entry is None:
                word = tok.text
                low = word.lower()
                own = [f"w={low}", f"shape={_shape(word)}", f"pre3={low[:3]}",
                       f"suf3={low[-3:]}"]
                if word[:1].isupper():
                    own.append("cap")
                entry = words[word] = (low, own, f"prev={low}", f"next={low}")
            entries.append(entry)
        prevs = ["prev=<s>", *(e[2] for e in entries)]
        nexts = [*(e[3] for e in entries[1:]), "next=</s>"]
        feats = [[*e[1], prev, nxt] for e, prev, nxt in zip(entries, prevs, nexts)]
        if gazetteers is not None and gazetteers.first_words:
            org, rank = _lexicon_hits([e[0] for e in entries], gazetteers)
            for i in org:
                feats[i].append("org-lex")
            for i in rank:
                feats[i].append("rank-lex")
        out.append(feats)
    return out


def _lexicon_hits(lower: list[str], gazetteers: Gazetteers) -> tuple[set[int], set[int]]:
    """The positions of the lower-cased words covered by an organization
    phrase and by a rank phrase."""
    org: set[int] = set()
    rank: set[int] = set()
    n, firsts, max_words = len(lower), gazetteers.first_words, gazetteers.max_words
    for lo, first in enumerate(lower):
        if first not in firsts:
            continue
        for width in range(1, min(max_words, n - lo) + 1):
            phrase = " ".join(lower[lo:lo + width])
            if phrase in gazetteers.organizations:
                org.update(range(lo, lo + width))
            if phrase in gazetteers.ranks:
                rank.update(range(lo, lo + width))
    return org, rank


def featurize_sentence(tokens: list[Token], gazetteers: Gazetteers | None = None
                       ) -> list[list[str]]:
    """The features of one sentence's tokens: ``featurize_sentences`` on a
    batch of one."""
    return featurize_sentences([tokens], gazetteers)[0]


def featurize_token(tokens: list[Token], i: int, gazetteers: Gazetteers | None = None) -> list[str]:
    """The features ``featurize_sentence`` gives token ``i``."""
    return featurize_sentence(tokens, gazetteers)[i]


@dataclass
class TaggerModel:
    """Feature and transition weights over the 9-tag IOB set.

    Invalid transitions score minus infinity at decode time and so are
    never selected.  Models from ``load_tagger`` and ``train_tagger`` have
    read-only tables and keep their decoding scores (``_sealed``).
    """

    feature_weights: Mapping[tuple[str, str], float] = field(default_factory=dict)
    transition_weights: Mapping[tuple[str, str], float] = field(default_factory=dict)
    gazetteers: Gazetteers = field(default_factory=Gazetteers)
    meta: dict = field(default_factory=dict)

    tagset: tuple[IobTag, ...] = TAGSET
    _scores: "_Scores | None" = field(default=None, init=False, compare=False, repr=False)

    def param_count(self) -> int:
        return len(self.feature_weights) + len(self.transition_weights)

    def transition(self, prev: str, nxt_tag: IobTag) -> float:
        nxt = str(nxt_tag)
        if (prev, nxt) not in _VALID:
            return NEG_INF
        return self.transition_weights.get((prev, nxt), 0.0)


# The (previous tag, next tag) name pairs valid_transition allows, with
# START standing for O.  Only TaggerModel.transition reads it; the decoder
# builds its tables through that method.
_VALID = frozenset(
    (prev, str(nxt))
    for prev, prev_tag in [(START, O_TAG)] + [(str(t), t) for t in TAGSET]
    for nxt in TAGSET
    if valid_transition(prev_tag, nxt)
)


def _sealed(model: TaggerModel) -> TaggerModel:
    """The model with read-only weight tables and its decoding scores."""
    model.feature_weights = MappingProxyType(model.feature_weights)
    model.transition_weights = MappingProxyType(model.transition_weights)
    model._scores = _Scores(model)
    return model


class _Scores:
    """A model's decoding scores as arrays.

    ``start[t]`` scores tag t opening a sentence and ``into[t, p]`` a move
    from tag p to tag t, both read through ``TaggerModel.transition``.
    ``weights`` has a row of tag weights for each feature in ``row`` (by
    default, the model's) and a last row of zeros for any other feature.
    """

    def __init__(self, model: TaggerModel, features: Iterable[str] | None = None):
        self.tables = (model.feature_weights, model.transition_weights)
        self.tags = model.tagset
        self.column = {str(tag): c for c, tag in enumerate(self.tags)}
        self.start = np.array([model.transition(START, tag) for tag in self.tags])
        self.into = np.array([[model.transition(p, tag) for p in self.column]
                              for tag in self.tags])
        if features is None:
            features = (f for f, _ in model.feature_weights)
        self.row = {f: r for r, f in enumerate(dict.fromkeys(features))}
        self.weights = np.zeros((len(self.row) + 1, len(self.tags)))
        for (f, tag), w in model.feature_weights.items():
            if tag in self.column:
                self.weights[self.row[f], self.column[tag]] = w

    def update(self, model: TaggerModel, kind: str, key: tuple[str, str]) -> None:
        """Copy one of the model's ``F`` or ``T`` weights into the arrays."""
        first, name = key
        t = self.column[name]
        if kind == "F":
            self.weights[self.row[first], t] = model.feature_weights[key]
        elif first == START:
            self.start[t] = model.transition(START, self.tags[t])
        else:
            self.into[t, self.column[first]] = model.transition(first, self.tags[t])

    def ids(self, token_feats: list[list[str]]) -> np.ndarray:
        """Each token's feature rows, padded with the last row."""
        unknown = len(self.row)
        lengths = np.array([len(feats) for feats in token_feats], dtype=int)
        ids = np.full((len(lengths), lengths.max(initial=0)), unknown)
        ids[np.arange(ids.shape[1]) < lengths[:, None]] = [
            self.row.get(f, unknown) for feats in token_feats for f in feats]
        return ids

    def emissions(self, ids: np.ndarray) -> np.ndarray:
        """Per token and tag, the feature weights added from 0.0 in order."""
        total = np.zeros((len(ids), len(self.tags)))
        for column in ids.T:
            total += self.weights[column]
        return total


def _decode(scores: _Scores, ids: np.ndarray, lengths: list[int]) -> list[list[IobTag]]:
    """Viterbi over a batch of sentences, given the feature rows of their
    tokens in order (``_Scores.ids``) and each sentence's length.

    The sentences are padded to the longest one and advanced together:
    each step adds every sentence's scores to the transition matrix, keeps
    the first maximum over the previous tag (so ties go to the lowest
    index) and adds the step's emissions.  Every step's ``(n, tags)``
    scores are kept, and each sentence's last tag is read from the step of
    its own last token, so the padded steps after it change nothing.  Each
    sentence sees the same float64 additions as when it is decoded alone,
    so batching does not change a tag.
    """
    lengths = np.array(lengths, dtype=int)
    n, width, m = len(lengths), int(lengths.max(initial=0)), len(scores.tags)
    if width == 0:
        return [[] for _ in lengths]
    emit = np.zeros((n, width, m))
    # the mask lists its cells sentence by sentence, token by token
    emit[np.arange(width) < lengths[:, None]] = scores.emissions(ids)
    score = np.empty((width, n, m))
    back = np.empty((width - 1, n, m), dtype=np.intp)
    score[0] = emit[:, 0] + scores.start
    rows = np.arange(n * m) * m  # where each (k, t) row of a flattened cand starts
    for i in range(1, width):
        # cand[k, t, p]: sentence k's score of reaching tag t from tag p; the
        # maximum is read at the argmax, which is cheaper than a second reduction
        cand = score[i - 1][:, None, :] + scores.into
        best = cand.argmax(axis=2, out=back[i - 1])
        np.add(cand.ravel()[rows + best.ravel()].reshape(n, m), emit[:, i], out=score[i])
    last = score[lengths - 1, np.arange(n)].argmax(axis=1)
    back_rows = back.tolist()
    out = []
    for k, (length, tag) in enumerate(zip(lengths.tolist(), last.tolist())):
        path = [tag]
        for i in range(length - 2, -1, -1):
            path.append(back_rows[i][k][path[-1]])
        out.append([scores.tags[t] for t in reversed(path)] if length else [])
    return out


def _tag_sentences(model: TaggerModel, sents: list[list[Token]]) -> list[list[IobTag]]:
    """Featurize the sentences and decode them in one batch under the
    model's current weights: a sealed model's scores serve while its
    tables are the read-only ones they were read from (or equal them)."""
    scores = model._scores
    if scores is None or scores.tables != (model.feature_weights, model.transition_weights):
        scores = _Scores(model)
    feats = [f for sent in featurize_sentences(sents, model.gazetteers) for f in sent]
    return _decode(scores, scores.ids(feats), [len(sent) for sent in sents])


def viterbi_decode(model: TaggerModel, tokens: list[Token]) -> list[IobTag]:
    """Argmax tag sequence under emission + transition scores.

    The tokens are decoded as a batch of one sentence (see ``_decode``)
    under the model's current weights: a loaded or trained model's tables
    are read-only, and a hand-built model's tables are read on every
    call, so a change to them shows in the next decode.  Ties resolve to
    the lowest tagset index, so a zero model decodes to all O.
    """
    return _tag_sentences(model, [tokens])[0]


def training_corpus(docs: list[Document]) -> list[tuple[list[Token], list[IobTag]]]:
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
    corpus: list[tuple[list[Token], list[IobTag]]],
    epochs: int = 5,
    seed: int = 13,
    gazetteers: Gazetteers | None = None,
) -> TaggerModel:
    """Averaged-perceptron training against Viterbi predictions.

    Every training sentence is featurized once, before the first epoch,
    and every weight update is copied into one set of score arrays with
    a row for each training feature.  Deterministic for a fixed seed: the
    sentence order is reshuffled per epoch from a seeded RNG and weight
    averaging uses exact counters.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    model = TaggerModel(gazetteers=gazetteers or Gazetteers())
    feats = featurize_sentences([tokens for tokens, _ in corpus], model.gazetteers)
    scores = _Scores(model, (f for sent in feats for token in sent for f in token))
    ids = [scores.ids(sent_feats) for sent_feats in feats]
    # model.*_weights are mutated in place and copied into scores, so Viterbi
    # always sees the current weights; totals/stamps implement lazy averaging.
    tables = {"F": model.feature_weights, "T": model.transition_weights}
    totals: dict[tuple, float] = {}
    stamps: dict[tuple, int] = {}
    now = 0

    def bump(kind: str, key: tuple[str, str], delta: float) -> None:
        table = tables[kind]
        full = (kind,) + key
        totals[full] = totals.get(full, 0.0) + table.get(key, 0.0) * (now - stamps.get(full, 0))
        stamps[full] = now
        table[key] = table.get(key, 0.0) + delta
        scores.update(model, kind, key)

    def apply(sent_feats: list[list[str]], tags: list[IobTag], delta: float) -> None:
        prev = START
        for token_feats, tag in zip(sent_feats, tags):
            name = str(tag)
            for f in token_feats:
                bump("F", (f, name), delta)
            bump("T", (prev, name), delta)
            prev = name

    rng = random.Random(seed)
    order = list(range(len(corpus)))
    for epoch in range(epochs):
        rng.shuffle(order)
        exact = 0
        for si in order:
            gold = corpus[si][1]
            pred = _decode(scores, ids[si], [len(feats[si])])[0]
            now += 1
            if pred == gold:
                exact += 1
                continue
            apply(feats[si], gold, +1.0)
            apply(feats[si], pred, -1.0)
        log.info("tagger epoch %d: %d/%d sentences decoded exactly",
                 epoch + 1, exact, len(corpus))

    denom = max(now, 1)
    for kind, table in tables.items():
        averaged = {}
        for key, w in table.items():
            full = (kind,) + key
            total = totals.get(full, 0.0) + w * (now - stamps.get(full, 0))
            if total != 0.0:
                averaged[key] = total / denom
        table.clear()
        table.update(averaged)
    model.meta = {"seed": seed, "epochs": epochs, "sentences": len(corpus)}
    return _sealed(model)


def predict_entities(model: TaggerModel | None, doc: Document,
                     sents_out: list | None = None) -> list[EntitySpan]:
    """Entity spans for a document: gold pass-through or decoded spans.

    ``model=None`` is gold mode and returns ``doc.entities`` unchanged.
    Otherwise the sentences of the document are decoded together in one
    batch under the model's current weights; each sentence's tags are
    those ``viterbi_decode`` gives it.  ``sents_out``, if given, receives
    those sentences (``sentences(tokenize(doc.text))``), so a caller can
    build the document's contexts without tokenizing it again.
    """
    if model is None:
        return list(doc.entities)
    sents = sentences(tokenize(doc.text))
    if sents_out is not None:
        sents_out.extend(sents)
    out: list[EntitySpan] = []
    for sent, tags in zip(sents, _tag_sentences(model, sents)):
        out.extend(iob_to_spans(sent, tags, text=doc.text, first_id=len(out) + 1))
    return out


def save_tagger(model: TaggerModel, path) -> None:
    """Sorted key->weight text format; reruns with one seed diff clean."""
    lines = [MODEL_MAGIC]
    lines += [f"meta\t{key}\t{model.meta[key]}" for key in sorted(model.meta)]
    lines += [f"gaz-org\t{phrase}" for phrase in sorted(model.gazetteers.organizations)]
    lines += [f"gaz-rank\t{phrase}" for phrase in sorted(model.gazetteers.ranks)]
    for kind, table in (("F", model.feature_weights), ("T", model.transition_weights)):
        lines += [f"{kind}\t{a}\t{b}\t{w!r}" for (a, b), w in sorted(table.items())]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _weight(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"weight is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"weight is not finite: {text!r}")
    return value


def load_tagger(path) -> TaggerModel:
    """Read a file written by ``save_tagger``.

    A malformed file raises ``ModelFileError`` naming the file and line.
    """
    lines = read_model_lines(path, MODEL_MAGIC, "tagger model")
    feature_weights: dict[tuple[str, str], float] = {}
    transition_weights: dict[tuple[str, str], float] = {}
    orgs, ranks = set(), set()
    meta: dict = {}
    for number, line in enumerate(lines[1:], start=2):
        kind, _, rest = line.partition("\t")
        try:
            if kind == "meta":
                key, _, value = rest.partition("\t")
                meta[key] = value
                if key in _INT_META:
                    try:
                        meta[key] = int(value)
                    except ValueError:
                        raise ValueError(f"meta {key} is not an integer: {value!r}") from None
            elif kind == "gaz-org":
                orgs.add(rest)
            elif kind == "gaz-rank":
                ranks.add(rest)
            elif kind in ("F", "T"):
                fields = rest.split("\t")  # features and tags hold no whitespace
                if len(fields) != 3:
                    raise ValueError(f"{kind} record needs 3 fields, has {len(fields)}")
                table = feature_weights if kind == "F" else transition_weights
                table[(fields[0], fields[1])] = _weight(fields[2])
            else:
                raise ValueError(f"unknown record {kind!r}")
        except ValueError as exc:
            raise ModelFileError(path, str(exc), number) from None
    gazetteers = Gazetteers(frozenset(orgs), frozenset(ranks))
    return _sealed(TaggerModel(feature_weights, transition_weights, gazetteers, meta))
