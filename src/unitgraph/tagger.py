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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import Document, EntitySpan
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
        longest = 1
        for phrase in self.organizations | self.ranks:
            longest = max(longest, phrase.count(" ") + 1)
        return longest


def rank_lexicon(docs: list[Document]) -> frozenset[str]:
    """Compile a rank lexicon from the gold Rank spans of training docs."""
    from .corpus import EntityType

    ranks = set()
    for doc in docs:
        for ent in doc.entities:
            if ent.etype is EntityType.RANK:
                ranks.add(ent.surface.lower())
    return frozenset(ranks)


def _shape(word: str) -> str:
    out = []
    for ch in word:
        if ch.isupper():
            out.append("X")
        elif ch.islower():
            out.append("x")
        elif ch.isdigit():
            out.append("d")
        else:
            out.append(ch)
    return "".join(out)


def _phrase_hits(tokens: list[Token], i: int, phrases: frozenset[str], span: int) -> bool:
    for width in range(1, span + 1):
        for offset in range(width):
            lo = i - offset
            if lo < 0 or lo + width > len(tokens):
                continue
            phrase = " ".join(t.text.lower() for t in tokens[lo:lo + width])
            if phrase in phrases:
                return True
    return False


def featurize_token(tokens: list[Token], i: int, gazetteers: Gazetteers | None = None) -> list[str]:
    """Deterministic discrete features for one token in context."""
    tok = tokens[i]
    word = tok.text
    lower = word.lower()
    feats = [
        f"w={lower}",
        f"shape={_shape(word)}",
        f"pre3={lower[:3]}",
        f"suf3={lower[-3:]}",
    ]
    if word[:1].isupper():
        feats.append("cap")
    feats.append(f"prev={tokens[i - 1].text.lower()}" if i > 0 else "prev=<s>")
    feats.append(
        f"next={tokens[i + 1].text.lower()}" if i + 1 < len(tokens) else "next=</s>"
    )
    if gazetteers is not None:
        span = gazetteers.max_words
        if gazetteers.organizations and _phrase_hits(tokens, i, gazetteers.organizations, span):
            feats.append("org-lex")
        if gazetteers.ranks and _phrase_hits(tokens, i, gazetteers.ranks, span):
            feats.append("rank-lex")
    return feats


@dataclass
class TaggerModel:
    """Feature and transition weights over the 9-tag IOB set.

    Invalid transitions are never stored; they score minus infinity at
    decode time and so are never selected.
    """

    feature_weights: dict[tuple[str, str], float] = field(default_factory=dict)
    transition_weights: dict[tuple[str, str], float] = field(default_factory=dict)
    gazetteers: Gazetteers = field(default_factory=Gazetteers)
    meta: dict = field(default_factory=dict)

    tagset: tuple[IobTag, ...] = TAGSET

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


def viterbi_decode(model: TaggerModel, tokens: list[Token]) -> list[IobTag]:
    """Argmax tag sequence under emission + transition scores.

    Each call featurizes the tokens, reads the model into fresh score
    tables and decodes them as a batch of one sentence (see ``_decode``).
    Nothing is cached across calls, so the model's weights may change
    between calls.  Ties resolve to the lowest tagset index, so a zero
    model decodes to all O.
    """
    feats = [featurize_token(tokens, i, model.gazetteers) for i in range(len(tokens))]
    return _decode(_Scores(model), [feats])[0]


class _Scores:
    """A model's decoding scores, read once and fixed while they are used.

    ``start`` holds the score of each tag opening a sentence and
    ``into[t, p]`` the score of moving from tag p to tag t, both read
    through ``TaggerModel.transition`` (so forbidden pairs are minus
    infinity).  A feature's 9 weights are looked up on its first use.
    """

    def __init__(self, model: TaggerModel):
        self.tags = model.tagset
        self._names = [str(tag) for tag in self.tags]
        self.start = np.array([model.transition(START, tag) for tag in self.tags])
        self.into = np.array([[model.transition(p, tag) for p in self._names]
                              for tag in self.tags])
        self._weight = model.feature_weights.get
        self._rows: dict[str, list[float]] = {}

    def emission(self, token_feats: list[str]) -> list[float]:
        """Per tag, the token's feature weights summed in feature order
        from 0, as sum() does."""
        rows = []
        for f in token_feats:
            row = self._rows.get(f)
            if row is None:
                row = self._rows[f] = [self._weight((f, t), 0.0) for t in self._names]
            rows.append(row)
        return [sum(column) for column in zip(*rows)]


def _decode(scores: _Scores, feats_by_sentence: list[list[list[str]]]) -> list[list[IobTag]]:
    """Viterbi over a batch of sentences, given each token's feature list.

    The sentences are padded to the longest one and advanced together:
    each step adds every sentence's scores to the transition matrix and
    keeps the first maximum over the previous tag (so ties go to the
    lowest index), and a sentence's scores stop changing once the step
    passes its last token.  Each sentence sees the same float64 additions
    as when it is decoded alone, so batching does not change a tag.
    """
    lengths = np.array([len(feats) for feats in feats_by_sentence], dtype=int)
    width = int(lengths.max(initial=0))
    if width == 0:
        return [[] for _ in feats_by_sentence]
    emit = np.zeros((len(lengths), width, len(scores.tags)))
    # the mask lists its cells sentence by sentence, token by token
    emit[np.arange(width) < lengths[:, None]] = [
        scores.emission(token_feats)
        for feats in feats_by_sentence for token_feats in feats
    ]
    score = emit[:, 0] + scores.start
    back = []
    for i in range(1, width):
        # cand[k, t, p]: sentence k's score of reaching tag t from tag p
        cand = score[:, None, :] + scores.into
        back.append(cand.argmax(axis=2))
        step = cand.max(axis=2) + emit[:, i]
        score = np.where((i < lengths)[:, None], step, score)
    back_rows = [pointers.tolist() for pointers in back]
    tags = scores.tags
    out = []
    for k, (n, last) in enumerate(zip(lengths.tolist(), score.argmax(axis=1).tolist())):
        if n == 0:
            out.append([])
            continue
        path = [last]
        for i in range(n - 2, -1, -1):
            path.append(back_rows[i][k][path[-1]])
        path.reverse()
        out.append([tags[t] for t in path])
    return out


def training_corpus(docs: list[Document]) -> list[tuple[list[Token], list[IobTag]]]:
    """Every rule-based sentence of the documents with its gold IOB tags.

    A sentence's tags come from the entities overlapping its tokens.
    """
    corpus = []
    for doc in docs:
        for sent in sentences(tokenize(doc.text)):
            ents = [
                e for e in doc.entities
                if e.start < sent[-1].end and e.end > sent[0].start
            ]
            corpus.append((sent, spans_to_iob(sent, ents)))
    return corpus


def train_tagger(
    corpus: list[tuple[list[Token], list[IobTag]]],
    epochs: int = 5,
    seed: int = 13,
    gazetteers: Gazetteers | None = None,
) -> TaggerModel:
    """Averaged-perceptron training against Viterbi predictions.

    Every training sentence is featurized once, before the first epoch;
    those feature lists feed both the decoder and the weight updates.
    Deterministic for a fixed seed: the sentence order is reshuffled per
    epoch from a seeded RNG and weight averaging uses exact counters.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    model = TaggerModel(gazetteers=gazetteers or Gazetteers())
    feats = [
        [featurize_token(tokens, i, model.gazetteers) for i in range(len(tokens))]
        for tokens, _ in corpus
    ]
    # model.*_weights are mutated in place so Viterbi always sees the
    # current weights; totals/stamps implement lazy averaging.
    tables = {"F": model.feature_weights, "T": model.transition_weights}
    totals: dict[tuple, float] = {}
    stamps: dict[tuple, int] = {}
    now = 0

    def bump(kind: str, key: tuple[str, str], delta: float) -> None:
        table = tables[kind]
        full = (kind,) + key
        totals[full] = totals.get(full, 0.0) + table.get(key, 0.0) * (
            now - stamps.get(full, 0)
        )
        stamps[full] = now
        table[key] = table.get(key, 0.0) + delta

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
            pred = _decode(_Scores(model), [feats[si]])[0]
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
    return model


def predict_entities(model: TaggerModel | None, doc: Document) -> list[EntitySpan]:
    """Entity spans for a document: gold pass-through or decoded spans.

    ``model=None`` is gold mode and returns ``doc.entities`` unchanged.
    Otherwise every sentence of the document is featurized and the
    sentences are decoded together in one batch over one set of score
    tables; each sentence's tags are those ``viterbi_decode`` gives it.
    """
    if model is None:
        return list(doc.entities)
    sents = sentences(tokenize(doc.text))
    feats = [
        [featurize_token(sent, i, model.gazetteers) for i in range(len(sent))]
        for sent in sents
    ]
    out: list[EntitySpan] = []
    for sent, tags in zip(sents, _decode(_Scores(model), feats)):
        out.extend(iob_to_spans(sent, tags, text=doc.text, first_id=len(out) + 1))
    return out


def save_tagger(model: TaggerModel, path) -> None:
    """Sorted key->weight text format; reruns with one seed diff clean."""
    lines = [MODEL_MAGIC]
    for key in sorted(model.meta):
        lines.append(f"meta\t{key}\t{model.meta[key]}")
    for phrase in sorted(model.gazetteers.organizations):
        lines.append(f"gaz-org\t{phrase}")
    for phrase in sorted(model.gazetteers.ranks):
        lines.append(f"gaz-rank\t{phrase}")
    for (feat, tag), w in sorted(model.feature_weights.items()):
        lines.append(f"F\t{feat}\t{tag}\t{w!r}")
    for (prev, nxt), w in sorted(model.transition_weights.items()):
        lines.append(f"T\t{prev}\t{nxt}\t{w!r}")
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
                        raise ValueError(f"meta {key} is not an integer: "
                                         f"{value!r}") from None
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
    return TaggerModel(
        feature_weights,
        transition_weights,
        Gazetteers(frozenset(orgs), frozenset(ranks)),
        meta,
    )
