"""Attach non-Person entities to Persons within a sentence.

Three strategy families: nearest person by surface order, shortest
dependency path (free or constrained to the two flanking Persons), and
the trainable relation network (which alone may abstain).  ``NETWORKS``
is the table of network strategies, which ask the model they are given
for their Persons (``choose``): this module loads no network code.
"""

from __future__ import annotations

import logging
import time
from enum import Enum
from typing import NamedTuple

from .corpus import (Document, EntitySpan, EntityType, RelationEdge, RelationType,
                     SCHEMA_RELATION)
from .deptree import DepTree, PathPattern, align_to_text, span_path
from .errors import MissingParseError
from .tokens import Token, sentences, tokenize

log = logging.getLogger(__name__)


class Strategy(Enum):
    NEAREST_PERSON = "nearest-person"
    SDP_FREE = "sdp-free"
    SDP_CONSTRAINED = "sdp-constrained"
    NN_FREE = "nn-free"
    NN_CONSTRAINED = "nn-constrained"


SDP_STRATEGIES = (Strategy.SDP_FREE, Strategy.SDP_CONSTRAINED)


class Network(NamedTuple):
    """How a network strategy is trained, named and stored."""

    mode: str  # the output layer: K candidate slots or 3 flank classes
    target: str  # its name in ``train --targets``
    filename: str  # its file in a model directory written by ``train``


# the network strategies: the only map from each to its model
NETWORKS = {
    Strategy.NN_FREE: Network("select_k", "relnet-select", "relnet_select.model"),
    Strategy.NN_CONSTRAINED: Network("constrained3", "relnet-constrained",
                                     "relnet_constrained.model"),
}


class SentenceContext:
    """One sentence's entities and (optional) dependency tree.  Two
    contexts are equal when all but their memo of paths are."""

    __slots__ = ("tree", "persons", "targets", "extent", "tree_spans", "_paths")

    def __init__(self, tree: DepTree | None, persons: list[EntitySpan],
                 targets: list[EntitySpan], extent: tuple[int, int],
                 tree_spans: list[tuple[int, int] | None] | None = None):
        self.tree = tree
        self.persons = persons  # sorted by start offset
        self.targets = targets  # non-Person entities, sorted by start
        self.extent = extent
        self.tree_spans = [] if tree_spans is None else tree_spans
        # (target start, end, Person start, end) -> path; filled by path()
        self._paths: dict[tuple[int, int, int, int], PathPattern | None] = {}

    def __eq__(self, other):
        if type(other) is not SentenceContext:
            return NotImplemented
        return ((self.tree, self.persons, self.targets, self.extent, self.tree_spans)
                == (other.tree, other.persons, other.targets, other.extent,
                    other.tree_spans))

    def __repr__(self) -> str:
        return (f"SentenceContext(tree={self.tree!r}, persons={self.persons!r}, "
                f"targets={self.targets!r}, extent={self.extent!r}, "
                f"tree_spans={self.tree_spans!r})")

    def tree_tokens(self, span: EntitySpan) -> set[int]:
        """Tree token indices whose aligned text overlaps the span."""
        return {
            i
            for i, s in enumerate(self.tree_spans)
            if s is not None and s[0] < span.end and s[1] > span.start
        }

    def path(self, target: EntitySpan, person: EntitySpan) -> PathPattern | None:
        """``span_path`` from the target's tree tokens to the Person's.

        None when either span has no aligned tree token.  The path depends
        only on the two spans' offsets, so it is computed once per pair
        and every strategy, ``relnet.featurize`` and ``inspect`` share it.
        """
        key = (target.start, target.end, person.start, person.end)
        if key not in self._paths:
            t_toks, p_toks = self.tree_tokens(target), self.tree_tokens(person)
            self._paths[key] = (
                span_path(self.tree, t_toks, p_toks) if t_toks and p_toks else None
            )
        return self._paths[key]


class Attachment(NamedTuple):
    """A predicted edge from a non-Person entity to a Person.

    ``person`` is None when the strategy abstained (relation-network
    strategies only); the edge type is always determined by the target's
    entity class.
    """

    target: EntitySpan
    person: EntitySpan | None
    rtype: RelationType
    strategy: Strategy


def type_map(etype: EntityType) -> RelationType:
    """Organization -> is_posted, Rank -> has_rank, TitleRole -> has_title_role."""
    if etype is EntityType.PERSON:
        raise ValueError("Person entities are relation subjects, not targets")
    return SCHEMA_RELATION[etype]


def _char_distance(a: EntitySpan, b: EntitySpan) -> int:
    return max(0, max(a.start, b.start) - min(a.end, b.end))


def nearest_person(ctx: SentenceContext, target: EntitySpan) -> Attachment:
    """Attach to the first Person to the right, else the nearest Person.

    "Right" means starting at or after the target's end; the fallback
    minimizes character distance with ties going to the leftmost Person.
    """
    if not ctx.persons:
        raise ValueError("sentence has no Person entities")
    right = [p for p in ctx.persons if p.start >= target.end]
    if right:
        person = right[0]
    else:
        person = min(ctx.persons, key=lambda p: (_char_distance(p, target), p.start))
    return Attachment(target, person, type_map(target.etype), Strategy.NEAREST_PERSON)


def flanking_persons(
    ctx: SentenceContext, target: EntitySpan
) -> tuple[EntitySpan | None, EntitySpan | None]:
    """The nearest Persons starting before and after the target.

    Of Persons sharing the nearest start (one span annotated twice), the
    first is taken, as ``nearest_person`` and ``_sdp_best`` take it.
    """
    left = [p for p in ctx.persons if p.start < target.start]
    right = [p for p in ctx.persons if p.start > target.start]
    # persons are sorted by start, so right[0] is already the first of its start
    return max(left, key=lambda p: p.start, default=None), right[0] if right else None


def _sdp_best(
    ctx: SentenceContext, target: EntitySpan, candidates: list[EntitySpan]
) -> EntitySpan | None:
    """Person with the shortest span path; ties by char distance, then left.

    None when no candidate has a path to the target (or there are none).
    A full tie (one span annotated twice) goes to the first candidate.
    """
    def rank(p: EntitySpan) -> tuple[int, int, int]:
        return ctx.path(target, p).length, _char_distance(p, target), p.start

    reachable = [p for p in candidates if ctx.path(target, p) is not None]
    return min(reachable, key=rank, default=None)


def sdp_attach(ctx: SentenceContext, target: EntitySpan, constrained: bool) -> Attachment:
    """Shortest-dependency-path attachment; never abstains.

    Unconstrained mode searches all Persons in the sentence; constrained
    mode only the two flanking Persons (whichever exist).
    """
    if ctx.tree is None:
        raise MissingParseError("sentence has no dependency tree")
    if not ctx.persons:
        raise ValueError("sentence has no Person entities")
    if constrained:
        left, right = flanking_persons(ctx, target)
        candidates = [p for p in (left, right) if p is not None]
    else:
        candidates = list(ctx.persons)
    best = _sdp_best(ctx, target, candidates)
    if best is None:
        raise MissingParseError(
            f"no aligned tree tokens for {target.id} or its candidate Persons"
        )
    strategy = Strategy.SDP_CONSTRAINED if constrained else Strategy.SDP_FREE
    return Attachment(target, best, type_map(target.etype), strategy)


def _context_from_tree(doc: Document, tree: DepTree, position: int,
                       cursor: int) -> tuple[SentenceContext, int]:
    spans = align_to_text(tree, doc.text, cursor)
    aligned = [s for s in spans if s is not None]
    if aligned:
        extent = (min(s for s, _ in aligned), max(e for _, e in aligned))
        cursor = extent[1]
    else:
        log.warning("%s: parse tree %d aligns to no text",
                    doc.doc_id or "<doc>", position)
        extent = (cursor, cursor)
    ctx = SentenceContext(
        tree=tree,
        persons=[],
        targets=[],
        extent=extent,
        tree_spans=spans,
    )
    return ctx, cursor


def build_contexts(doc: Document, trees: list[DepTree],
                   sents: list[list[Token]] | None = None) -> list[SentenceContext]:
    """Sentence contexts with entities assigned by character overlap.

    Sentence extents come from the aligned dependency trees when parses
    exist, otherwise from the rule-based sentences: ``sents`` if the
    caller has them (they must be ``sentences(tokenize(doc.text))``),
    else the text is tokenized here.  A tree that aligns to no text logs
    a warning with its 1-based position.
    """
    contexts: list[SentenceContext] = []
    if trees:
        cursor = 0
        for position, tree in enumerate(trees, start=1):
            ctx, cursor = _context_from_tree(doc, tree, position, cursor)
            contexts.append(ctx)
    else:
        if sents is None:
            sents = sentences(tokenize(doc.text))
        for sent in sents:
            contexts.append(
                SentenceContext(
                    tree=None,
                    persons=[],
                    targets=[],
                    extent=(sent[0].start, sent[-1].end),
                )
            )

    dropped = 0
    for ent in sorted(doc.entities, key=lambda e: (e.start, e.end)):
        home = None
        for ctx in contexts:
            lo, hi = ctx.extent
            if ent.start < hi and ent.end > lo:
                home = ctx
                break
        if home is None:
            dropped += 1
            continue
        if ent.etype is EntityType.PERSON:
            home.persons.append(ent)
        else:
            home.targets.append(ent)
    if dropped:
        log.warning("%s: %d entities fall outside every sentence extent",
                    doc.doc_id or "<doc>", dropped)
    return contexts


def extract_document(
    doc: Document,
    contexts: list[SentenceContext],
    strategy: Strategy,
    model=None,
    vocab=None,
    fallback: bool = True,
) -> list[Attachment]:
    """One attachment attempt per non-Person entity of the document.

    ``contexts`` are ``build_contexts(doc, trees)``; build them once per
    document and pass the same list to every strategy, which then share
    its memoized paths.  Entities in sentences with no Person yield
    nothing.  When a sentence lacks a usable parse, dependency strategies
    either fall back to nearest-person (default) or skip the sentence
    (``fallback=False``).  A network strategy asks ``model``, whose mode
    must be the strategy's, to choose all parsed targets' Persons at once.
    """
    if strategy in NETWORKS:
        if model is None or vocab is None:
            raise ValueError(f"strategy {strategy.value} requires a relation-network "
                             "model and pattern vocabulary")
        mode = NETWORKS[strategy].mode
        if model.mode != mode:
            raise ValueError(f"strategy {strategy.value} needs a {mode} network, "
                             f"not {model.mode}")
        parsed = [(ctx, target) for ctx in contexts
                  if ctx.persons and ctx.tree is not None for target in ctx.targets]
        chosen = iter(model.choose(parsed, vocab))

    out: list[Attachment] = []
    for ctx in contexts:
        for target in ctx.targets:
            if not ctx.persons:
                continue
            try:
                if strategy is Strategy.NEAREST_PERSON:
                    att = nearest_person(ctx, target)
                elif strategy in SDP_STRATEGIES:
                    att = sdp_attach(ctx, target, strategy is Strategy.SDP_CONSTRAINED)
                elif ctx.tree is None:
                    raise MissingParseError("sentence has no dependency tree")
                else:
                    att = Attachment(target, next(chosen), type_map(target.etype),
                                     strategy)
            except MissingParseError:
                if not fallback:
                    continue
                att = nearest_person(ctx, target)
            out.append(att)
    return out


class DocumentRun(NamedTuple):
    """A document through the pipeline: itself with the entities attached
    (gold, or the tagger's), its contexts, each strategy's attachments, and
    the wall time of each stage ("ner", "contexts", each strategy's value)."""

    view: Document
    contexts: list[SentenceContext]
    attachments: dict[Strategy, list[Attachment]]
    seconds: dict[str, float]


def run_document(doc: Document, trees: list[DepTree], strategies=(), networks=None,
                 tagger=None, fallback: bool = True) -> DocumentRun:
    """A document's entities (gold, or ``tagger``'s), its contexts, built once,
    and each strategy's attachments on them, sharing their memoized paths;
    ``networks`` maps a network strategy to its ``(model, vocab)``."""
    t0 = time.perf_counter()
    view, sents = doc, None
    if tagger is not None:
        from .tagger import predict_entities  # gold mode never imports it
        sents = []  # the tagger's sentences, reused for an unparsed document
        view = Document(doc.doc_id, doc.text, predict_entities(tagger, doc, sents), [])
    t1 = time.perf_counter()
    contexts = build_contexts(view, trees, sents)
    seconds = {"ner": t1 - t0, "contexts": time.perf_counter() - t1}
    attachments = {}
    for strategy in strategies:
        t0 = time.perf_counter()
        # strategy is positional: perfbench's tracer reads it as args[2]
        attachments[strategy] = extract_document(
            view, contexts, strategy, *(networks or {}).get(strategy, (None, None)),
            fallback=fallback)
        seconds[strategy.value] = time.perf_counter() - t0
    return DocumentRun(view, contexts, attachments, seconds)


class GoldEdge(NamedTuple):
    """A gold relation and what it joins.

    ``person`` and ``target`` are None when the edge does not join exactly
    one Person with one non-Person: no strategy can predict it.
    ``context`` is the sentence holding both, None when they live in
    different sentences or outside every sentence: unreachable for every
    strategy here, and unlearnable.
    """

    relation: RelationEdge
    person: EntitySpan | None
    target: EntitySpan | None
    context: SentenceContext | None


def gold_pairs(doc: Document, contexts: list[SentenceContext]) -> list[GoldEdge]:
    """One ``GoldEdge`` per gold relation of ``doc``, in file order;
    ``contexts`` are ``build_contexts`` on the document's gold entities."""
    by_id = {e.id: e for e in doc.entities}
    home = {ent.id: ctx for ctx in contexts for ent in ctx.persons + ctx.targets}
    edges = []
    for rel in doc.relations:
        a, b = by_id.get(rel.arg1), by_id.get(rel.arg2)
        # an argument missing, or no Person, or two
        if a is None or b is None or ((a.etype is EntityType.PERSON)
                                      == (b.etype is EntityType.PERSON)):
            edges.append(GoldEdge(rel, None, None, None))
            continue
        person, target = (a, b) if a.etype is EntityType.PERSON else (b, a)
        ctx = home.get(target.id)
        edges.append(GoldEdge(rel, person, target,
                              ctx if home.get(person.id) is ctx else None))
    return edges
