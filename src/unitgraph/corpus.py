"""Corpus I/O: raw text, BRAT standoff annotations and CoNLL-U parses.

A corpus directory holds one ``.txt`` file per article plus an optional
``.ann`` (standoff annotations) and ``.conllu`` (dependency parses) sharing
the same file stem.  Offsets are Unicode character offsets, never bytes.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterator
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .deptree import DepTree
from .errors import BratError, ConlluError, CorpusError, read_utf8

log = logging.getLogger(__name__)


class EntityType(Enum):
    PERSON = "Person"
    ORGANIZATION = "Organization"
    RANK = "Rank"
    TITLE_ROLE = "Title_Role"


# "Title" and "Role" are kept as one class; all three spellings found in
# annotation data collapse to TITLE_ROLE.
_ENTITY_ALIASES = {
    "Person": EntityType.PERSON,
    "Organization": EntityType.ORGANIZATION,
    "Rank": EntityType.RANK,
    "Title": EntityType.TITLE_ROLE,
    "Role": EntityType.TITLE_ROLE,
    "Title_Role": EntityType.TITLE_ROLE,
}


class RelationType(Enum):
    IS_POSTED = "is_posted"
    HAS_RANK = "has_rank"
    HAS_TITLE_ROLE = "has_title_role"


_RELATION_ALIASES = {
    "is_posted": RelationType.IS_POSTED,
    "has_rank": RelationType.HAS_RANK,
    "has_title": RelationType.HAS_TITLE_ROLE,
    "has_role": RelationType.HAS_TITLE_ROLE,
    "has_title_role": RelationType.HAS_TITLE_ROLE,
}

# The relation type each non-Person entity class is expected to carry.
SCHEMA_RELATION = {
    EntityType.ORGANIZATION: RelationType.IS_POSTED,
    EntityType.RANK: RelationType.HAS_RANK,
    EntityType.TITLE_ROLE: RelationType.HAS_TITLE_ROLE,
}


class EntitySpan(NamedTuple):
    """A typed character span (text-bound annotation)."""

    id: str
    etype: EntityType
    start: int
    end: int
    surface: str


class RelationEdge(NamedTuple):
    """A directed typed edge between two entity IDs."""

    id: str
    rtype: RelationType
    arg1: str
    arg2: str


class Document:
    """Raw text of one corpus file plus its annotation set.

    ``schema_flags`` records relations whose type disagrees with the
    schema for their Arg2 entity class; such relations are loaded as-is.
    Two documents are equal when all but their ``schema_flags`` are.
    """

    __slots__ = ("doc_id", "text", "entities", "relations", "schema_flags", "__weakref__")

    def __init__(self, doc_id: str, text: str, entities: list[EntitySpan] | None = None,
                 relations: list[RelationEdge] | None = None,
                 schema_flags: list[str] | None = None):
        self.doc_id = doc_id
        self.text = text
        self.entities = [] if entities is None else entities
        self.relations = [] if relations is None else relations
        self.schema_flags = [] if schema_flags is None else schema_flags

    def __eq__(self, other):
        if type(other) is not Document:
            return NotImplemented
        return ((self.doc_id, self.text, self.entities, self.relations)
                == (other.doc_id, other.text, other.entities, other.relations))

    def __repr__(self) -> str:
        return (f"Document(doc_id={self.doc_id!r}, text={self.text!r}, "
                f"entities={self.entities!r}, relations={self.relations!r}, "
                f"schema_flags={self.schema_flags!r})")


def _parse_textbound(line: str, lineno: int, text: str) -> EntitySpan:
    fields = line.split("\t")
    if len(fields) < 3:
        raise BratError(
            f"text-bound needs 3 tab-separated fields, got {len(fields)}", lineno
        )
    eid = fields[0]
    surface = "\t".join(fields[2:])
    mid = fields[1].split(" ")
    if len(mid) != 3:
        if ";" in fields[1]:
            raise BratError("discontinuous spans are not supported", lineno)
        raise BratError(f"expected 'TYPE START END', got {fields[1]!r}", lineno)
    type_name, start_s, end_s = mid
    if type_name not in _ENTITY_ALIASES:
        raise BratError(f"unknown entity type {type_name!r}", lineno)
    try:
        start, end = int(start_s), int(end_s)
    except ValueError:
        raise BratError(f"non-integer offsets in {fields[1]!r}", lineno) from None
    if start >= end:
        raise BratError(f"empty or inverted span {start}..{end}", lineno)
    if end > len(text) or start < 0:
        raise BratError(
            f"span {start}..{end} outside text of length {len(text)}", lineno
        )
    actual = text[start:end]
    if actual != surface:
        raise BratError(
            f"surface mismatch for {eid}: annotation says {surface!r}, "
            f"text[{start}:{end}] is {actual!r}",
            lineno,
        )
    return EntitySpan(eid, _ENTITY_ALIASES[type_name], start, end, surface)


def _parse_relation(line: str, lineno: int) -> RelationEdge:
    fields = line.split()
    if len(fields) != 4:
        raise BratError(
            f"relation needs 'ID TYPE Arg1:ID Arg2:ID', got {len(fields)} fields",
            lineno,
        )
    rid, type_name = fields[0], fields[1]
    if type_name not in _RELATION_ALIASES:
        raise BratError(f"unknown relation type {type_name!r}", lineno)
    args = {}
    for part in fields[2:]:
        if ":" not in part:
            raise BratError(f"bad argument {part!r}", lineno)
        role, eid = part.split(":", 1)
        args[role] = eid
    if set(args) != {"Arg1", "Arg2"}:
        raise BratError(f"expected Arg1 and Arg2, got {sorted(args)}", lineno)
    if args["Arg1"] == args["Arg2"]:
        raise BratError("relation arguments must differ", lineno)
    return RelationEdge(rid, _RELATION_ALIASES[type_name], args["Arg1"], args["Arg2"])


def parse_brat(ann_text: str, text: str, doc_id: str = "") -> Document:
    """Parse standoff annotations against their raw text.

    T lines become entities, R lines relations.  Other line types (events,
    attributes, notes) are skipped with a warning.  Type names normalize
    per the class collapse; schema-inconsistent relations are kept and
    recorded in ``schema_flags``.
    """
    entities: list[EntitySpan] = []
    relations: list[RelationEdge] = []
    relation_lines: list[int] = []
    seen: set[str] = set()
    # a standoff line ends at "\n" alone: splitlines() would also break at
    # U+2028, "\x0c" and the like, which a surface may hold
    for lineno, raw in enumerate(ann_text.split("\n"), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line[0] == "T":
            ent = _parse_textbound(line, lineno, text)
            if ent.id in seen:
                raise BratError(f"duplicate annotation ID {ent.id}", lineno)
            seen.add(ent.id)
            entities.append(ent)
        elif line[0] == "R":
            rel = _parse_relation(line, lineno)
            if rel.id in seen:
                raise BratError(f"duplicate annotation ID {rel.id}", lineno)
            seen.add(rel.id)
            relations.append(rel)
            relation_lines.append(lineno)
        else:
            log.warning("%s: skipping unsupported annotation line %d: %r",
                        doc_id or "<doc>", lineno, line[:60])

    doc = Document(doc_id, text, entities, relations)
    by_id = {e.id: e for e in entities}
    for rel, lineno in zip(relations, relation_lines):
        for arg in (rel.arg1, rel.arg2):
            if arg not in by_id:
                raise BratError(f"relation {rel.id} references unknown entity {arg}",
                                lineno)
        arg2 = by_id[rel.arg2]
        expected = SCHEMA_RELATION.get(arg2.etype)
        if expected is not rel.rtype:
            flag = (f"{rel.id}: {rel.rtype.value} with Arg2 of type "
                    f"{arg2.etype.value} (schema expects "
                    f"{expected.value if expected else 'a non-Person Arg2'})")
            doc.schema_flags.append(flag)
            log.warning("%s: %s", doc_id or "<doc>", flag)
    return doc


def serialize_brat(doc: Document) -> str:
    """Render a document's annotations as standoff lines.

    Inverse of :func:`parse_brat` up to type-name normalization, i.e.
    parsing the output against ``doc.text`` reproduces the document.
    """
    lines = []
    for e in doc.entities:
        lines.append(f"{e.id}\t{e.etype.value} {e.start} {e.end}\t{e.surface}")
    for r in doc.relations:
        lines.append(f"{r.id}\t{r.rtype.value} Arg1:{r.arg1} Arg2:{r.arg2}")
    return "".join(line + "\n" for line in lines)


def parse_conllu(conllu_text: str) -> list[DepTree]:
    """Parse CoNLL-U text into one dependency tree per sentence block.

    Only the ID, FORM, HEAD and DEPREL columns are used.  Comment lines,
    multiword-token ranges (``1-2``) and empty nodes (``1.1``) are skipped.
    A sentence's heads must form a tree (one root, every head a token of
    the sentence, no cycle); a ``ConlluError`` names the line of the token
    at fault.
    """
    trees: list[DepTree] = []
    block: list[tuple[int, str]] = []

    def flush() -> None:
        if not block:
            return
        forms: list[str] = []
        heads: list[int] = []
        labels: list[str] = []
        lines: list[int] = []
        for lineno, line in block:
            fields = line.split("\t")
            if len(fields) != 10:
                raise ConlluError(
                    f"expected 10 tab-separated columns, got {len(fields)}", lineno
                )
            tok_id = fields[0]
            if "-" in tok_id or "." in tok_id:
                continue
            try:
                idx = int(tok_id)
            except ValueError:
                raise ConlluError(f"non-integer token id {tok_id!r}", lineno) from None
            if idx != len(forms) + 1:
                raise ConlluError(f"token ids not consecutive at {tok_id!r}", lineno)
            try:
                head = int(fields[6])
            except ValueError:
                raise ConlluError(f"non-integer head {fields[6]!r}", lineno) from None
            forms.append(fields[1])
            heads.append(head - 1)
            labels.append(fields[7])
            lines.append(lineno)
        first_line = block[0][0]
        block.clear()
        if not forms:
            return
        n = len(forms)
        roots = heads.count(-1)
        if roots != 1:
            at = lines[heads.index(-1, heads.index(-1) + 1)] if roots else first_line
            raise ConlluError(f"sentence must have exactly one root, found {roots}", at)
        # One pass: walk up from each token until a token that an earlier
        # walk reached (so it reaches the root).  Meeting a token of this
        # same walk again closes a cycle.
        walk = [-1] * n
        walk[heads.index(-1)] = n  # every walk that reaches the root ends there
        for i in range(n):
            tok = i
            while walk[tok] < 0:
                walk[tok] = i
                head = heads[tok]
                if not 0 <= head < n:
                    raise ConlluError(f"head {head + 1} out of range 1..{n}", lines[tok])
                tok = head
            if walk[tok] == i:
                raise ConlluError("cyclic heads: not a tree", lines[tok])
        trees.append(DepTree(forms, heads, labels))

    for lineno, raw in enumerate(conllu_text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
        elif line.startswith("#"):
            continue
        else:
            block.append((lineno, line))
    flush()
    return trees


def _read(path: Path, what: str) -> str:
    """The UTF-8 text of one corpus file; a CorpusError names the file."""
    try:
        return read_utf8(path, CorpusError)
    except OSError as exc:
        raise CorpusError(f"cannot read {what} for {path.stem}: {exc}") from exc


def iter_corpus(corpus_dir: str | Path, gold: bool = True,
                parses: bool = True) -> Iterator[tuple[Document, list[DepTree]]]:
    """Yield every stem with a ``.txt`` file, sorted by stem, one at a time.

    Each document is read and checked only when the previous one has been
    taken, so a caller that keeps no document past its loop step holds at
    most two: the one it has and the one being read.  Missing ``.ann``
    yields an empty annotation set, and so does ``gold=False``, which opens
    no ``.ann`` file at all (for a caller that brings its own entities);
    missing ``.conllu`` yields an empty parse list with a warning
    (dependency-based extractors are unavailable for that document), and
    ``parses=False`` yields one for every document, with no warning and no
    ``.conllu`` opened (for a caller that reads no tree).  A missing corpus
    directory is a CorpusError; an empty one yields nothing.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        problem = "not a directory" if corpus_dir.exists() else "no such directory"
        raise CorpusError(f"corpus {corpus_dir}: {problem}")
    # the listing is all a streamed pass keeps for the whole corpus, so it
    # holds names alone, taken one directory entry at a time (Path.glob
    # lists every entry of the directory at once)
    with os.scandir(corpus_dir) as entries:
        names = sorted(entry.name for entry in entries if entry.name.endswith(".txt"))
    for name in names:
        txt_path = corpus_dir / name
        stem = txt_path.stem
        text = _read(txt_path, "text")
        ann_path = txt_path.with_suffix(".ann")
        ann_text = _read(ann_path, "annotations") if gold and ann_path.exists() else ""
        try:
            doc = parse_brat(ann_text, text, doc_id=stem)
        except BratError as exc:
            raise CorpusError(f"{ann_path.name}: {exc}") from exc
        conllu_path = txt_path.with_suffix(".conllu")
        trees: list[DepTree] = []
        if parses:
            if conllu_path.exists():
                try:
                    trees = parse_conllu(_read(conllu_path, "parses"))
                except ConlluError as exc:
                    raise CorpusError(f"{conllu_path.name}: {exc}") from exc
            else:
                log.warning("%s: no .conllu file; dependency-based extraction "
                            "unavailable for this document", stem)
        yield doc, trees


def load_corpus(corpus_dir: str | Path) -> list[tuple[Document, list[DepTree]]]:
    """Every document of :func:`iter_corpus` at once, for callers that need
    the whole list (a seeded split, repeated passes)."""
    return list(iter_corpus(corpus_dir))
