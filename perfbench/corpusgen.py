"""Seeded corpus generator built from the fixture corpus.

A generated document concatenates a seeded number of fixture documents,
one paragraph each.  Across the whole corpus every fixture document is
used the same number of times, and document lengths cycle through
``DOC_MIN..DOC_MAX``; both are shuffled by the seed.  So every seed gives
the same mix of sentences, the same line count and the same document
lengths, and seeds differ in order, in which fixture documents share a
document, and in names.  Work that grows faster than document length
then varies little from seed to seed.

Name tokens are replaced by synthetic tokens of the same length and
letter shape in the ``.txt``, ``.ann`` and ``.conllu`` files together, so
offsets, trees and character distances keep their structure.  A name
token is a tree token tagged PROPN or written in digits, outside Rank and
Title_Role spans (their words are a closed vocabulary the tagger's rank
lexicon relies on).  One fixture copy maps each original word to one
synthetic word, so repeated mentions stay consistent.  A copy whose
sentences would repeat a sentence already generated is redrawn from the
same seeded stream, which makes every sentence of the corpus unique.
"""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass
from pathlib import Path

from unitgraph.corpus import load_corpus
from unitgraph.relations import build_contexts
from unitgraph.tokens import ABBREVIATIONS, sentences, tokenize

NAME_SKIP_TYPES = {"Rank", "Title_Role"}
MAX_REDRAWS = 1000
# Fixture documents per generated document.  A fixture document has about
# 24 words, so a generated one has about 140-380 words, the length of a
# short news report.
DOC_MIN, DOC_MAX = 6, 16


@dataclass(frozen=True)
class FixtureDoc:
    text: str
    entities: list  # (id, type, start, end) in file order
    relations: list  # (id, type, arg1, arg2) in file order
    trees: list  # per tree: list of 10-column rows
    names: dict  # flat tree-token index -> (start, end) of a name token


def _conllu_rows(path: Path) -> list[list[list[str]]]:
    """The 10-column token rows of each sentence block, comments dropped."""
    trees, block = [], []
    for line in path.read_text(encoding="utf-8").splitlines() + [""]:
        if not line.strip():
            if block:
                trees.append(block)
            block = []
        elif not line.startswith("#"):
            block.append(line.split("\t"))
    return trees


def load_fixtures(corpus_dir: Path) -> list[FixtureDoc]:
    fixtures = []
    for doc, trees in load_corpus(corpus_dir):
        rows = _conllu_rows(corpus_dir / f"{doc.doc_id}.conllu")
        spans = [s for ctx in build_contexts(doc, trees) for s in ctx.tree_spans]
        flat = [row for tree in rows for row in tree]
        if len(spans) != len(flat) or any(s is None for s in spans):
            raise RuntimeError(f"fixture {doc.doc_id}: parse does not align")
        skip = [(e.start, e.end) for e in doc.entities
                if e.etype.value in NAME_SKIP_TYPES]
        names = {
            i: s for i, (row, s) in enumerate(zip(flat, spans))
            if (row[3] == "PROPN" or row[1].isdigit())
            and not any(a < s[1] and b > s[0] for a, b in skip)
        }
        fixtures.append(FixtureDoc(
            doc.text.rstrip(),
            [(e.id, e.etype.value, e.start, e.end) for e in doc.entities],
            [(r.id, r.rtype.value, r.arg1, r.arg2) for r in doc.relations],
            rows,
            names,
        ))
    if not fixtures:
        raise RuntimeError(f"no fixture documents in {corpus_dir}")
    return fixtures


def _reserved_words(fixtures: list[FixtureDoc]) -> set[str]:
    """Words a synthetic name must never spell (case-insensitive)."""
    words = {a.rstrip(".").lower() for a in ABBREVIATIONS}
    for fx in fixtures:
        words.update(t.text.lower() for t in tokenize(fx.text))
    return words


def _synthetic(word: str, rng: random.Random, reserved: set[str]) -> str:
    while True:
        out = []
        for i, ch in enumerate(word):
            if ch.isupper():
                out.append(rng.choice(string.ascii_uppercase))
            elif ch.islower():
                out.append(rng.choice(string.ascii_lowercase))
            elif ch.isdigit():
                out.append(rng.choice("123456789" if i == 0 else string.digits))
            else:
                out.append(ch)
        new = "".join(out)
        if new.lower() not in reserved:
            return new


def _renamed_copy(fx: FixtureDoc, rng: random.Random, reserved: set[str]):
    """Text with names replaced, plus the original -> synthetic words."""
    mapping: dict[str, str] = {}
    chars = list(fx.text)
    for start, end in fx.names.values():
        word = fx.text[start:end]
        if word not in mapping:
            mapping[word] = _synthetic(word, rng, reserved)
        chars[start:end] = mapping[word]
    return "".join(chars), mapping


def generate(fixtures: list[FixtureDoc], copies: int, unparsed_share: float,
             seed: int):
    """Return ({file name: bytes}, manifest) for one seeded corpus.

    Each fixture document is used ``copies`` times; ``unparsed_share`` of
    the documents are written without their ``.conllu``.
    """
    rng = random.Random(seed)
    reserved = _reserved_words(fixtures)
    slots = [i for i in range(len(fixtures)) for _ in range(copies)]
    rng.shuffle(slots)
    sizes: list[int] = []
    while sum(sizes) < len(slots):
        sizes.append(DOC_MIN + len(sizes) % (DOC_MAX - DOC_MIN + 1))
    sizes[-1] -= sum(sizes) - len(slots)
    rng.shuffle(sizes)
    groups = []
    for size in sizes:
        groups.append(slots[:size])
        slots = slots[size:]
    unparsed = set(rng.sample(range(len(groups)),
                              round(unparsed_share * len(groups))))

    seen_sentences: set[str] = set()
    files: dict[str, bytes] = {}
    totals = {"docs": len(groups), "lines": 0, "trees": 0, "entities": 0,
              "gold_relations": 0, "parsed_docs": 0}
    for gi, group in enumerate(groups):
        stem = f"g{gi:05d}"
        parts, ann, blocks = [], [], []
        offset = n_ent = n_rel = 0
        for fi in group:
            fx = fixtures[fi]
            for _ in range(MAX_REDRAWS):
                text, mapping = _renamed_copy(fx, rng, reserved)
                sents = [text[s[0].start:s[-1].end]
                         for s in sentences(tokenize(text))]
                if not seen_sentences.intersection(sents) \
                        and len(set(sents)) == len(sents):
                    break
            else:
                raise RuntimeError("cannot draw unique sentences; "
                                   "fixture has too few name tokens")
            seen_sentences.update(sents)
            totals["lines"] += len(sents)
            new_id = {}
            for eid, etype, start, end in fx.entities:
                n_ent += 1
                new_id[eid] = f"T{n_ent}"
                surface = text[start:end]
                ann.append(f"T{n_ent}\t{etype} {start + offset} "
                           f"{end + offset}\t{surface}")
            for _, rtype, arg1, arg2 in fx.relations:
                n_rel += 1
                ann.append(f"R{n_rel}\t{rtype} Arg1:{new_id[arg1]} "
                           f"Arg2:{new_id[arg2]}")
            flat_index = 0
            for tree in fx.trees:
                lines = [f"# sent_id = {len(blocks) + 1}"]
                for row in tree:
                    if flat_index in fx.names:
                        new = mapping[row[1]]
                        row = [row[0], new, new] + row[3:]
                    lines.append("\t".join(row))
                    flat_index += 1
                blocks.append("".join(line + "\n" for line in lines))
            parts.append(text)
            offset += len(text) + 2  # the "\n\n" paragraph break
        totals["entities"] += n_ent
        totals["gold_relations"] += n_rel
        files[f"{stem}.txt"] = ("\n\n".join(parts) + "\n").encode("utf-8")
        files[f"{stem}.ann"] = "".join(l + "\n" for l in ann).encode("utf-8")
        if gi not in unparsed:
            totals["parsed_docs"] += 1
            totals["trees"] += len(blocks)
            files[f"{stem}.conllu"] = "\n".join(blocks).encode("utf-8")
    totals["parsed_share"] = totals["parsed_docs"] / max(1, totals["docs"])
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8") + b"\0" + files[name])
    manifest = dict(totals, seed=seed, sha256=digest.hexdigest())
    return files, manifest


def write_corpus(files: dict[str, bytes], corpus_dir: Path) -> None:
    corpus_dir.mkdir(parents=True)
    for name, data in files.items():
        (corpus_dir / name).write_bytes(data)


def self_check(corpus_dir: Path, manifest: dict) -> list[str]:
    """Problems with a written corpus; an empty list means it is sound.

    Every document must load through ``load_corpus``, every tree must
    align with zero unaligned tokens, no two sentences may be textually
    identical, and the counts must match the manifest.
    """
    problems = []
    entries = load_corpus(corpus_dir)
    counts = {"docs": len(entries), "lines": 0, "trees": 0, "entities": 0,
              "gold_relations": 0, "parsed_docs": 0}
    seen: set[str] = set()
    for doc, trees in entries:
        counts["entities"] += len(doc.entities)
        counts["gold_relations"] += len(doc.relations)
        counts["trees"] += len(trees)
        counts["parsed_docs"] += bool(trees)
        for sent in sentences(tokenize(doc.text)):
            counts["lines"] += 1
            sent_text = doc.text[sent[0].start:sent[-1].end]
            if sent_text in seen:
                problems.append(f"{doc.doc_id}: repeated sentence {sent_text!r}")
            seen.add(sent_text)
        if trees:
            unaligned = sum(s is None for ctx in build_contexts(doc, trees)
                            for s in ctx.tree_spans)
            if unaligned:
                problems.append(f"{doc.doc_id}: {unaligned} unaligned tree tokens")
    for key, value in counts.items():
        if manifest[key] != value:
            problems.append(f"manifest {key}={manifest[key]} but corpus has {value}")
    return problems
