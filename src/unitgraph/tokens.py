"""Sentence/token segmentation and the IOB tag codec.

The tokenizer is deliberately rule-based and deterministic: reproducible
offsets matter more here than linguistic perfection.  Sentences end at
``.``/``!``/``?`` followed by whitespace and a capital letter (guarded by
an abbreviation list), and at blank lines.  Punctuation is split from
words; hyphenated words stay whole; abbreviations and single-letter
initials keep their period.
"""

from __future__ import annotations

import logging
import re
from typing import NamedTuple

from .corpus import EntitySpan, EntityType
from .errors import DataError

log = logging.getLogger(__name__)

ABBREVIATIONS = (
    "Mrs.", "Mr.", "Dr.", "Gen.", "Maj.", "Lt.", "Col.", "Brig.",
    "Capt.", "Sgt.", "St.", "vs.",
)

_TOKEN_RE = re.compile(
    "|".join(re.escape(a) for a in ABBREVIATIONS)
    + r"|[A-Z]\."
    + r"|[A-Za-z0-9]+(?:[-'’][A-Za-z0-9]+)*"
    + r"|\S"
)

_GUARD_RE = re.compile(r"([A-Za-z]+\.)$")
_PARAGRAPH_RE = re.compile(r"\n[ \t\r]*\n")  # a blank line, CRLF or LF
# a run of sentence-ending punctuation and the whitespace after it
_END_RE = re.compile(r"([.!?]+)\s*")


class Token(NamedTuple):
    """One token: a named tuple, so it is immutable and cheap to build."""

    text: str
    start: int
    end: int
    sent_index: int
    tok_index: int


ETYPE_TO_LABEL = {
    EntityType.PERSON: "PER",
    EntityType.ORGANIZATION: "ORG",
    EntityType.RANK: "RNK",
    EntityType.TITLE_ROLE: "TTL",
}
# a tag is its name: O, then B-X and I-X for each label X.  The order is
# part of every output, since the decoder breaks ties on the lowest index
TAGSET: tuple[str, ...] = ("O",) + tuple(
    f"{p}-{label}" for label in ETYPE_TO_LABEL.values() for p in ("B", "I")
)
LABEL_TO_ETYPE = {v: k for k, v in ETYPE_TO_LABEL.items()}


def _guarded(text: str, dot: int) -> bool:
    """True when the period at ``dot`` ends an abbreviation or initial."""
    m = _GUARD_RE.search(text, max(0, dot - 12), dot + 1)
    if not m or m.end() != dot + 1:
        return False
    word = m.group(1)
    return word in ABBREVIATIONS or re.fullmatch(r"[A-Z]\.", word) is not None


def _sentence_spans(text: str) -> list[tuple[int, int]]:
    """Sentence extents: paragraphs split at blank lines, and each paragraph
    at a run of ``.``/``!``/``?`` followed by whitespace and an upper-case
    letter, unless the run is one period ending an abbreviation or initial.
    """
    paragraphs = []
    pos = 0
    for m in _PARAGRAPH_RE.finditer(text):
        paragraphs.append((pos, m.start()))
        pos = m.end()
    paragraphs.append((pos, len(text)))

    spans = []
    for pstart, pend in paragraphs:
        sent_start = pstart
        for m in _END_RE.finditer(text, pstart, pend):
            i, j, k = m.start(), m.end(1), m.end()
            if (k > j and k < pend and text[k].isupper()
                    and not (j == i + 1 and text[i] == "." and _guarded(text, i))):
                spans.append((sent_start, j))
                sent_start = k
        if sent_start < pend:
            spans.append((sent_start, pend))
    return [(s, e) for s, e in spans if text[s:e].strip()]


def tokenize(text: str) -> list[Token]:
    """Segment text into sentences and offset-bearing tokens."""
    tokens: list[Token] = []
    for sent_index, (start, end) in enumerate(_sentence_spans(text)):
        for tok_index, m in enumerate(_TOKEN_RE.finditer(text, start, end)):
            tokens.append(Token(m.group(), m.start(), m.end(), sent_index, tok_index))
    return tokens


def sentences(tokens: list[Token]) -> list[list[Token]]:
    """Group a token stream by sentence index, preserving order."""
    out: list[list[Token]] = []
    for tok in tokens:
        if not out or out[-1][0].sent_index != tok.sent_index:
            out.append([])
        out[-1].append(tok)
    return out


def spans_to_iob(tokens: list[Token], entities: list[EntitySpan]) -> list[str]:
    """Tag each token with B-X/I-X/O against a set of entity spans.

    Entity boundaries that cut a token are expanded outward to token
    boundaries with a warning; overlapping entities (after alignment) and
    entities covering no token are errors.
    """
    tags = ["O"] * len(tokens)
    claimed: dict[int, str] = {}
    for ent in sorted(entities, key=lambda e: (e.start, e.end)):
        idxs = [
            i for i, t in enumerate(tokens) if t.start < ent.end and t.end > ent.start
        ]
        if not idxs:
            raise DataError(
                f"entity {ent.id} {ent.surface!r} [{ent.start},{ent.end}) "
                "does not intersect any token"
            )
        for i in idxs:
            if i in claimed:
                raise DataError(
                    f"entities {claimed[i]} and {ent.id} overlap on token "
                    f"{tokens[i].text!r}"
                )
            claimed[i] = ent.id
        first, last = tokens[idxs[0]], tokens[idxs[-1]]
        if first.start < ent.start or last.end > ent.end:
            log.warning(
                "entity %s [%d,%d) expanded to token boundaries [%d,%d)",
                ent.id, ent.start, ent.end, first.start, last.end,
            )
        label = ETYPE_TO_LABEL[ent.etype]
        tags[idxs[0]] = f"B-{label}"
        for i in idxs[1:]:
            tags[i] = f"I-{label}"
    return tags


def iob_to_spans(
    tokens: list[Token],
    tags: list[str],
    text: str,
    first_id: int = 1,
) -> list[EntitySpan]:
    """Decode a tag sequence back into entity spans, their surfaces sliced
    from ``text``, the text the tokens came from.

    Stray ``I-X`` (sentence-initial, after O, or after a different label)
    opens a new span, the usual CoNLL repair.
    """
    if len(tokens) != len(tags):
        raise DataError(f"{len(tokens)} tokens vs {len(tags)} tags")
    runs: list[tuple[int, int, str]] = []  # each span's first and last token, I- tag
    first = -1  # the first token of the open run, or -1
    inside = sent = None  # the tag that continues the open run, and its sentence index
    for i, tag in enumerate(tags):
        if tag == "O":
            if first >= 0:
                runs.append((first, i - 1, inside))
                first = -1
            continue
        # a run never crosses a sentence, so its sentence is the last token's
        if first >= 0 and tag == inside and tokens[i].sent_index == sent:
            continue
        if first >= 0:
            runs.append((first, i - 1, inside))
        first, inside, sent = i, f"I-{tag[2:]}", tokens[i].sent_index
    if first >= 0:
        runs.append((first, len(tags) - 1, inside))

    spans: list[EntitySpan] = []
    for first, last, inside in runs:
        start, end = tokens[first].start, tokens[last].end
        spans.append(EntitySpan(f"T{first_id + len(spans)}", LABEL_TO_ETYPE[inside[2:]],
                                start, end, text[start:end]))
    return spans


def valid_transition(prev: str, nxt: str) -> bool:
    """May tag ``nxt`` follow tag ``prev``?  Sentence-initial positions pass O.

    An I-X tag is only reachable from B-X or I-X of the same label.
    """
    return not nxt.startswith("I-") or prev[2:] == nxt[2:]


def format_iob_block(tokens: list[Token], tags: list[str], width: int = 58) -> str:
    """Two-row token/tag rendering, wrapped into blocks."""
    lines = []
    i = 0
    while i < len(tokens):
        row_toks: list[str] = []
        row_tags: list[str] = []
        used = 0
        while i < len(tokens):
            cell = max(len(tokens[i].text), len(tags[i]))
            if row_toks and used + cell + 1 > width:
                break
            row_toks.append(tokens[i].text.ljust(cell))
            row_tags.append(tags[i].ljust(cell))
            used += cell + 1
            i += 1
        lines.append(" ".join(row_toks).rstrip())
        lines.append(" ".join(row_tags).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
