"""Per-sentence dependency trees and shortest paths between token spans."""

from __future__ import annotations

from typing import NamedTuple


class PathError(ValueError):
    """Raised when a path query names tokens that are not in the tree."""


class Step(NamedTuple):
    label: str
    direction: str  # "up" = dependent->head, "down" = head->dependent


class PathPattern(NamedTuple):
    """The labeled, directed walk between two tokens of one tree."""

    steps: tuple[Step, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def key(self, directed: bool = True) -> str:
        """Stable string form, used as the pattern-vocabulary key."""
        if directed:
            return "|".join(
                f"{s.label}{'↑' if s.direction == 'up' else '↓'}" for s in self.steps
            )
        return "|".join(s.label for s in self.steps)

    def render(self) -> str:
        return " ".join(
            f"{s.label}{'↑' if s.direction == 'up' else '↓'}" for s in self.steps
        ) or "<same token>"


class DepTree(NamedTuple):
    """A dependency tree over the tokens of one sentence, as CoNLL-U gives it.

    Token indices are 0-based positions within the sentence.  ``heads[i]``
    is token ``i``'s head, or -1 for the root, and ``labels[i]`` labels
    that arc.  ``parse_conllu`` checks that the heads form a tree.
    """

    forms: list[str]
    heads: list[int]
    labels: list[str]


def _ancestry(heads: list[int], tok: int) -> list[int]:
    chain = [tok]
    while heads[chain[-1]] >= 0:
        chain.append(heads[chain[-1]])
    return chain


def shortest_path(tree: DepTree, from_tok: int, to_tok: int) -> PathPattern:
    """The unique tree path between two tokens.

    Up steps traverse dependent->head, down steps head->dependent; a token
    paired with itself yields the empty pattern.
    """
    heads, labels = tree.heads, tree.labels
    for tok in (from_tok, to_tok):
        if not 0 <= tok < len(heads):
            raise PathError(f"token {tok} is not in the tree")
    if from_tok == to_tok:
        return PathPattern(())
    up_a = _ancestry(heads, from_tok)
    depth_a = {node: i for i, node in enumerate(up_a)}
    up_b = _ancestry(heads, to_tok)
    lca = next(node for node in up_b if node in depth_a)
    steps = [Step(labels[node], "up") for node in up_a[: depth_a[lca]]]
    down_chain = up_b[: up_b.index(lca)]
    steps.extend(Step(labels[node], "down") for node in reversed(down_chain))
    return PathPattern(tuple(steps))


def _distance(heads: list[int], up: dict[int, int], tok: int) -> int:
    """Edges between ``tok`` and the token whose ancestors ``up`` maps to
    their distances from it: climb from ``tok`` to the first of them."""
    steps = 0
    while tok not in up:
        tok = heads[tok]
        steps += 1
    return steps + up[tok]


def span_path(tree: DepTree, a: set[int], b: set[int]) -> PathPattern:
    """Minimum-length path over all token pairs of two entity spans.

    Ties break on (leftmost token of ``a``, then leftmost token of ``b``)
    for reproducibility.  Only the winning pair's path is built.
    """
    if not a or not b:
        raise PathError("entity has no token in this sentence's tree")
    if len(a) == 1 and len(b) == 1:
        return shortest_path(tree, *a, *b)
    heads = tree.heads
    unknown = [tok for tok in a | b if not 0 <= tok < len(heads)]
    if unknown:
        raise PathError(f"token {min(unknown)} is not in the tree")
    ups = [(ta, {node: i for i, node in enumerate(_ancestry(heads, ta))}) for ta in a]
    _, ta, tb = min((_distance(heads, up, tb), ta, tb) for ta, up in ups for tb in b)
    return shortest_path(tree, ta, tb)


def align_to_text(tree: DepTree, text: str, start: int = 0) -> list[tuple[int, int] | None]:
    """Locate each token form in ``text``, scanning left to right.

    Returns one (start, end) character span per token, or ``None`` when a
    form cannot be found after the previous match (the cursor then stays
    put so later tokens can still align).
    """
    spans: list[tuple[int, int] | None] = []
    cursor = start
    for form in tree.forms:
        idx = text.find(form, cursor)
        if idx < 0:
            spans.append(None)
            continue
        spans.append((idx, idx + len(form)))
        cursor = idx + len(form)
    return spans
