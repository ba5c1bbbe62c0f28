"""Per-sentence dependency trees and shortest paths between token spans."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


@dataclass
class DepTree:
    """A dependency tree over the tokens of one sentence.

    Token indices are 0-based positions within the sentence.  ``edges``
    holds (head, dependent, label) triples; the root has no incoming edge.
    """

    sent_index: int
    forms: list[str]
    edges: list[tuple[int, int, str]]
    root: int
    nodes: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.nodes:
            self.nodes = list(range(len(self.forms)))
        # parent map: dependent -> (head, label)
        self.parent: dict[int, tuple[int, str]] = {
            dep: (head, label) for head, dep, label in self.edges
        }

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def depth(self) -> dict[int, int]:
        """Edges from each token of the tree up to the root, computed once."""
        return {tok: len(_ancestry(self, tok)) - 1 for tok in (self.root, *self.parent)}

    def is_tree(self) -> bool:
        n = len(self.nodes)
        if len(self.edges) != n - 1 or self.root not in self.nodes:
            return False
        children: dict[int, list[int]] = {i: [] for i in self.nodes}
        for head, dep, _ in self.edges:
            if head not in children or dep not in children:
                return False
            children[head].append(dep)
        seen = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                return False
            seen.add(node)
            stack.extend(children[node])
        return len(seen) == n


def _ancestry(tree: DepTree, tok: int) -> list[int]:
    chain = [tok]
    while chain[-1] in tree.parent:
        chain.append(tree.parent[chain[-1]][0])
    return chain


def shortest_path(tree: DepTree, from_tok: int, to_tok: int) -> PathPattern:
    """The unique tree path between two tokens.

    Up steps traverse dependent->head, down steps head->dependent; a token
    paired with itself yields the empty pattern.
    """
    for tok in (from_tok, to_tok):
        if tok not in tree.parent and tok != tree.root:
            raise PathError(f"token {tok} is not in the tree")
    if from_tok == to_tok:
        return PathPattern(())
    up_a = _ancestry(tree, from_tok)
    depth_a = {node: i for i, node in enumerate(up_a)}
    up_b = _ancestry(tree, to_tok)
    lca = next(node for node in up_b if node in depth_a)
    steps = [
        Step(tree.parent[node][1], "up") for node in up_a[: depth_a[lca]]
    ]
    down_chain = up_b[: up_b.index(lca)]
    steps.extend(Step(tree.parent[node][1], "down") for node in reversed(down_chain))
    return PathPattern(tuple(steps))


def _distance(tree: DepTree, x: int, y: int) -> int:
    """Edges between two tokens: their depths less twice their common ancestor's."""
    depth, parent = tree.depth, tree.parent
    total = depth[x] + depth[y]
    while x != y:
        if depth[x] < depth[y]:
            x, y = y, x
        x = parent[x][0]
    return total - 2 * depth[x]


def span_path(tree: DepTree, a: set[int], b: set[int]) -> PathPattern:
    """Minimum-length path over all token pairs of two entity spans.

    Ties break on (leftmost token of ``a``, then leftmost token of ``b``)
    for reproducibility.  Only the winning pair's path is built.
    """
    if not a or not b:
        raise PathError("entity has no token in this sentence's tree")
    if len(a) == 1 and len(b) == 1:
        return shortest_path(tree, *a, *b)
    unknown = (a | b) - tree.depth.keys()
    if unknown:
        raise PathError(f"token {min(unknown)} is not in the tree")
    _, ta, tb = min((_distance(tree, ta, tb), ta, tb) for ta in a for tb in b)
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
