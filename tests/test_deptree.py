import random
from collections import deque

import pytest

from unitgraph.deptree import (
    PathError,
    PathPattern,
    Step,
    align_to_text,
    shortest_path,
    span_path,
)

from conftest import tree_from_heads

LABELS = ("nsubj", "obj", "nmod", "flat", "case", "conj")


def random_tree(rng, n):
    """Random recursive tree: node i > 0 hangs off a uniform earlier node."""
    arcs = [(rng.randrange(i), rng.choice(LABELS)) for i in range(1, n)]
    return tree_from_heads([f"w{i}" for i in range(n)],
                           [-1] + [head for head, _ in arcs],
                           ["root"] + [label for _, label in arcs])


def tokens(tree):
    return range(len(tree.heads))


def reversed_path(path):
    """The same walk taken from its other end: steps in reverse order, each
    with its direction flipped."""
    return PathPattern(tuple(Step(s.label, "down" if s.direction == "up" else "up")
                             for s in reversed(path.steps)))


def bfs_distance(tree, a, b):
    """Independent oracle: undirected breadth-first distance."""
    adj = {i: set() for i in tokens(tree)}
    for dep, head in enumerate(tree.heads):
        if head != -1:
            adj[head].add(dep)
            adj[dep].add(head)
    seen = {a: 0}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            return seen[node]
        for nxt in adj[node]:
            if nxt not in seen:
                seen[nxt] = seen[node] + 1
                queue.append(nxt)
    raise AssertionError("disconnected tree")


class TestShortestPath:
    def test_identity_is_empty(self):
        tree = random_tree(random.Random(0), 5)
        path = shortest_path(tree, 3, 3)
        assert path.length == 0 and path.steps == ()

    def test_single_edge(self):
        # token 2 heads token 1 via "flat"; root is token 2 (0-based: 1)
        tree = tree_from_heads(["General", "Adeosun"], [1, -1], ["flat", "root"])
        path = shortest_path(tree, 0, 1)
        assert path.steps == (Step("flat", "up"),)
        assert shortest_path(tree, 1, 0).steps == (Step("flat", "down"),)

    def test_matches_bfs_oracle_on_random_trees(self):
        rng = random.Random(1234)
        for _ in range(50):
            tree = random_tree(rng, rng.randint(2, 15))
            for a in tokens(tree):
                for b in tokens(tree):
                    assert shortest_path(tree, a, b).length == bfs_distance(tree, a, b)

    def test_reverse_flips_steps(self):
        rng = random.Random(99)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(2, 12))
            a, b = rng.sample(tokens(tree), 2)
            assert shortest_path(tree, b, a) == reversed_path(shortest_path(tree, a, b))

    def test_unknown_token_raises(self):
        # -1 indexes a list from its end and 4 is len(heads): neither is a token
        tree = random_tree(random.Random(0), 4)
        for tok in (9, -1, 4):
            with pytest.raises(PathError):
                shortest_path(tree, 0, tok)


def reference_span_path(tree, a, b):
    """``span_path`` as an all-pairs loop: every token pair's path is built
    and the shortest kept, ties going to the leftmost tokens of ``a``, then
    of ``b``."""
    if not a or not b:
        raise PathError("entity has no token in this sentence's tree")
    best = best_path = None
    for ta in sorted(a):
        for tb in sorted(b):
            path = shortest_path(tree, ta, tb)
            key = (path.length, ta, tb)
            if best is None or key < best:
                best, best_path = key, path
    return best_path


def shuffled_tree(rng, n):
    """``random_tree`` with its tokens renumbered, so the root and the heads
    fall anywhere in the sentence."""
    tree = random_tree(rng, n)
    ids = list(range(n))
    rng.shuffle(ids)
    heads, labels = [-1] * n, ["root"] * n
    for dep, (head, label) in enumerate(zip(tree.heads, tree.labels)):
        if head != -1:
            heads[ids[dep]], labels[ids[dep]] = ids[head], label
    return tree_from_heads(tree.forms, heads, labels)


class TestSpanPath:
    def test_matches_all_pairs_reference_on_random_trees(self):
        rng = random.Random(9152)
        for _ in range(300):
            n = rng.randint(1, 16)
            tree = shuffled_tree(rng, n)
            a = set(rng.sample(tokens(tree), rng.randint(1, min(n, 4))))
            b = set(rng.sample(tokens(tree), rng.randint(1, min(n, 4))))
            assert span_path(tree, a, b) == reference_span_path(tree, a, b)
            unknown = rng.choice([a, b, set()]) | {n + rng.randint(0, 3)}
            # -1 indexes a list from its end but names no token
            for pair in ((unknown, b), (a, unknown), ({-1}, b)):
                for fn in (span_path, reference_span_path):
                    with pytest.raises(PathError):
                        fn(tree, *pair)

    def test_singletons_match_shortest_path(self):
        rng = random.Random(7)
        tree = random_tree(rng, 10)
        for a in tokens(tree):
            for b in tokens(tree):
                assert span_path(tree, {a}, {b}) == shortest_path(tree, a, b)

    def test_takes_minimum_over_pairs(self):
        # chain 0-1-2-3-4-...-9; dist(4,9)=5, dist(3,9)=6
        tree = tree_from_heads([f"w{i}" for i in range(10)], [-1, *range(9)],
                               ["root"] + ["conj"] * 9)
        best = span_path(tree, {3, 4}, {9})
        # oracle: enumerate all pairs with BFS
        lengths = {(a, b): bfs_distance(tree, a, b) for a in (3, 4) for b in (9,)}
        assert best.length == min(lengths.values()) == 5

    def test_overlapping_sets_have_zero_length(self):
        tree = random_tree(random.Random(3), 8)
        assert span_path(tree, {2, 3}, {3, 5}).length == 0

    def test_empty_set_raises(self):
        tree = random_tree(random.Random(3), 4)
        with pytest.raises(PathError, match="no token"):
            span_path(tree, set(), {1})

    def test_length_symmetry_random_sets(self):
        rng = random.Random(42)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(3, 14))
            a = set(rng.sample(tokens(tree), rng.randint(1, 3)))
            b = set(rng.sample(tokens(tree), rng.randint(1, 3)))
            assert span_path(tree, a, b).length == span_path(tree, b, a).length

    def test_min_length_equals_pairwise_bfs_min(self):
        rng = random.Random(4242)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(3, 14))
            a = set(rng.sample(tokens(tree), rng.randint(1, 3)))
            b = set(rng.sample(tokens(tree), rng.randint(1, 3)))
            oracle = min(bfs_distance(tree, x, y) for x in a for y in b)
            assert span_path(tree, a, b).length == oracle


class TestPatternKeys:
    def test_directed_and_undirected_keys(self):
        tree = tree_from_heads(["a", "b", "c"], [1, -1, 1], ["nsubj", "root", "obj"])
        path = shortest_path(tree, 0, 2)
        assert path.key() == "nsubj↑|obj↓"
        assert path.key(directed=False) == "nsubj|obj"
        assert path.render() == "nsubj↑ obj↓"

    def test_empty_pattern_key(self):
        tree = tree_from_heads(["a"], [-1])
        assert shortest_path(tree, 0, 0).key() == ""


class TestAlignToText:
    def test_sequential_alignment(self):
        tree = tree_from_heads(
            ["the", "army", "said", "the", "army", "moved"],
            [1, 2, -1, 4, 5, 2],
            ["det", "nsubj", "root", "det", "nsubj", "ccomp"],
        )
        text = "the army said the army moved"
        spans = align_to_text(tree, text)
        assert spans == [(0, 3), (4, 8), (9, 13), (14, 17), (18, 22), (23, 28)]

    def test_missing_form_yields_none(self):
        tree = tree_from_heads(["alpha", "beta"], [-1, 0])
        spans = align_to_text(tree, "alpha gamma")
        assert spans == [(0, 5), None]
