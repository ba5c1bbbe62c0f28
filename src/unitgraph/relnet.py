"""Feedforward relation classifier over dependency-path patterns.

For each non-Person entity the input holds, per candidate Person, the
dependency path's pattern (a one-hot row) and its length, and a small
one-hot for the entity's type.  The first-layer weights for the
per-Person blocks are shared; a dense layer plus softmax then either
picks one of the K candidate slots ("select_k") or one of
left-flank/right-flank/other ("constrained3").  The classifier may
abstain: a prediction that names no actual Person yields no relation.

Inference runs on plain Python floats, so ``extract`` and ``evaluate``
never load numpy for it: a model's weights are immutable float rows,
``featurize`` gives each slot's (pattern row, path length), and
``forward`` scores one pair, keeping each slot's share of the logits on
the model (``RelNetModel.replace`` copies a model with other weights and
an empty memo).  Training alone uses numpy: ``build_dataset`` expands the
features into dense arrays and ``train`` hands its weights back as rows.
Random draws, for ``init_model``'s weights and ``train``'s epoch order,
come from ``random.Random(seed)``, as the tagger's and the split's do, so
no command loads ``numpy.random``.
"""

from __future__ import annotations

import math
import random
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .corpus import Document, EntitySpan, EntityType
from .deptree import DepTree, PathPattern
from .errors import MissingParseError, ModelFileError, read_model_lines, read_weight
from .relations import (
    NETWORKS,
    Attachment,
    SentenceContext,
    _sdp_best,
    build_contexts,
    flanking_persons,
    gold_pairs,
    type_map,
)

if TYPE_CHECKING:  # numpy loads at the first call that needs it
    import numpy as np

MAX_PERSONS = 7  # candidate slots per sentence
TYPE_ORDER = (EntityType.ORGANIZATION, EntityType.RANK, EntityType.TITLE_ROLE)
MODEL_MAGIC = "unitgraph-relnet 1"


def output_width(mode: str, k: int) -> int:
    """Output width: one unit per candidate slot, or the three flank classes."""
    return k if mode == "select_k" else 3


class PatternVocab(NamedTuple):
    """Dense index over path-pattern keys; rare patterns share ``unknown``.

    Keys keep each step's up/down direction when ``directed``; fixed at
    build time, so lookups always use the key form training used.
    """

    index: dict[str, int]
    min_count: int
    unknown_index: int
    directed: bool = True

    @property
    def size(self) -> int:
        return len(self.index) + 1

    def lookup(self, key: str) -> int:
        return self.index.get(key, self.unknown_index)


def build_vocab(
    patterns: Iterable[PathPattern], min_count: int = 2, directed: bool = True
) -> PatternVocab:
    """Index patterns seen at least ``min_count`` times, sorted by key."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: dict[str, int] = {}
    for p in patterns:
        key = p.key(directed)
        counts[key] = counts.get(key, 0) + 1
    kept = sorted(k for k, c in counts.items() if c >= min_count)
    return PatternVocab(
        index={k: i for i, k in enumerate(kept)},
        min_count=min_count,
        unknown_index=len(kept),
        directed=directed,
    )


class RelCandidateFeatures(NamedTuple):
    """Network input for one (target entity, sentence) pair.

    ``slots[i]`` is the i-th Person's (pattern row, path length), or None
    for an absent Person or one with no path; ``type_index`` is the
    target's type's place in ``TYPE_ORDER``.
    """

    slots: tuple[tuple[int, int] | None, ...]  # k entries
    type_index: int
    truncated: bool = False


def featurize(
    ctx: SentenceContext,
    target: EntitySpan,
    vocab: PatternVocab,
    k: int = MAX_PERSONS,
) -> RelCandidateFeatures:
    """Per-Person path features for a target entity, in sentence order.

    Persons beyond the first ``k`` are dropped (flagged via ``truncated``);
    Persons or targets without aligned tree tokens leave empty slots.
    """
    if ctx.tree is None:
        raise MissingParseError("sentence has no dependency tree")
    slots: list[tuple[int, int] | None] = [None] * k
    for i, person in enumerate(ctx.persons[:k]):
        path = ctx.path(target, person)
        if path is not None:
            slots[i] = (vocab.lookup(path.key(vocab.directed)), path.length)
    return RelCandidateFeatures(tuple(slots), TYPE_ORDER.index(target.etype),
                                len(ctx.persons) > k)


Rows = tuple[tuple[float, ...], ...]


class RelNetModel:
    """Weights for the two-layer network, as float rows; W1 is shared
    across slots.  ``train`` sets a model's weights and ``loss_curve`` in
    place.  A model's memo of logit shares (``forward``) holds for the
    weights it has: give a model other weights with ``replace``, which
    starts an empty memo.  Two models are equal when all but their memos
    are."""

    _FIELDS = ("mode", "k", "hidden", "vocab_size", "W1", "b1", "W2", "b2", "W3", "b3",
               "length_scale", "hyper", "loss_curve")
    __slots__ = (*_FIELDS, "shares")

    def __init__(self, mode: str, k: int, hidden: int, vocab_size: int,
                 W1: Rows, b1: tuple[float, ...], W2: Rows, b2: tuple[float, ...],
                 W3: Rows, b3: tuple[float, ...], length_scale: float = 0.1,
                 hyper: dict | None = None, loss_curve: list[float] | None = None):
        self.mode = mode  # "select_k" or "constrained3"
        self.k = k
        self.hidden = hidden
        self.vocab_size = vocab_size
        self.W1 = W1  # vocab_size + 1 rows of hidden
        self.b1 = b1  # hidden
        self.W2 = W2  # 3 rows of hidden
        self.b2 = b2  # hidden
        self.W3 = W3  # k * hidden + hidden rows of out_dim
        self.b3 = b3  # out_dim
        self.length_scale = length_scale
        self.hyper = {} if hyper is None else hyper
        self.loss_curve = [] if loss_curve is None else loss_curve
        # each block's share of the logits, by (block, its input): see ``_share``
        self.shares: dict = {}

    def replace(self, **changes) -> RelNetModel:
        """A new model with the fields in ``changes`` (weights, say) in place
        of this one's, the others shared with it, and an empty memo."""
        return RelNetModel(**{**{name: getattr(self, name) for name in self._FIELDS},
                              **changes})

    def __eq__(self, other):
        if type(other) is not RelNetModel:
            return NotImplemented
        return (tuple(getattr(self, name) for name in self._FIELDS)
                == tuple(getattr(other, name) for name in self._FIELDS))

    def __repr__(self) -> str:
        return "RelNetModel(" + ", ".join(f"{name}={getattr(self, name)!r}"
                                          for name in self._FIELDS) + ")"

    @property
    def out_dim(self) -> int:
        return output_width(self.mode, self.k)

    def param_count(self) -> int:
        # W1, b1, W2 and b2 have (vocab_size + 6) rows of hidden; W3 and b3
        # have (k + 1) * hidden + 1 rows of out_dim
        return ((self.vocab_size + 6) * self.hidden
                + ((self.k + 1) * self.hidden + 1) * self.out_dim)

    def params(self) -> dict[str, Rows | tuple[float, ...]]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2,
                "W3": self.W3, "b3": self.b3}

    def choose(self, pairs: list[tuple[SentenceContext, EntitySpan]],
               vocab: PatternVocab) -> list[EntitySpan | None]:
        """Each (context, target) pair's Person, or None: the first
        maximum of ``forward`` on its ``featurize`` features.

        select_k: the argmax slot, abstaining when it names no actual Person.
        constrained3: left flank / right flank / best non-flank by shortest
        dependency path, abstaining when the chosen class has no Person.
        Path patterns are keyed the way ``vocab`` was built.
        """
        out = []
        for ctx, target in pairs:
            probs = forward(self, featurize(ctx, target, vocab, self.k))
            choice = probs.index(max(probs))  # the first maximum
            if self.mode == "select_k":
                candidates = ctx.persons[: self.k]
                out.append(candidates[choice] if choice < len(candidates) else None)
            elif choice < 2:  # the left or the right flank
                out.append(flanking_persons(ctx, target)[choice])
            else:
                left, right = flanking_persons(ctx, target)
                others = [p for p in ctx.persons if p is not left and p is not right]
                out.append(_sdp_best(ctx, target, others))
        return out


def _share(model: RelNetModel, block: int, value) -> list[float]:
    """One block of the hidden layer's part of the logits: block ``i < k``
    is slot i, whose ``value`` is its (pattern row, path length) or None,
    and block ``k`` is the type layer, whose ``value`` is the type index.
    Each output adds its terms in hidden-unit order."""
    if block == model.k:  # the type one-hot picks a W2 row
        pre = [w + b for w, b in zip(model.W2[value], model.b2)]
    elif value is None:  # an empty slot: the first layer's bias alone
        pre = model.b1
    else:
        row, length = value
        if not 0 <= row < model.vocab_size:
            raise ValueError(f"pattern row {row} does not match the model's "
                             f"vocab_size of {model.vocab_size}")
        scaled = length * model.length_scale  # comparable to one-hots
        pre = [w + scaled * v + b
               for w, v, b in zip(model.W1[row], model.W1[-1], model.b1)]
    out = [0.0] * model.out_dim
    for weights, a in zip(model.W3[block * model.hidden:], pre):
        if a > 0.0:  # the ReLU: a unit at 0 adds nothing
            for o, w in enumerate(weights):
                out[o] += a * w
    return out


def forward(model: RelNetModel, feats: RelCandidateFeatures) -> tuple[float, ...]:
    """Probabilities over the K slots (or the 3 constrained classes) of
    one pair, in plain floats.  Each logit adds the slots' shares in slot
    order, then the type's share, then ``b3``; a share is computed once
    per model and (block, value) and kept in ``model.shares``."""
    if len(feats.slots) != model.k:
        raise ValueError(f"{len(feats.slots)} feature slots does not match the "
                         f"model's k of {model.k}")
    shares = model.shares
    z = None
    for key in (*enumerate(feats.slots), (model.k, feats.type_index)):
        share = shares.get(key)
        if share is None:
            share = shares[key] = _share(model, *key)
        z = share if z is None else list(map(add, z, share))
    z = list(map(add, z, model.b3))
    top = max(z)
    e = [math.exp(v - top) for v in z]
    total = 0.0  # in output order; sum() compensates floats from Python 3.12
    for v in e:
        total += v
    return tuple([v / total for v in e])


def _rows(a: np.ndarray) -> Rows | tuple[float, ...]:
    """An array's values as float rows: a tuple of row tuples for a matrix,
    one tuple for a vector (``tolist`` keeps every bit)."""
    values = a.tolist()
    return tuple(map(tuple, values)) if a.ndim == 2 else tuple(values)


def init_model(
    mode: str,
    vocab_size: int,
    k: int = MAX_PERSONS,
    hidden: int = 8,
    seed: int = 13,
    length_scale: float = 0.1,
) -> RelNetModel:
    if mode not in {net.mode for net in NETWORKS.values()}:
        raise ValueError(f"unknown mode {mode!r}")
    r = random.Random(seed).random

    def normal_rows(rows: int, cols: int) -> Rows:
        """0.1 times Irwin-Hall draws, as rows: 12 uniforms added left to
        right, less 6, so only ``+`` and ``*`` (no libm, no sum()) make them."""
        return tuple(tuple(0.1 * (r() + r() + r() + r() + r() + r() + r() + r()
                                  + r() + r() + r() + r() - 6.0)
                           for _ in range(cols)) for _ in range(rows))

    width = output_width(mode, k)
    return RelNetModel(
        mode=mode,
        k=k,
        hidden=hidden,
        vocab_size=vocab_size,
        W1=normal_rows(vocab_size + 1, hidden),
        b1=(0.0,) * hidden,
        W2=normal_rows(3, hidden),
        b2=(0.0,) * hidden,
        W3=normal_rows(k * hidden + hidden, width),
        b3=(0.0,) * width,
        length_scale=length_scale,
        hyper={"seed": seed},
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    import numpy as np
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _scaled(model: RelNetModel, X: np.ndarray) -> np.ndarray:
    """A copy of ``X`` with the path-length column scaled by ``length_scale``."""
    Xs = X.copy()
    Xs[..., -1] *= model.length_scale  # keep length comparable to one-hots
    return Xs


def _layout(models: list[RelNetModel]) -> list[np.ndarray]:
    """The parameters of networks stepped together, in their flat order:
    W1, b1, W2, b2 and b3 stacked over the networks, b3 padded to the widest
    by -inf (so padded logits are -inf), then each network's own W3."""
    import numpy as np
    b3 = np.full((len(models), max(m.out_dim for m in models)), -np.inf)
    for row, model in zip(b3, models):
        row[:model.out_dim] = model.b3
    return [*(np.stack([getattr(m, name) for m in models])
              for name in ("W1", "b1", "W2", "b2")), b3,
            *(np.array(m.W3) for m in models)]


def _pieces(buffer: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive pieces of a flat buffer shaped like ``arrays``."""
    import numpy as np
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return [buffer[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _joint_step(params: list[np.ndarray], grads: list[np.ndarray], Xs: np.ndarray,
                T: np.ndarray, Y: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Forward and backward pass of networks that share their input, on one
    batch: returns the stacked probabilities (``_losses`` reads the loss
    from them) and writes each gradient into ``grads``, laid out as
    ``params`` is (``_layout``).

    ``Xs`` has its length column scaled already.  ``Y`` is (networks, batch,
    widest output) with zero padding, and ``mass`` its row sums: 1 for real
    targets, 0 for all-zero rows, which therefore add neither loss nor
    gradient.
    """
    import numpy as np
    W1, b1, W2, b2, b3, *W3s = params
    gW1, gb1, gW2, gb2, gb3, *gW3s = grads
    b = len(Xs)
    A1 = Xs @ W1[:, None] + b1[:, None, None]  # (networks, b, k, hidden)
    A2 = T @ W2 + b2[:, None]  # (networks, b, hidden)
    hidden = np.concatenate([np.maximum(A1, 0.0).reshape(len(W1), b, -1),
                             np.maximum(A2, 0.0)], axis=2)
    Z = np.zeros(Y.shape)  # the padding stays 0 until b3 makes it -inf
    for z, h, W3 in zip(Z, hidden, W3s):
        np.matmul(h, W3, out=z[:, :W3.shape[1]])
    Z += b3[:, None]
    P = _softmax(Z)
    dZ = (P * mass - Y) / b
    np.add.reduce(dZ, axis=1, out=gb3)
    dhidden = np.empty(hidden.shape)
    for h, dz, W3, gW3, dh in zip(hidden, dZ, W3s, gW3s, dhidden):
        dz = dz[:, :W3.shape[1]]
        np.matmul(h.T, dz, out=gW3)
        np.matmul(dz, W3.T, out=dh)
    kh = hidden.shape[2] - A2.shape[2]
    dA1 = dhidden[..., :kh].reshape(A1.shape) * (A1 > 0)
    dA2 = dhidden[..., kh:] * (A2 > 0)
    for g, d in zip(gW1, dA1):
        np.einsum("bkv,bkh->vh", Xs, d, out=g)
    np.add.reduce(dA1, axis=(1, 2), out=gb1)
    np.matmul(T.T, dA2, out=gW2)
    np.add.reduce(dA2, axis=1, out=gb2)
    return P


def _losses(P: np.ndarray, Y: np.ndarray, widths: list[int], b: int) -> np.ndarray:
    """The (networks, batches) mean cross-entropies of stacked probabilities
    ``P`` and padded targets ``Y`` over batches of ``b`` rows, each network
    over its own width.  A batch sums its (b, width) products as a row of
    the contiguous (batches, b * width) products: the pairwise sum that
    batch alone gets.  A short last batch is summed on its own, since
    padding it would regroup the sum."""
    import numpy as np
    logP = np.log(np.maximum(P, 1e-12))
    rows = P.shape[1]
    sizes = np.minimum(b, rows - np.arange(0, rows, b))  # each batch's rows
    full = rows // b  # the batches of b rows
    losses = np.empty((len(P), len(sizes)))
    for loss, y, lp, width in zip(losses, Y, logP, widths):
        products = y[:, :width] * lp[:, :width]
        loss[:full] = np.add.reduce(products[:full * b].reshape(full, b * width), axis=1)
        loss[full:] = np.add.reduce(products[full * b:], axis=None)  # the short batch, if any
    return -losses / sizes


def loss_and_gradients(
    model: RelNetModel, X: np.ndarray, T: np.ndarray, Y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and analytic gradients for every parameter group.

    All-zero target rows (the >K-Persons rule) contribute neither loss nor
    gradient.  Runs the step ``train`` runs, with this network alone.
    """
    import numpy as np
    params = _layout([model])
    grads = [np.empty(a.shape) for a in params]
    P = _joint_step(params, grads, _scaled(model, X), T, Y[None],
                    Y.sum(axis=1, keepdims=True)[None])
    loss = float(_losses(P, Y[None], [model.out_dim], len(X))[0, 0])
    return loss, dict(zip(("W1", "b1", "W2", "b2", "b3"), (g[0] for g in grads)),
                      W3=grads[5])


def train(
    models: list[RelNetModel],
    X: np.ndarray,
    T: np.ndarray,
    Ys: list[np.ndarray],
    epochs: int = 300,
    learning_rate: float = 0.05,
    seed: int = 13,
    batch_size: int = 8,
) -> list[RelNetModel]:
    """Seeded mini-batch gradient descent of networks on the shared inputs
    ``X`` and ``T``, each with its own targets in ``Ys``; the networks
    share ``k``, ``hidden``, ``vocab_size`` and ``length_scale``, and each
    network's loss curve lands on it.

    The networks take one step per batch together.  Each elementwise
    operation and reduction runs once, on arrays stacked over the networks:
    the first and type layers, the softmax (outputs padded to the widest
    network by -inf logits and zero targets), ``dZ``, the ReLU masks, the
    bias and W2 gradients, and the update of one flat buffer holding every
    parameter (each network's weights are read back from it, without the
    padding, as float rows at the end).  ``hidden @ W3``, ``hidden.T @ dZ``, ``dZ @ W3.T`` and the W1
    gradient ``einsum`` run per network, in the 2-D shapes a network alone
    has: a padded W3 or a batched product sums in another order.  So each
    network gets the bits it gets trained alone, which are those of
    updating each parameter after ``loss_and_gradients`` on ``X[idx],
    T[idx], Y[idx]``.

    No step needs its loss, so each step keeps only its probabilities, and
    after the epoch's last update ``_losses`` reads every batch's loss from
    them in one pass per network, with the sums a step would make.  The
    epoch's loss adds them in batch order, as the steps did.  A loss that
    is not finite raises ``FloatingPointError`` at the end of the epoch in
    which it first appears, before that epoch joins the loss curve.

    Each epoch visits the examples in the order that one
    ``random.Random(seed)``, kept across epochs, shuffles ``range(len(X))``
    into.
    """
    import numpy as np
    if not models or len(models) != len(Ys):
        raise ValueError("train needs one target array per network")
    if len({(m.k, m.hidden, m.vocab_size, m.length_scale) for m in models}) > 1:
        raise ValueError("networks trained together need the same k, hidden, "
                         "vocab_size and length_scale")
    for model, Y in zip(models, Ys):
        if not len(X) == len(T) == len(Y) or Y.shape[1:] != (model.out_dim,):
            raise ValueError("dataset arrays disagree on length, or the targets "
                             "on the network's width")
    if len(X) == 0:
        raise ValueError("empty training set")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = random.Random(seed)
    arrays = _layout(models)
    flat = np.concatenate([a.ravel() for a in arrays])
    grad = np.empty_like(flat)
    params, grads = _pieces(flat, arrays), _pieces(grad, arrays)
    padded = np.zeros((len(models), len(X), arrays[4].shape[1]))
    for i, (model, Y) in enumerate(zip(models, Ys)):
        padded[i, :, :model.out_dim] = Y
        model.loss_curve = []
    Xs, mass = _scaled(models[0], X), padded.sum(axis=2, keepdims=True)
    P = np.empty(padded.shape)  # an epoch's probabilities, batch after batch
    widths = [model.out_dim for model in models]
    with np.errstate(over="ignore", invalid="ignore"):  # shows as a loss not finite
        for _ in range(epochs):
            order = list(range(len(X)))
            rng.shuffle(order)
            order = np.array(order)  # not a list: one conversion, not four
            Xe, Te, Ye, Me = Xs[order], T[order], padded[:, order], mass[:, order]
            for lo in range(0, len(X), batch_size):
                hi = lo + batch_size
                P[:, lo:hi] = _joint_step(params, grads, Xe[lo:hi], Te[lo:hi],
                                          Ye[:, lo:hi], Me[:, lo:hi])
                flat -= learning_rate * grad
            losses = _losses(P, Ye, widths, batch_size)
            if not np.isfinite(losses).all():
                raise FloatingPointError("training loss is not finite; lower the learning rate")
            for model, batch_losses in zip(models, losses.tolist()):
                total = 0.0  # in batch order; sum() compensates floats from Python 3.12
                for loss in batch_losses:
                    total += loss
                model.loss_curve.append(total / len(batch_losses))
    for i, model in enumerate(models):
        model.W1, model.b1, model.W2, model.b2 = (_rows(p[i]) for p in params[:4])
        model.b3, model.W3 = _rows(params[4][i, :model.out_dim]), _rows(params[5 + i])
        model.shares.clear()  # kept for the weights it had
        model.hyper.update(
            {"epochs": epochs, "learning_rate": learning_rate, "seed": seed,
             "batch_size": batch_size}
        )
    return models


def build_dataset(
    pairs: list[tuple[SentenceContext, EntitySpan, EntitySpan]],
    vocab: PatternVocab,
    modes: list[str],
    k: int = MAX_PERSONS,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Training arrays from (context, target, gold Person) triples: the
    dense inputs ``X`` and ``T``, each pair featurized once, and one target
    array per mode.  Pairs whose sentence has no tree are left out.

    ``X[i, j]`` is slot j's pattern one-hot with the path length appended
    (all zero for an empty slot), and ``T[i]`` the type one-hot.  Gold
    Persons outside the first ``k`` slots give all-zero targets; in
    constrained mode the three classes are left flank / right flank /
    some other Person.
    """
    import numpy as np
    pairs = [pair for pair in pairs if pair[0].tree is not None]
    X = np.zeros((len(pairs), k, vocab.size + 1))
    T = np.zeros((len(pairs), 3))
    for x, t, (ctx, target, _) in zip(X, T, pairs):
        feats = featurize(ctx, target, vocab, k)
        for slot, value in zip(x, feats.slots):
            if value is not None:
                row, length = value
                slot[row], slot[-1] = 1.0, length
        t[feats.type_index] = 1.0
    Ys = []
    for mode in modes:
        Y = np.zeros((len(pairs), output_width(mode, k)))
        for y, (ctx, target, gold) in zip(Y, pairs):
            if gold not in ctx.persons[:k]:
                continue
            if mode == "select_k":
                y[ctx.persons.index(gold)] = 1.0
            else:
                left, right = flanking_persons(ctx, target)
                y[0 if gold == left else 1 if gold == right else 2] = 1.0
        Ys.append(Y)
    return X, T, Ys


def collect_patterns(
    contexts_by_doc: Iterable[list[SentenceContext]],
) -> list[PathPattern]:
    """Every target-to-Person path pattern in the corpus (vocab input)."""
    patterns = []
    for contexts in contexts_by_doc:
        for ctx in contexts:
            for target in ctx.targets:
                for person in ctx.persons[:MAX_PERSONS]:
                    path = ctx.path(target, person)
                    if path is not None:
                        patterns.append(path)
    return patterns


def training_set(
    entries: list[tuple[Document, list[DepTree]]],
    min_count: int = 2,
    directed: bool = True,
) -> tuple[PatternVocab, list[tuple[SentenceContext, EntitySpan, EntitySpan]]]:
    """The pattern vocabulary and the same-sentence gold triples of a corpus,
    both read from one set of contexts per document."""
    contexts_by_doc = [build_contexts(doc, trees) for doc, trees in entries]
    vocab = build_vocab(collect_patterns(contexts_by_doc), min_count, directed)
    pairs = [(edge.context, edge.target, edge.person)
             for (doc, _), contexts in zip(entries, contexts_by_doc)
             for edge in gold_pairs(doc, contexts) if edge.context is not None]
    return vocab, pairs


def predict_person(
    model: RelNetModel,
    ctx: SentenceContext,
    target: EntitySpan,
    vocab: PatternVocab,
) -> Attachment:
    """``model.choose`` for one target, attached under the model's strategy."""
    strategy = next(s for s, net in NETWORKS.items() if net.mode == model.mode)
    return Attachment(target, model.choose([(ctx, target)], vocab)[0],
                      type_map(target.etype), strategy)


def save_relnet(path, model: RelNetModel, vocab: PatternVocab) -> None:
    """The magic line, then a record per line in the order ``load_relnet``
    reads them: the header, the ``hyper`` and then the ``pattern`` records
    (each sorted), ``unknown``, ``min_count``, and the arrays W1 b1 W2 b2 W3 b3,
    a vector as one row."""
    lines = [MODEL_MAGIC, f"mode {model.mode}", f"k {model.k}",
             f"hidden {model.hidden}", f"vocab_size {model.vocab_size}",
             f"length_scale {model.length_scale!r}"]
    # the vocabulary's key form, restored by load_relnet
    hyper = {**model.hyper, "directed": int(vocab.directed)}
    for key in sorted(hyper):
        lines.append(f"hyper {key} {hyper[key]!r}")
    for pattern, idx in sorted(vocab.index.items()):
        lines.append(f"pattern\t{pattern}\t{idx}")
    lines.append(f"unknown {vocab.unknown_index}")
    lines.append(f"min_count {vocab.min_count}")
    for name, arr in model.params().items():
        mat = arr if name[0] == "W" else [arr]
        lines.append(f"array {name} {len(mat)} {len(mat[0])}")
        for row in mat:
            lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _parse_scalar(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.startswith("'") and value.endswith("'"):
        return value[1:-1]
    return value


def load_relnet(path) -> tuple[RelNetModel, PatternVocab]:
    """Read a file written by ``save_relnet``, record by record in its order.
    A record that is malformed or out of place, a ``hyper`` or ``pattern``
    key not greater than the one before it (repeated or unsorted), an
    array whose shape is not the header's, a pattern index outside
    ``0..vocab_size - 1`` or used twice, a weight that is not finite, a
    ``length_scale`` that is not greater than 0 or a ``hyper directed``
    other than 0 or 1 raises ``ModelFileError`` naming the file and line;
    a file that ends early names the file alone.  The weights stay the
    float rows the file holds."""
    lines = read_model_lines(path, MODEL_MAGIC, "relation-network model")
    number = 1  # the line last read
    used: set[int] = set()  # the pattern indices read so far

    def ahead(key: str, sep: str = " ") -> bool:
        return number < len(lines) and (lines[number] + sep).startswith(key + sep)

    def take(key: str, sep: str = " ") -> str:
        """The value on the next line, which must be the ``key`` record."""
        nonlocal number
        if number == len(lines):
            raise EOFError(f"no {key!r} record; the file ends at line {number}")
        number += 1
        if not (lines[number - 1] + sep).startswith(key + sep):
            raise ValueError(f"expected the {key!r} record here")
        return lines[number - 1][len(key) + 1:]

    def size(key: str) -> int:
        value = int(take(key))
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
        return value

    def slot(text: str) -> int:  # a pattern's index, or unknown's
        idx = int(text)
        if not 0 <= idx < vocab_size:
            raise ValueError(f"pattern index {idx} is outside 0..{vocab_size - 1}")
        if idx in used:
            raise ValueError(f"pattern index {idx} is used twice")
        used.add(idx)
        return idx

    try:
        mode = take("mode")
        if mode not in {net.mode for net in NETWORKS.values()}:
            raise ValueError(f"unknown mode {mode!r}")
        k, hidden, vocab_size = size("k"), size("hidden"), size("vocab_size")
        length_scale = read_weight(take("length_scale"))
        if length_scale <= 0:
            raise ValueError(f"length_scale must be greater than 0, got {length_scale!r}")
        hyper: dict = {}
        index: dict[str, int] = {}
        # the hyper records, then the pattern records, each kind's keys increasing
        for kind, sep, table, read in (("hyper", " ", hyper, _parse_scalar),
                                       ("pattern", "\t", index, slot)):
            last = None
            while ahead(kind, sep):
                key, found, value = take(kind, sep).partition(sep)
                if not found:
                    raise ValueError(f"{kind} record needs a key and a value")
                if last is not None and key <= last:
                    raise ValueError(f"record '{kind} {key}' is repeated or out of order")
                last = key
                if kind == "hyper" and key == "directed" and value not in ("0", "1"):
                    raise ValueError(f"hyper directed must be 0 or 1, got {value!r}")
                table[key] = read(value)
        unknown = take("unknown")
        if vocab_size != len(index) + 1:
            raise ValueError(f"vocab_size {vocab_size} does not match its "
                             f"{len(index)} patterns plus unknown")
        unknown = slot(unknown)
        min_count = int(take("min_count"))
        width = output_width(mode, k)
        shapes = {"W1": (vocab_size + 1, hidden), "b1": (1, hidden), "W2": (3, hidden),
                  "b2": (1, hidden), "W3": ((k + 1) * hidden, width), "b3": (1, width)}
        arrays = {}
        for name, (rows, cols) in shapes.items():
            if take(f"array {name}") != f"{rows} {cols}":
                raise ValueError(f"expected 'array {name} {rows} {cols}' here")
            if number + rows > len(lines):
                raise EOFError(f"the file ends at line {len(lines)}, inside array {name}")
            mat = []
            for number in range(number + 1, number + rows + 1):
                row = tuple(read_weight(v) for v in lines[number - 1].split())
                if len(row) != cols:
                    raise ValueError(f"array {name} row has {len(row)} values, not {cols}")
                mat.append(row)
            arrays[name] = mat[0] if name[0] == "b" else tuple(mat)  # b: a vector
    except EOFError as exc:
        raise ModelFileError(path, str(exc)) from None
    except ValueError as exc:
        raise ModelFileError(path, str(exc), number) from None
    if number < len(lines):
        raise ModelFileError(path, "expected the file to end after array b3", number + 1)
    # files without a ``hyper directed`` line have always been read as directed
    vocab = PatternVocab(index, min_count, unknown, directed=bool(hyper.get("directed", 1)))
    return RelNetModel(mode, k, hidden, vocab_size, **arrays, length_scale=length_scale,
                       hyper=hyper), vocab
