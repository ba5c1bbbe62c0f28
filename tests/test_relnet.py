import contextlib
import functools
import io
import itertools
import math
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph import relnet
from unitgraph.cli import main

from unitgraph.corpus import Document, EntitySpan, EntityType, RelationEdge
from unitgraph.deptree import PathPattern, Step, align_to_text
from unitgraph.errors import DataError, MissingParseError, ModelFileError
from unitgraph.relations import (
    NN_STRATEGIES,
    SentenceContext,
    Strategy,
    build_contexts,
    extract_document,
    flanking_persons,
    gold_pairs,
    nearest_person,
    type_map,
)
from unitgraph.relnet import (
    MAX_PERSONS,
    NETWORKS,
    RelCandidateFeatures,
    RelNetModel,
    build_dataset,
    build_vocab,
    collect_patterns,
    featurize,
    forward,
    init_model,
    load_relnet,
    loss_and_gradients,
    output_width,
    predict_person,
    predict_proba,
    save_relnet,
    train,
    training_set,
)

from unitgraph.tokens import Token

from conftest import (CORPUS_DIR, DOC_GOVERNOR, DOC_LOGISTICS, gold_documents,
                      tree_from_heads)


def pattern(*labels):
    return PathPattern(tuple(Step(lab, "up") for lab in labels))


def chain_context(n_persons, etype=EntityType.ORGANIZATION):
    """Synthetic sentence: one target token heading a chain of person names."""
    forms = ["unit"] + [f"name{i}" for i in range(n_persons)]
    tree = tree_from_heads(forms, [-1, *range(len(forms) - 1)],
                           ["root"] + ["conj"] * (len(forms) - 1))
    text = " ".join(forms)
    spans = align_to_text(tree, text)
    persons = [
        EntitySpan(f"P{i}", EntityType.PERSON, s, e, forms[i + 1])
        for i, (s, e) in enumerate(spans[1:])
    ]
    target = EntitySpan("TT", etype, spans[0][0], spans[0][1], "unit")
    ctx = SentenceContext(
        tree=tree,
        persons=persons,
        targets=[target],
        extent=(0, len(text)),
        tree_spans=spans,
    )
    return ctx, target


class TestVocab:
    def test_min_count_buckets_rare_patterns(self):
        patterns = [pattern("nsubj")] * 5 + [pattern("obj")]
        vocab = build_vocab(patterns, min_count=2)
        assert vocab.size == 2
        assert vocab.lookup(pattern("nsubj").key()) == 0
        assert vocab.lookup(pattern("obj").key()) == vocab.unknown_index

    def test_min_count_one_keeps_everything(self):
        patterns = [pattern("nsubj"), pattern("obj"), pattern("nmod")]
        vocab = build_vocab(patterns, min_count=1)
        assert vocab.size == 4
        assert len({vocab.lookup(p.key()) for p in patterns}) == 3

    def test_unseen_pattern_maps_to_unknown(self):
        vocab = build_vocab([pattern("nsubj")] * 3, min_count=2)
        assert vocab.lookup("never-seen") == vocab.unknown_index

    def test_empty_training_set(self):
        vocab = build_vocab([], min_count=2)
        assert vocab.size == 1 and vocab.unknown_index == 0

    def test_indices_dense_and_sorted(self):
        patterns = [pattern(x) for x in ("c", "a", "b")] * 2
        vocab = build_vocab(patterns, min_count=2)
        assert sorted(vocab.index.values()) == list(range(len(vocab.index)))
        assert list(vocab.index) == sorted(vocab.index)


class TestFeaturize:
    def test_single_person_populates_first_slot(self):
        ctx, target = chain_context(1)
        vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
        feats = featurize(ctx, target, vocab)
        assert feats.slots.shape == (7, vocab.size + 1)
        assert feats.slots[0].sum() > 0
        assert not feats.slots[1:].any()
        assert not feats.truncated

    def test_slot_contents(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_LOGISTICS]
        ctx = build_contexts(doc, trees)[0]
        target = ctx.targets[0]
        vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
        feats = featurize(ctx, target, vocab)
        # slot order follows sentence order: the sayer first, then the appointee
        assert feats.slots[0, -1] == 2.0  # path length to M. T. Ibrahim
        assert feats.slots[1, -1] == 3.0  # path length to Emmanuel Atewe
        for row in feats.slots[:2]:
            assert row[:-1].sum() == 1.0  # exactly one pattern bit
        assert feats.type_onehot.tolist() == [0.0, 0.0, 1.0]  # Title/Role

    def test_more_than_seven_persons_truncates(self):
        ctx, target = chain_context(8)
        vocab = build_vocab([], min_count=1)
        feats = featurize(ctx, target, vocab)
        assert feats.truncated
        assert feats.slots.shape[0] == MAX_PERSONS

    def test_gold_beyond_slots_gives_zero_target(self):
        ctx, target = chain_context(8)
        vocab = build_vocab([], min_count=1)
        gold = ctx.persons[7]  # the eighth person
        X, T, [Y] = build_dataset([(ctx, target, gold)], vocab, ["select_k"])
        assert len(Y) == 1
        assert not Y[0].any()

    def test_deterministic(self, corpus_by_id):
        doc, trees = corpus_by_id[DOC_LOGISTICS]
        ctx = build_contexts(doc, trees)[0]
        vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
        a = featurize(ctx, ctx.targets[0], vocab)
        b = featurize(ctx, ctx.targets[0], vocab)
        assert np.array_equal(a.slots, b.slots)
        assert np.array_equal(a.type_onehot, b.type_onehot)


class TestForward:
    def test_softmax_properties(self):
        rng = np.random.default_rng(5)
        model = init_model("select_k", vocab_size=3, seed=5)
        for _ in range(10):
            slots = rng.random((7, 4))
            feats = RelCandidateFeatures(slots, np.array([1.0, 0.0, 0.0]))
            p = forward(model, feats)
            assert p.shape == (7,)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) < 1e-9

    def test_zero_weights_give_uniform(self):
        model = init_model("select_k", vocab_size=2, k=4, seed=0)
        for arr in model.params().values():
            arr[:] = 0.0
        feats = RelCandidateFeatures(np.ones((4, 3)), np.array([0.0, 1.0, 0.0]))
        assert np.allclose(forward(model, feats), 0.25)

    def test_tiny_model_matches_hand_computation(self):
        model = init_model("select_k", vocab_size=2, k=2, hidden=2, seed=1)
        model.W1[:] = [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]
        model.b1[:] = [0.1, -0.1]
        model.W2[:] = [[0.2, 0.0], [0.0, 0.3], [0.0, 0.0]]
        model.b2[:] = [0.0, 0.0]
        model.W3[:] = [
            [1.0, 0.0], [0.0, 1.0], [0.5, 0.5],
            [-0.5, 0.5], [0.2, -0.2], [0.0, 1.0],
        ]
        model.b3[:] = [0.05, -0.05]
        slots = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 4.0]])
        feats = RelCandidateFeatures(slots, np.array([0.0, 1.0, 0.0]))
        # by hand (length scaled by 0.1):
        #   h0 = relu([1 + 0.2*0.5 + 0.1, 0.2*-0.5 - 0.1]) = [1.2, 0]
        #   h1 = relu([0.4*0.5 + 0.1, 1 + 0.4*-0.5 - 0.1]) = [0.3, 0.7]
        #   ht = relu([0, 0.3]) = [0, 0.3]
        #   z0 = 1.2 + 0.15 - 0.35 + 0.05 = 1.05
        #   z1 = 0.15 + 0.35 + 0.3 - 0.05 = 0.75
        e0, e1 = math.exp(1.05), math.exp(0.75)
        expected = [e0 / (e0 + e1), e1 / (e0 + e1)]
        assert np.allclose(forward(model, feats), expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = init_model("select_k", vocab_size=2, seed=0)
        feats = RelCandidateFeatures(np.zeros((7, 9)), np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            forward(model, feats)


def randomized_model_and_batch(rng, mode):
    vocab_size = int(rng.integers(1, 5))
    k = int(rng.integers(2, MAX_PERSONS + 1))
    hidden = int(rng.integers(2, 6))
    model = init_model(mode, vocab_size, k=k, hidden=hidden,
                       seed=int(rng.integers(0, 2**31)))
    # nonzero random biases keep preactivations off the relu kink
    model.b1[:] = 0.3 * rng.standard_normal(model.b1.shape)
    model.b2[:] = 0.3 * rng.standard_normal(model.b2.shape)
    model.b3[:] = 0.3 * rng.standard_normal(model.b3.shape)
    batch = int(rng.integers(1, 5))
    X = np.zeros((batch, k, vocab_size + 1))
    T = np.zeros((batch, 3))
    Y = np.zeros((batch, model.out_dim))
    for b in range(batch):
        for slot in range(k):
            if rng.random() < 0.8:
                X[b, slot, int(rng.integers(0, vocab_size))] = 1.0
                X[b, slot, -1] = float(rng.integers(1, 9))
        T[b, int(rng.integers(0, 3))] = 1.0
        if rng.random() < 0.85:  # keep some all-zero target rows in play
            Y[b, int(rng.integers(0, model.out_dim))] = 1.0
    return model, X, T, Y


def max_gradient_error(model, X, T, Y, step=1e-5):
    _, grads = loss_and_gradients(model, X, T, Y)
    worst = 0.0
    for name, arr in model.params().items():
        flat = arr.ravel()
        analytic = grads[name].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up, _ = loss_and_gradients(model, X, T, Y)
            flat[i] = keep - step
            down, _ = loss_and_gradients(model, X, T, Y)
            flat[i] = keep
            numeric = (up - down) / (2 * step)
            scale = max(1e-6, abs(numeric), abs(analytic[i]))
            worst = max(worst, abs(numeric - analytic[i]) / scale)
    return worst


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(90210)
        for trial in range(6):
            mode = "select_k" if trial % 2 == 0 else "constrained3"
            model, X, T, Y = randomized_model_and_batch(rng, mode)
            assert max_gradient_error(model, X, T, Y) < 1e-4, f"trial {trial}"

    def test_zero_target_rows_contribute_nothing(self):
        rng = np.random.default_rng(4)
        model, X, T, Y = randomized_model_and_batch(rng, "select_k")
        Y[:] = 0.0
        loss, grads = loss_and_gradients(model, X, T, Y)
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())


class TestTraining:
    def separable_dataset(self, rng, n=160, k=3, vocab_size=1):
        """Target = the slot whose path length is largest; every path has
        pattern 0 (with the default size, the unknown pattern)."""
        X = np.zeros((n, k, vocab_size + 1))
        Y = np.zeros((n, k))
        T = np.zeros((n, 3))
        for i in range(n):
            lengths = rng.choice(np.arange(1, 10), size=k, replace=False)
            for slot in range(k):
                X[i, slot, 0] = 1.0
                X[i, slot, -1] = float(lengths[slot])
            Y[i, int(np.argmax(lengths))] = 1.0
            T[i, int(rng.integers(0, 3))] = 1.0
        return X, T, Y

    def test_learns_separable_rule(self):
        rng = np.random.default_rng(77)
        X, T, Y = self.separable_dataset(rng)
        model = init_model("select_k", vocab_size=1, k=3, hidden=8, seed=7)
        train([model], X, T, [Y], epochs=200, learning_rate=0.5, seed=7)
        P = predict_proba(model, X, T)
        accuracy = (P.argmax(axis=1) == Y.argmax(axis=1)).mean()
        assert accuracy >= 0.95
        assert model.loss_curve[-1] <= model.loss_curve[0]

    def test_same_seed_gives_identical_loss_curve(self):
        rng = np.random.default_rng(11)
        X, T, Y = self.separable_dataset(rng, n=40)
        runs = []
        for _ in range(2):
            model = init_model("select_k", vocab_size=1, k=3, seed=3)
            train([model], X, T, [Y], epochs=25, learning_rate=0.1, seed=3)
            runs.append(list(model.loss_curve))
        assert runs[0] == runs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_diagnostic(self):
        rng = np.random.default_rng(2)
        X, T, Y = self.separable_dataset(rng, n=24)
        model = init_model("select_k", vocab_size=1, k=3, seed=2)
        with pytest.raises(FloatingPointError, match="learning rate"):
            train([model], X, T, [Y], epochs=10, learning_rate=1e150, seed=2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_mid_epoch_leaves_that_epoch_off_the_curve(self, monkeypatch):
        # four batches: the first two steps are finite, the third overflows,
        # and the epoch still ends before its loss pass reports it
        rng = np.random.default_rng(2)
        X, T, Y = self.separable_dataset(rng, n=32)
        model = init_model("select_k", vocab_size=1, k=3, seed=2)
        finite = []  # per step, whether its probabilities are finite
        step = relnet._joint_step

        def recording(*args):
            P = step(*args)
            finite.append(bool(np.isfinite(P).all()))
            return P

        monkeypatch.setattr(relnet, "_joint_step", recording)
        with pytest.raises(FloatingPointError, match="learning rate"):
            train([model], X, T, [Y], epochs=10, learning_rate=1e150, seed=2)
        assert model.loss_curve == []
        assert finite == [True, True, False, False]

    @pytest.mark.parametrize("epochs, batch_size, message", [
        (0, 8, "epochs"), (-3, 8, "epochs"), (5, 0, "batch_size"),
        (5, -1, "batch_size"),
    ])
    def test_rejects_fewer_than_one_epoch_or_example(self, epochs, batch_size,
                                                     message):
        rng = np.random.default_rng(2)
        X, T, Y = self.separable_dataset(rng, n=24)
        model = init_model("select_k", vocab_size=1, k=3, seed=2)
        with pytest.raises(ValueError, match=message):
            train([model], X, T, [Y], epochs=epochs, batch_size=batch_size)

    def test_empty_dataset_rejected(self):
        model = init_model("select_k", vocab_size=1, k=3, seed=2)
        with pytest.raises(ValueError, match="empty"):
            train([model], np.zeros((0, 3, 2)), np.zeros((0, 3)), [np.zeros((0, 3))],
                  epochs=1, learning_rate=0.1, seed=0)


def reference_loss_and_gradients(model, X, T, Y):
    """The forward and backward pass of one batch as it was computed
    before training moved its constant work out of the step."""
    b = X.shape[0]
    Xs = X.copy()
    Xs[..., -1] *= model.length_scale
    A1 = Xs @ model.W1 + model.b1
    H1 = np.maximum(A1, 0.0)
    A2 = T @ model.W2 + model.b2
    H2 = np.maximum(A2, 0.0)
    hidden = np.concatenate([H1.reshape(b, -1), H2], axis=1)
    Z = hidden @ model.W3 + model.b3
    e = np.exp(Z - Z.max(axis=-1, keepdims=True))
    P = e / e.sum(axis=-1, keepdims=True)
    mass = Y.sum(axis=1, keepdims=True)
    loss = float(-(Y * np.log(np.clip(P, 1e-12, None))).sum() / b)
    dZ = (P * mass - Y) / b
    grads = {"W3": hidden.T @ dZ, "b3": dZ.sum(axis=0)}
    dhidden = dZ @ model.W3.T
    kh = model.k * model.hidden
    dA1 = dhidden[:, :kh].reshape(b, model.k, model.hidden) * (A1 > 0)
    dA2 = dhidden[:, kh:] * (A2 > 0)
    grads["W1"] = np.einsum("bkv,bkh->vh", Xs, dA1)
    grads["b1"] = dA1.sum(axis=(0, 1))
    grads["W2"] = T.T @ dA2
    grads["b2"] = dA2.sum(axis=0)
    return loss, grads


def reference_forward(model, X, T):
    """The probabilities of a batch as training computes them, one matrix
    product for the batch, with the first and type layers' pre-activations
    (``A1``, ``A2``).  On a batch of one this is the forward pass each
    prediction row must match bit for bit."""
    b = X.shape[0]
    Xs = X.copy()
    Xs[..., -1] *= model.length_scale
    A1 = Xs @ model.W1 + model.b1
    A2 = T @ model.W2 + model.b2
    hidden = np.concatenate([np.maximum(A1, 0.0).reshape(b, -1),
                             np.maximum(A2, 0.0)], axis=1)
    Z = hidden @ model.W3 + model.b3
    e = np.exp(Z - Z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True), A1, A2


def reference_train(model, dataset, epochs, learning_rate, seed, batch_size):
    """The per-batch training loop: gather, scale and sum every batch
    afresh, then update each parameter on its own."""
    X, T, Y = dataset
    rng = np.random.default_rng(seed)
    params = model.params()
    model.loss_curve = []
    for _ in range(epochs):
        order = rng.permutation(len(X))
        epoch_loss = 0.0
        batches = 0
        for lo in range(0, len(X), batch_size):
            idx = order[lo:lo + batch_size]
            loss, grads = reference_loss_and_gradients(model, X[idx], T[idx], Y[idx])
            for name, g in grads.items():
                params[name] -= learning_rate * g
            epoch_loss += loss
            batches += 1
        model.loss_curve.append(epoch_loss / batches)
    return model


def random_dataset(rng, n, k, vocab_size, width):
    """Network inputs shaped like ``build_dataset``'s: empty slots, integer
    path lengths, and about one all-zero target row in five."""
    X = np.zeros((n, k, vocab_size + 1))
    T = np.zeros((n, 3))
    Y = np.zeros((n, width))
    for i in range(n):
        for slot in range(k):
            if rng.random() < 0.7:
                X[i, slot, int(rng.integers(0, vocab_size))] = 1.0
                X[i, slot, -1] = float(rng.integers(1, 9))
        T[i, int(rng.integers(0, 3))] = 1.0
        if rng.random() < 0.8:
            Y[i, int(rng.integers(0, width))] = 1.0
    return X, T, Y


class TestTrainingMatchesPerBatchLoop:
    """``train`` must give the per-batch loop's bits on every parameter and
    on the loss curve."""

    @staticmethod
    def assert_same_bits(dataset, init, epochs, learning_rate, seed, batch_size):
        X, T, Y = dataset
        [got] = train([init_model(**init)], X, T, [Y], epochs=epochs,
                      learning_rate=learning_rate, seed=seed, batch_size=batch_size)
        want = reference_train(init_model(**init), dataset, epochs,
                               learning_rate, seed, batch_size)
        for name, arr in want.params().items():
            assert np.array_equal(got.params()[name].view(np.int64),
                                  arr.view(np.int64)), name
        assert np.array_equal(np.array(got.loss_curve).view(np.int64),
                              np.array(want.loss_curve).view(np.int64))

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("mode", ["select_k", "constrained3"])
    def test_fixture_datasets(self, corpus_entries, mode, directed):
        vocab, pairs = training_set(corpus_entries, 1, directed)
        X, T, [Y] = build_dataset(pairs, vocab, [mode])
        dataset = (X, T, Y)
        assert len(X) > 4
        init = dict(mode=mode, vocab_size=vocab.size, seed=13)
        for batch_size in (8, 4):  # the default, and a short last batch
            self.assert_same_bits(dataset, init, 150, 0.05, 13, batch_size)

    def test_random_datasets(self):
        rng = np.random.default_rng(7)
        for case in range(40):
            mode = ("select_k", "constrained3")[case % 2]
            k = int(rng.integers(1, MAX_PERSONS + 1))
            vocab_size = int(rng.integers(1, 6))
            batch_size = int(rng.choice([1, 3, 8, 13]))
            n = int(rng.integers(1, 60))  # mostly with a short last batch
            init = dict(mode=mode, vocab_size=vocab_size, k=k,
                        hidden=int(rng.integers(1, 12)),
                        seed=int(rng.integers(0, 2**31)),
                        length_scale=float(rng.choice([0.1, 0.37, 1.0])))
            dataset = random_dataset(rng, n, k, vocab_size, output_width(mode, k))
            self.assert_same_bits(dataset, init, int(rng.integers(1, 25)),
                                  float(rng.choice([0.05, 0.5, 2.0])),
                                  int(rng.integers(0, 2**31)), batch_size)

    @staticmethod
    def assert_joint_bits(X, T, Ys, inits, epochs, learning_rate, seed, batch_size):
        """Networks trained together each end with the per-batch loop's bits
        for that network alone."""
        got = train([init_model(**init) for init in inits], X, T, Ys, epochs=epochs,
                    learning_rate=learning_rate, seed=seed, batch_size=batch_size)
        for model, Y, init in zip(got, Ys, inits):
            want = reference_train(init_model(**init), (X, T, Y), epochs,
                                   learning_rate, seed, batch_size)
            for name, arr in want.params().items():
                assert np.array_equal(model.params()[name].view(np.int64),
                                      arr.view(np.int64)), (init["mode"], name)
            assert np.array_equal(np.array(model.loss_curve).view(np.int64),
                                  np.array(want.loss_curve).view(np.int64)), init["mode"]

    @pytest.mark.parametrize("directed", [True, False])
    def test_fixture_datasets_together(self, corpus_entries, directed):
        vocab, pairs = training_set(corpus_entries, 1, directed)
        modes = ("select_k", "constrained3")
        X, T, Ys = build_dataset(pairs, vocab, modes)
        inits = [dict(mode=mode, vocab_size=vocab.size, seed=13) for mode in modes]
        for batch_size in (8, 5, 4, 1):
            self.assert_joint_bits(X, T, Ys, inits, 150, 0.05, 13, batch_size)

    def test_random_datasets_together(self):
        # select_k with constrained3 over one input, in either order: k up
        # to 7 pads the narrower output to the other's width
        rng = np.random.default_rng(8)
        for case in range(40):
            k = int(rng.integers(1, MAX_PERSONS + 1))
            vocab_size = int(rng.integers(1, 6))
            n = int(rng.integers(1, 60))
            X, T, Y = random_dataset(rng, n, k, vocab_size, k)
            flank = np.zeros((n, 3))  # a target row wherever select_k has one
            rows = Y.any(axis=1).nonzero()[0]
            flank[rows, rng.integers(0, 3, size=len(rows))] = 1.0
            shared = dict(vocab_size=vocab_size, k=k, hidden=int(rng.integers(1, 12)),
                          length_scale=float(rng.choice([0.1, 0.37, 1.0])))
            pairs = [(dict(shared, mode=mode, seed=int(rng.integers(0, 2**31))), targets)
                     for mode, targets in (("select_k", Y), ("constrained3", flank))]
            if case % 2:
                pairs.reverse()
            inits, Ys = zip(*pairs)
            self.assert_joint_bits(X, T, list(Ys), inits, int(rng.integers(1, 25)),
                                   float(rng.choice([0.05, 0.5, 2.0])),
                                   int(rng.integers(0, 2**31)),
                                   int(rng.choice([1, 3, 8, 13])))

    @pytest.mark.parametrize("change", [
        "k", "hidden", "vocab_size", "length_scale", "width", "length", "datasets"])
    def test_networks_that_do_not_fit_together_are_rejected(self, change):
        rng = np.random.default_rng(3)
        X, T, Y = random_dataset(rng, 12, 4, 3, 4)
        shared = dict(vocab_size=3, k=4, hidden=5, length_scale=0.1)
        other = dict(shared, mode="constrained3")
        flank = Y[:, :3].copy()
        if change in ("k", "hidden", "vocab_size", "length_scale"):
            other[change] = {"k": 3, "hidden": 6, "vocab_size": 2,
                             "length_scale": 0.2}[change]
        second = {"width": Y, "length": flank[:-1]}.get(change, flank)
        Ys = [Y, second][:1 if change == "datasets" else 2]
        models = [init_model("select_k", **shared), init_model(**other)]
        with pytest.raises(ValueError):
            train(models, X, T, Ys, epochs=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_network_overflowing_stops_training(self):
        rng = np.random.default_rng(5)
        X, T, Y = random_dataset(rng, 16, 3, 2, 3)
        calm, wild = (init_model(mode, vocab_size=2, k=3, seed=1)
                      for mode in ("select_k", "constrained3"))
        wild.W3 *= 1e308
        with pytest.raises(FloatingPointError, match="learning rate"):
            train([calm, wild], X, T, [Y, Y], epochs=3)


class TestWeightSharing:
    def test_same_slot_vector_projects_identically_anywhere(self):
        model = init_model("select_k", vocab_size=4, seed=21)
        v = np.array([0.0, 1.0, 0.0, 0.0, 3.0])
        a = np.zeros((7, 5))
        b = np.zeros((7, 5))
        a[0] = v
        b[4] = v
        _, A1a, _ = reference_forward(model, a[None], np.zeros((1, 3)))
        _, A1b, _ = reference_forward(model, b[None], np.zeros((1, 3)))
        assert np.array_equal(A1a[0, 0], A1b[0, 4])

    def test_swapping_identical_slots_preserves_output(self):
        model = init_model("constrained3", vocab_size=4, seed=22)
        slots = np.zeros((7, 5))
        slots[2] = [1.0, 0.0, 0.0, 0.0, 2.0]
        slots[5] = [1.0, 0.0, 0.0, 0.0, 2.0]
        swapped = slots.copy()
        swapped[[2, 5]] = swapped[[5, 2]]
        t = np.array([0.0, 0.0, 1.0])
        out_a = forward(model, RelCandidateFeatures(slots, t))
        out_b = forward(model, RelCandidateFeatures(swapped, t))
        assert np.array_equal(out_a, out_b)


def rigged_model(vocab, mode="select_k", k=MAX_PERSONS, favored_output=None):
    """Zero model with a bias pushing one output index."""
    model = init_model(mode, vocab.size, k=k, hidden=2, seed=0)
    for arr in model.params().values():
        arr[:] = 0.0
    if favored_output is not None:
        model.b3[favored_output] = 10.0
    return model


class TestPredictPerson:
    def test_prediction_beyond_persons_abstains(self):
        ctx, target = chain_context(3)
        vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
        model = rigged_model(vocab, favored_output=3)  # fourth person: absent
        att = predict_person(model, ctx, target, vocab)
        assert att.person is None
        assert att.strategy is Strategy.NN_FREE

    def test_constrained_left_choice(self):
        ctx, target = chain_context(2)
        # move the target between the two persons so both flanks exist
        left, right = ctx.persons
        between = EntitySpan("TT", EntityType.RANK,
                             left.end + 1, right.start - 1, "x")
        ctx.targets = [between]
        vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
        model = rigged_model(vocab, mode="constrained3", favored_output=0)
        att = predict_person(model, ctx, between, vocab)
        assert att.person == left
        assert att.strategy is Strategy.NN_CONSTRAINED

    def test_constrained_other_uses_shortest_path_beyond_flanks(self):
        ctx, target = chain_context(3)
        vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
        model = rigged_model(vocab, mode="constrained3", favored_output=2)
        att = predict_person(model, ctx, target, vocab)
        # flanks of the target (leftmost token) are none/person0; the
        # shortest-path non-flank is person1 (chain distance 2 vs 3)
        assert att.person == ctx.persons[1]

    def test_constrained_other_with_no_candidate_abstains(self):
        ctx, target = chain_context(1)
        vocab = build_vocab(collect_patterns([[ctx]]), min_count=1)
        model = rigged_model(vocab, mode="constrained3", favored_output=2)
        att = predict_person(model, ctx, target, vocab)
        assert att.person is None

    def test_conservative_versus_forced_attachment(self, corpus_by_id):
        from unitgraph.relations import extract_document

        doc, trees = corpus_by_id[DOC_GOVERNOR]
        vocab = build_vocab(
            collect_patterns([build_contexts(doc, trees)]), min_count=1
        )
        abstainer = rigged_model(vocab, favored_output=6)
        sdp = extract_document(doc, build_contexts(doc, trees),
                               Strategy.SDP_CONSTRAINED)
        nn = extract_document(doc, build_contexts(doc, trees), Strategy.NN_FREE,
                              abstainer, vocab)
        named = [a for a in nn if a.person is not None]
        assert len(sdp) == 2  # forced: including the spurious unit edge
        assert len(named) < len(sdp)
        assert all(a.person is None for a in nn)


TARGET_TYPES = (EntityType.ORGANIZATION, EntityType.RANK, EntityType.TITLE_ROLE)


def random_contexts(rng):
    """Sentences of random trees and entities: crowds of Persons, Persons
    annotated twice, entities between tokens (no path), unparsed sentences."""
    contexts, ids = [], itertools.count()
    for _ in range(rng.randint(1, 6)):
        n = rng.choice([rng.randint(1, 12), 30])
        crowded = n == 30 and rng.random() < 0.6
        order = list(range(n))
        rng.shuffle(order)  # the root and the heads fall anywhere in the sentence
        heads, labels = [-1] * n, ["root"] * n
        for i in range(1, n):
            heads[order[i]] = order[rng.randrange(i)]
            labels[order[i]] = rng.choice(("nsubj", "obj", "nmod"))
        forms = [f"w{i}" for i in range(n)]
        tree = tree_from_heads(forms, heads, labels)
        text = " ".join(forms)
        spans = align_to_text(tree, text)
        persons, targets = [], []
        i = 0
        while i < n:
            width = min(rng.randint(1, 3), n - i)
            start, end = spans[i][0], spans[i + width - 1][1]
            if rng.random() < 0.05 and i + 1 < n:  # the space after a token
                start, end = spans[i][1], spans[i + 1][0]
            if rng.random() < (0.7 if crowded else 0.3):
                persons.append(EntitySpan(f"T{next(ids)}", EntityType.PERSON,
                                          start, end, "p"))
                if rng.random() < 0.1:
                    persons.append(EntitySpan(f"T{next(ids)}", EntityType.PERSON,
                                              start, end, "p"))
            elif rng.random() < 0.6:
                targets.append(EntitySpan(f"T{next(ids)}", rng.choice(TARGET_TYPES),
                                          start, end, "t"))
            i += width + rng.randint(0, 1)
        parsed = rng.random() < 0.75
        contexts.append(SentenceContext(tree if parsed else None, persons, targets,
                                        (0, len(text)), spans if parsed else []))
    return contexts


def bits(a):
    return a.view(np.int64)


class TestBatchedPrediction:
    """A document's targets scored in one pass get what each gets alone."""

    def check(self, model, vocab, contexts, fallback, seen):
        strategy = next(s for s in NN_STRATEGIES if NETWORKS[s].mode == model.mode)
        got = extract_document(Document("d", ""), contexts, strategy, model, vocab,
                               fallback=fallback)
        expected, pairs = [], []
        for ctx in contexts:
            if not ctx.persons:
                continue
            for target in ctx.targets:
                if ctx.tree is None:
                    seen["unparsed"] += 1
                    if fallback:
                        expected.append(nearest_person(ctx, target))
                    continue
                pairs.append((ctx, target))
                expected.append(predict_person(model, ctx, target, vocab))
        assert got == expected
        if not pairs:
            return
        feats = [featurize(ctx, target, vocab, k=model.k) for ctx, target in pairs]
        batched = predict_proba(model, np.stack([f.slots for f in feats]),
                                np.stack([f.type_onehot for f in feats]))
        for row, f in zip(batched, feats):
            # forward as it was: the training pass on a batch of one
            before = reference_forward(model, f.slots[None], f.type_onehot[None])[0][0]
            assert np.array_equal(bits(row), bits(forward(model, f)))
            assert np.array_equal(bits(row), bits(before))
            seen["truncated"] += f.truncated
        if model.mode == "select_k":
            seen["abstained"] += sum(a.person is None for a in expected)
        else:
            seen["other"] += int((batched.argmax(axis=1) == 2).sum())

    def test_fixture_models(self, corpus_entries):
        seen = {"unparsed": 0, "truncated": 0, "abstained": 0, "other": 0}
        for directed in (True, False):
            vocab, pairs = training_set(corpus_entries, 2, directed)
            for mode in ("select_k", "constrained3"):
                X, T, Ys = build_dataset(pairs, vocab, [mode])
                [model] = train([init_model(mode, vocab.size)], X, T, Ys, epochs=60)
                for doc, trees in corpus_entries:
                    for fallback in (True, False):
                        self.check(model, vocab, build_contexts(doc, trees),
                                   fallback, seen)
                        self.check(model, vocab, build_contexts(doc, []),
                                   fallback, seen)
        assert seen["unparsed"]

    def test_random_models_and_contexts(self):
        rng = random.Random(9151)
        seen = {"unparsed": 0, "truncated": 0, "abstained": 0, "other": 0}
        for trial in range(48):
            docs = [random_contexts(rng) for _ in range(4)]
            vocab = build_vocab(collect_patterns(docs), min_count=rng.choice([1, 2]),
                                directed=rng.random() < 0.5)
            model = init_model(("select_k", "constrained3")[trial % 2], vocab.size,
                               hidden=rng.choice([2, 8, 16]), seed=trial,
                               length_scale=rng.choice([0.1, 1.0]))
            for arr in model.params().values():
                arr *= rng.choice([1.0, 30.0])  # flat and peaked outputs
            for contexts in docs:
                for fallback in (True, False):
                    self.check(model, vocab, contexts, fallback, seen)
        assert all(seen.values()), seen


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        vocab = build_vocab(
            [pattern("nsubj"), pattern("nsubj"), pattern("obj"), pattern("obj")],
            min_count=2,
        )
        X, T, Y = TestTraining().separable_dataset(rng, n=30, vocab_size=vocab.size)
        model = init_model("select_k", vocab_size=vocab.size, k=3, seed=9)
        train([model], X, T, [Y], epochs=10, learning_rate=0.1, seed=9)
        save_relnet(tmp_path / "m.relnet", model, vocab)
        loaded, loaded_vocab = load_relnet(tmp_path / "m.relnet")
        assert loaded_vocab.index == vocab.index
        assert loaded_vocab.unknown_index == vocab.unknown_index
        assert loaded.mode == model.mode and loaded.k == model.k
        for name, arr in model.params().items():
            assert np.array_equal(arr, loaded.params()[name]), name
        assert loaded.hyper["learning_rate"] == 0.1

    def test_pattern_direction_round_trips(self, tmp_path):
        model = init_model("select_k", vocab_size=2, k=3, seed=9)
        for directed in (True, False):
            vocab = build_vocab([pattern("nsubj")] * 2, directed=directed)
            assert vocab.directed is directed
            save_relnet(tmp_path / "m.relnet", model, vocab)
            assert load_relnet(tmp_path / "m.relnet")[1].directed is directed
        # a file without the line keeps the directed default
        lines = (tmp_path / "m.relnet").read_text(encoding="utf-8").splitlines(True)
        (tmp_path / "old.relnet").write_text(
            "".join(l for l in lines if not l.startswith("hyper directed")),
            encoding="utf-8",
        )
        assert load_relnet(tmp_path / "old.relnet")[1].directed is True

    @staticmethod
    def saved_text(tmp_path):
        # one sighting is below min_count 2: the vocabulary is unknown only
        model = init_model("select_k", vocab_size=1, k=3, seed=9)
        save_relnet(tmp_path / "m.relnet", model, build_vocab([pattern("nsubj")]))
        return (tmp_path / "m.relnet").read_text(encoding="utf-8")

    @pytest.mark.parametrize("old, new, message, marker", [
        # ``marker`` is on the line the error must name (None: no line)
        ("relnet 1\n", "relnet 2\n", "not a relation-network model file", "relnet 2"),
        ("\nk 3\n", "\ncolour blue\nk 3\n", "expected the 'k' record here", "colour"),
        ("\nk 3\n", "\nk three\n", "invalid literal for int()", "k three"),
        ("\nmin_count 2\n", "\n", "expected the 'min_count' record here", "array W1"),
        ("\narray W1 2 8\n", "\narray W1 2 8\nabc ",
         "weight is not a number: 'abc'", "abc"),
        ("\narray b1 1 8\n", "\narray b1 -1 8\n", "expected 'array b1 1 8' here", "array b1"),
        ("\narray W3 32 3\n", "\narray W3 32 3\nnan ", "weight is not finite: 'nan'", "nan "),
        ("\narray W1 2 8\n", "\narray W1 2 8\n-1e999 ", "weight is not finite: '-1e999'",
         "-1e999"),
        ("\nlength_scale 0.1\n", "\nlength_scale inf\n", "weight is not finite: 'inf'",
         "length_scale inf"),
        ("\nlength_scale 0.1\n", "\nlength_scale -5.0\n",
         "length_scale must be greater than 0, got -5.0", "length_scale -5.0"),
        ("\nlength_scale 0.1\n", "\nlength_scale 0.0\n",
         "length_scale must be greater than 0, got 0.0", "length_scale 0.0"),
        ("\nhyper directed 1\n", "\nhyper directed 'no'\n",
         "hyper directed must be 0 or 1, got \"'no'\"", "hyper directed 'no'"),
        ("\nhyper directed 1\n", "\nhyper directed 1.0\n",
         "hyper directed must be 0 or 1, got '1.0'", "hyper directed 1.0"),
        ("\nk 3\n", "\nk 4\n", "expected 'array W3 40 4' here", "array W3"),
        ("\nk 3\n", "\nk 0\n", "k must be at least 1, got 0", "k 0"),
        ("\nhidden 8\n", "\nhidden 0\n", "hidden must be at least 1, got 0", "hidden 0"),
        # a record out of place or repeated is rejected on its own line
        ("\nmin_count 2\n", "\nmin_count 2\nk 5\n",
         "expected the 'array W1' record here", "k 5"),
        ("\nunknown 0\n", "\nhyper directed 0\nunknown 0\n",
         "repeated record 'hyper directed'", "hyper directed 0"),
        ("\nunknown 0\n", "\npattern\tnsubj↑\t0\npattern\tnsubj↑\t1\nunknown 0\n",
         "repeated record 'pattern nsubj↑'", "pattern\tnsubj↑\t1"),
        ("\narray b1 1 8\n", "\narray b1 0 8\narray b1 1 8\n",
         "expected 'array b1 1 8' here", "array b1 0 8"),
        ("\nk 3\nhidden 8\n", "\nhidden 8\nk 3\n", "expected the 'k' record here",
         "hidden 8"),
        ("\n0.0 0.0 0.0\n", "\n0.0 0.0 0.0\nhyper seed 10\n",
         "expected the file to end after array b3", "hyper seed 10"),
        ("\narray b3 1 3\n0.0 0.0 0.0\n", "\n", "no 'array b3' record; the file ends at",
         None),
        ("\nunknown 0\n", "\nunknown 1\n", "pattern index 1 is outside 0..0", "unknown 1"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, old, new, message,
                                                marker):
        text = self.saved_text(tmp_path).replace(old, new, 1)
        (tmp_path / "m.relnet").write_text(text, encoding="utf-8")
        with pytest.raises(ModelFileError, match=re.escape(message)) as err:
            load_relnet(tmp_path / "m.relnet")
        assert isinstance(err.value, DataError) and isinstance(err.value, ValueError)
        assert str(err.value).startswith(str(tmp_path / "m.relnet"))
        line = text[:text.index(marker)].count("\n") + 1 if marker else None
        assert err.value.line == line

    def test_vocabulary_unlike_its_network_is_rejected(self, tmp_path):
        text = self.saved_text(tmp_path).replace(
            "\nunknown ", "\npattern\textra\t0\nunknown ", 1)
        (tmp_path / "m.relnet").write_text(text, encoding="utf-8")
        with pytest.raises(ModelFileError, match=re.escape(
                "vocab_size 1 does not match its 1 patterns plus unknown")) as err:
            load_relnet(tmp_path / "m.relnet")
        assert str(err.value).startswith(str(tmp_path / "m.relnet"))
        # the count is known, and checked, where the patterns end
        assert err.value.line == text[:text.index("\nunknown ")].count("\n") + 2

    def test_a_shared_pattern_slot_is_rejected(self, tmp_path):
        # two patterns and unknown in a network sized for them: any edit
        # that makes two of them share a slot leaves another slot unused
        model = init_model("select_k", vocab_size=3, k=3, seed=9)
        vocab = build_vocab([pattern("compound"), pattern("nsubj")] * 2)
        assert sorted(vocab.index.values()) == [0, 1] and vocab.unknown_index == 2
        save_relnet(tmp_path / "m.relnet", model, vocab)
        text = (tmp_path / "m.relnet").read_text(encoding="utf-8")
        for old, new in (("\t1\n", "\t0\n"), ("\nunknown 2\n", "\nunknown 0\n")):
            assert text.count(old) == 1
            edited = text.replace(old, new)
            (tmp_path / "x.relnet").write_text(edited, encoding="utf-8")
            with pytest.raises(ModelFileError, match="pattern index 0 is used twice") as err:
                load_relnet(tmp_path / "x.relnet")
            # the error names the line of the second use
            assert err.value.line == edited[:edited.index(new)].count("\n") + 2

    def test_every_truncation_is_a_model_file_error(self, tmp_path):
        lines = self.saved_text(tmp_path).splitlines(True)
        for cut in range(len(lines)):
            (tmp_path / "cut.relnet").write_text("".join(lines[:cut]), encoding="utf-8")
            with pytest.raises(ModelFileError):
                load_relnet(tmp_path / "cut.relnet")

    def test_identical_training_runs_write_identical_files(self, tmp_path):
        rng = np.random.default_rng(8)
        X, T, Y = TestTraining().separable_dataset(rng, n=30)
        vocab = build_vocab([pattern("nsubj")] * 2, min_count=2)
        paths = []
        for name in ("a", "b"):
            model = init_model("select_k", vocab_size=1, k=3, seed=4)
            train([model], X, T, [Y], epochs=8, learning_rate=0.1, seed=4)
            path = tmp_path / f"{name}.relnet"
            save_relnet(path, model, vocab)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


@functools.cache
def _small_model_text() -> str:
    """A model file as save_relnet writes it: two patterns and unknown, two
    hidden units, three candidate slots."""
    model = init_model("select_k", vocab_size=3, k=3, hidden=2, seed=9)
    vocab = build_vocab([pattern("compound"), pattern("nsubj")] * 2)
    with tempfile.TemporaryDirectory() as tmp:
        save_relnet(Path(tmp) / "m.relnet", model, vocab)
        return (Path(tmp) / "m.relnet").read_text(encoding="utf-8")


# what the file's lines and fields are mutated with: the format's record
# names and values, numbers that are out of range or not finite, and noise
_MODEL_TOKENS = st.sampled_from([
    "unitgraph-relnet 1", "mode", "select_k", "constrained3", "k", "hidden",
    "vocab_size", "length_scale", "hyper", "directed", "seed", "pattern", "unknown",
    "min_count", "array", "W1", "b1", "W2", "b2", "W3", "b3", "compound↑", "nsubj↑",
    "0", "1", "2", "3", "4", "8", "-1", "0.5", "-0.0", "1e308", "1e999", "nan", "inf",
    "abc", "", " ", "\t",
]) | st.text(max_size=3)

# each edit: what it does, the line and the field it does it at (taken
# modulo their count), and the text it puts there
_EDITS = st.lists(st.tuples(
    st.sampled_from(["delete", "insert", "duplicate", "overwrite", "delete field",
                     "insert field", "duplicate field", "overwrite field"]),
    st.integers(0, 999), st.integers(0, 999), _MODEL_TOKENS), min_size=1, max_size=4)


def _mutated(text: str, edits) -> str:
    lines = text.splitlines()
    for op, at, field_at, token in edits:
        if op == "insert":
            lines.insert(at % (len(lines) + 1), token)
            continue
        if not lines:
            continue
        i = at % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "overwrite":
            lines[i] = token
        else:
            sep = "\t" if "\t" in lines[i] else " "
            fields = lines[i].split(sep)
            j = field_at % len(fields)
            if op == "delete field":
                del fields[j]
            elif op == "insert field":
                fields.insert(j, token)
            elif op == "duplicate field":
                fields.insert(j, fields[j])
            else:
                fields[j] = token
            lines[i] = sep.join(fields)
    return "".join(line + "\n" for line in lines)


class TestModelFileFuzz:
    """load_relnet returns what it read or raises its ModelFileError: never a
    bare IndexError, KeyError or ValueError."""

    @settings(max_examples=150, deadline=None)
    @given(_EDITS)
    def test_mutated_file_loads_or_is_a_model_file_error(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.relnet"
            path.write_text(_mutated(_small_model_text(), edits), encoding="utf-8")
            try:
                model, vocab = load_relnet(path)
            except ModelFileError:
                # extract reports it as one data error line, and writes nothing
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(["extract", "--corpus", str(CORPUS_DIR), "--out",
                                 str(Path(tmp) / "out"), "--strategy", "nn-free",
                                 "--relnet-model", str(path)])
                assert code == 2
                assert err.getvalue().startswith("data error: ")
                assert err.getvalue().count("\n") == 1
                assert not (Path(tmp) / "out").exists()
                return
            # what loads saves, and what it saves loads again to the same file
            save_relnet(Path(tmp) / "again.relnet", model, vocab)
            saved = (Path(tmp) / "again.relnet").read_bytes()
            save_relnet(Path(tmp) / "third.relnet", *load_relnet(Path(tmp) / "again.relnet"))
            assert (Path(tmp) / "third.relnet").read_bytes() == saved


def reference_build_dataset(pairs, vocab, mode, k=MAX_PERSONS):
    """Training arrays for one mode, each pair featurized for that mode
    alone: the builder ``train`` called once per network before one call
    built the inputs for both."""
    xs, ts, ys = [], [], []
    width = output_width(mode, k)
    for ctx, target, gold in pairs:
        try:
            feats = featurize(ctx, target, vocab, k=k)
        except MissingParseError:
            continue
        y = np.zeros(width)
        if gold in ctx.persons[:k]:
            if mode == "select_k":
                y[ctx.persons.index(gold)] = 1.0
            else:
                left, right = flanking_persons(ctx, target)
                if gold == left:
                    y[0] = 1.0
                elif gold == right:
                    y[1] = 1.0
                else:
                    y[2] = 1.0
        xs.append(feats.slots)
        ts.append(feats.type_onehot)
        ys.append(y)
    if not xs:
        return (np.zeros((0, k, vocab.size + 1)), np.zeros((0, 3)),
                np.zeros((0, width)))
    return np.stack(xs), np.stack(ts), np.stack(ys)


# a parsed drawn sentence has one tree token per three characters, as
# entity starts in it fall every three characters
_TREE_TOKENS = 5


@st.composite
def parsed_gold_documents(draw):
    """``gold_documents`` with a crowd added to each sentence (up to 10
    Persons and 3 targets, each target in a gold edge with one of them),
    so a sentence often holds more than seven Persons, and a random tree
    over some sentences: the others stay unparsed, and some tree tokens
    align to no text."""
    doc, contexts = draw(gold_documents())
    ids = itertools.count(len(doc.entities) + 1)
    rids = itertools.count(len(doc.relations) + 1)

    def entity(etype, lo):
        start, width = lo + 3 * draw(st.integers(0, 4)), draw(st.integers(1, 3))
        doc.entities.append(EntitySpan(f"T{next(ids)}", etype, start, start + width,
                                       "x" * width))
        return doc.entities[-1]

    for lo, _ in (ctx.extent for ctx in contexts):
        crowd = [entity(EntityType.PERSON, lo) for _ in range(draw(st.integers(0, 10)))]
        for _ in range(draw(st.integers(0, 3)) if crowd else 0):
            target = entity(draw(st.sampled_from(TARGET_TYPES)), lo)
            doc.relations.append(RelationEdge(f"R{next(rids)}", type_map(target.etype),
                                              draw(st.sampled_from(crowd)).id, target.id))
    sents = [[Token("w", *ctx.extent, i, 0)] for i, ctx in enumerate(contexts)]
    contexts = build_contexts(doc, [], sents)
    for ctx in contexts:
        if not draw(st.booleans()):
            continue
        order = draw(st.permutations(range(_TREE_TOKENS)))
        heads = [-1] * _TREE_TOKENS
        for i in range(1, _TREE_TOKENS):
            heads[order[i]] = order[draw(st.integers(0, i - 1))]
        labels = draw(st.lists(st.sampled_from(("nsubj", "obj", "nmod")),
                               min_size=_TREE_TOKENS, max_size=_TREE_TOKENS))
        ctx.tree = tree_from_heads(["w"] * _TREE_TOKENS, heads, labels)
        start = ctx.extent[0]
        ctx.tree_spans = [None if draw(st.integers(0, 9)) == 0
                          else (start + 3 * i, start + 3 * i + 3)
                          for i in range(_TREE_TOKENS)]
    return doc, contexts


@given(parsed_gold_documents())
@settings(max_examples=100, deadline=None)
def test_one_pass_dataset_matches_the_per_mode_builder(drawn):
    doc, contexts = drawn
    modes = ("select_k", "constrained3")
    pairs = [(e.context, e.target, e.person)
             for e in gold_pairs(doc, contexts) if e.context is not None]
    for directed in (True, False):
        vocab = build_vocab(collect_patterns([contexts]), 1, directed)
        X, T, Ys = build_dataset(pairs, vocab, modes)
        assert len(Ys) == len(modes)
        for mode, Y in zip(modes, Ys):
            want = reference_build_dataset(pairs, vocab, mode)
            for got, ref in zip((X, T, Y), want):
                assert got.shape == ref.shape
                assert np.array_equal(bits(got), bits(ref)), mode


class TestTrainingSet:
    def test_matches_reference_loop(self, corpus_entries):
        for min_count, directed in ((2, True), (1, False)):
            vocab, pairs = training_set(corpus_entries, min_count, directed)
            # the loop train and bench each ran before training_set existed
            contexts_by_doc = [build_contexts(doc, trees)
                               for doc, trees in corpus_entries]
            ref_vocab = build_vocab(collect_patterns(contexts_by_doc),
                                    min_count=min_count, directed=directed)
            ref_pairs = [(e.context, e.target, e.person)
                         for (doc, _), contexts in zip(corpus_entries, contexts_by_doc)
                         for e in gold_pairs(doc, contexts) if e.context is not None]
            assert vocab == ref_vocab
            assert pairs == ref_pairs and pairs
            modes = ("select_k", "constrained3")
            X, T, Ys = build_dataset(pairs, vocab, modes)
            ref_X, ref_T, ref_Ys = build_dataset(ref_pairs, ref_vocab, modes)
            for got, want in zip((X, T, *Ys), (ref_X, ref_T, *ref_Ys)):
                assert np.array_equal(got, want)

    def test_empty_corpus(self):
        vocab, pairs = training_set([])
        assert vocab.size == 1 and pairs == []
