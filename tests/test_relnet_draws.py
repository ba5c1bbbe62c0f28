"""The random draws a relation network's bits rest on, pinned without numpy.

``init_model`` and ``train`` draw from ``random.Random(seed)``.  Python keeps
``random()``'s sequence for a seed across versions, but not ``shuffle``'s, so
this pin catches an interpreter whose draws would change the model files."""

import hashlib
import math
import random
import struct

import pytest

from unitgraph.relnet import init_model


def test_seed_13_draws_are_pinned():
    """The initial weights of a constrained3 network at the default seed,
    then the first epoch order ``train`` draws for 70 examples."""
    values = []
    for weights in init_model("constrained3", 12, seed=13).params().values():
        for row in weights:
            values.extend(row if isinstance(row, tuple) else (row,))
    order = list(range(70))
    random.Random(13).shuffle(order)
    data = struct.pack(f"<{len(values)}d70I", *values, *order)
    assert hashlib.sha256(data).hexdigest() == (
        "2ed1bb954f04c3e879349043919d5fde2dec7435354127cd94396cc5c2051abd")


# 2**200 + 3 has seven 32-bit words: random.Random hashes every word of a
# large seed into its state, not only the low ones
SEEDS = (0, 1, 13, 2**32 - 1, 2**32, 2**200 + 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_weights_are_irwin_hall_draws_in_layer_and_row_order(seed):
    """W1, W2 and W3, row by row, each weight 0.1 times 12 uniforms added
    left to right less 6; the biases start at zero."""
    model = init_model("select_k", 5, k=3, hidden=4, seed=seed)
    r = random.Random(seed).random
    for name, weights in model.params().items():
        if name.startswith("b"):
            assert set(weights) == {0.0}, name
            continue
        for row in weights:
            for w in row:
                total = r()
                for _ in range(11):
                    total += r()
                assert w == 0.1 * (total - 6.0), name
                assert -0.6 <= w <= 0.6, name


def test_weights_spread_with_mean_0_and_sd_0_1():
    """12 uniforms have variance 1, so the weights are about N(0, 0.1**2)."""
    values = [w for name, rows in init_model("constrained3", 2000, seed=13).params().items()
              if name.startswith("W") for row in rows for w in row]
    mean = math.fsum(values) / len(values)
    sd = math.sqrt(math.fsum((w - mean) ** 2 for w in values) / len(values))
    assert len(values) > 16_000
    assert abs(mean) < 0.005
    assert abs(sd - 0.1) < 0.005


def test_another_seed_draws_other_weights():
    first, second = (init_model("constrained3", 12, seed=s).params()["W1"]
                     for s in (13, 14))
    assert len(first) == len(second) and all(
        a != b for row_a, row_b in zip(first, second) for a, b in zip(row_a, row_b))
