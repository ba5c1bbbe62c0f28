"""``pcg64.Generator`` draws exactly what numpy's ``default_rng`` draws."""

import hashlib
import struct

import pytest

from unitgraph.pcg64 import Generator, _R

# 2**200 + 3 has seven 32-bit words, so SeedSequence mixes in the words
# beyond its pool of four
SEEDS = (0, 1, 13, 2**32 - 1, 2**32, 2**200 + 3)


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


def _bits(values):
    """Floats as their IEEE bytes, so -0.0 and 0.0 differ."""
    return struct.pack(f"<{len(values)}d", *values)


def test_normals_match_default_rng_in_the_body_and_the_tail(np):
    tails = 0
    for seed in SEEDS:
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for n in (0, 1, 999, 19_000):
            drawn = ours.standard_normal(n)
            assert _bits(drawn) == ref.standard_normal(n).tobytes(), (seed, n)
            tails += sum(abs(x) > _R for x in drawn)
    assert tails > 0  # the ziggurat's tail branch ran


@pytest.mark.parametrize("seed", SEEDS)
def test_permutations_interleaved_with_normals_match_default_rng(np, seed):
    # an odd count of 32-bit draws leaves half a 64-bit draw kept across
    # the normals that follow, as numpy keeps it
    ours, ref = Generator(seed), np.random.default_rng(seed)
    for n in (0, 1, 2, 70, 1000, 70, 2, 1000):
        assert ours.permutation(n) == ref.permutation(n).tolist(), n
        assert _bits(ours.standard_normal(5)) == ref.standard_normal(5).tobytes(), n


def test_a_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        Generator(-1)


def test_seed_13_draws_are_pinned():
    """The first 1000 normals at the default seed, then a permutation of 70.

    The models' bits rest on these draws, and numpy does not promise that
    its streams stay the same across versions, so this pin needs no numpy."""
    rng = Generator(13)
    normals = _bits(rng.standard_normal(1000))
    order = struct.pack("<70I", *rng.permutation(70))
    assert hashlib.sha256(normals + order).hexdigest() == (
        "a8dee9db47cde5388b0a62ecbb2fa44fe27a26d76c9ce6d20c75276c223b092a")
