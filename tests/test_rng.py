"""`generate.Rng`, the standard-library stream the generator draws from:
numpy's `default_rng` draw for draw, pinned without numpy, and closed to
ranges ifbench never draws."""

import random

import pytest

from ifbench.generate import Rng

# the first ten draws of three seeds, in this order of calls
_CALLS = ("7", "random", "1", "20", "4294967295", "random", "2147483653",
          "1000", "random", "3")
GOLDEN_DRAWS = {
    5: [4, 0.8079407897364937, 0, 16, 2013703615, 0.2858013800881416,
        596836680, 383, 0.40847320541999865, 0],
    (17, 8, 15): [1, 0.27394231405089076, 0, 15, 237174114,
                  0.8324795388142505, 627059813, 119, 0.4334117972198789, 1],
    2**64 + 1: [6, 0.22334387706847014, 0, 13, 3264419155, 0.1896719694289939,
                1738646389, 194, 0.6041912080299607, 0],
}


def _draw(rng, call):
    return rng.random() if call == "random" else int(rng.integers(int(call)))


@pytest.mark.parametrize("seed", list(GOLDEN_DRAWS), ids=str)
def test_first_draws_match_golden(seed):
    rng = Rng(list(seed) if isinstance(seed, tuple) else seed)
    assert [_draw(rng, call) for call in _CALLS] == GOLDEN_DRAWS[seed]


def test_draws_match_numpy_default_rng():
    """Mixed `integers` and `random` calls, so the spare half of a 64-bit
    draw is carried across both; n = 2**31 + 5 rejects about half of its
    32-bit draws."""
    np = pytest.importorskip("numpy")
    picks = random.Random(2024)
    seeds = [0, 1, 5, 17, 99, 2**32, 2**64 + 1, [], [17, 0, 0], [17, 8, 15],
             [18, 3, 2], [1, 2, 3, 4, 5, 6]]
    seeds += [[picks.randrange(2**40), picks.randrange(9), picks.randrange(16)]
              for _ in range(40)]
    ranges = [1, 2, 3, 7, 20, 100, 1000, 2**31 + 5, 2**32 - 1]
    for seed in seeds:
        ours, theirs = Rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            call = ("random" if picks.random() < 0.2
                    else str(picks.choice(ranges)))
            assert _draw(ours, call) == _draw(theirs, call), (seed, call)


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_integers_outside_drawn_ranges_raise(n):
    with pytest.raises(ValueError, match=r"n must be in \[1, 2\*\*32\)"):
        Rng(5).integers(n)


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="negative seed -1"):
        Rng([17, -1, 0])
