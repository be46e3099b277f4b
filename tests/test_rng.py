"""Generator contract and graph models."""

from itertools import count, islice
from math import comb

import pytest

from hamq.errors import BadParameters
from hamq.graph import is_connected
from hamq.rng import (
    _STACK_DRAWS,
    SplitMix64,
    gnm,
    gnp,
    gnps,
    pair_unrank,
    random_connected_gnp,
    random_connected_gnps,
)

from conftest import pairwise_gnp


def test_reference_stream():
    # first outputs of the standard splitmix64 stream from seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_determinism_and_independence_of_streams():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c = SplitMix64(100)
    assert a.next_u64() != c.next_u64()


def test_next_below_and_float_ranges():
    rng = SplitMix64(7)
    for _ in range(1000):
        assert 0 <= rng.next_below(17) < 17
        f = rng.next_float()
        assert 0.0 <= f < 1.0
    with pytest.raises(BadParameters):
        rng.next_below(0)


def test_permutation_is_bijection():
    rng = SplitMix64(21)
    for n in (1, 2, 5, 12):
        assert sorted(rng.permutation(n)) == list(range(n))


def test_pair_unrank_covers_lexicographic_order():
    for n in range(2, 121):
        pairs = [pair_unrank(n, i) for i in range(comb(n, 2))]
        expected = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert pairs == expected, n
    # far past any exhaustive walk, the forward rank of each pair gives its
    # index back: the ends, the first and last pairs of rows, the middle
    for n in (10**6, 10**12):
        total = comb(n, 2)
        row_starts = [u * (n - 1) - u * (u - 1) // 2 for u in (1, 2, n // 3, n - 3, n - 2)]
        for index in {0, 1, total // 2, total - 2, total - 1,
                      *row_starts, *(i - 1 for i in row_starts)}:
            u, v = pair_unrank(n, index)
            assert 0 <= u < v < n
            assert u * (n - 1) - u * (u - 1) // 2 + v - u - 1 == index, (n, index)
    for index in (-1, comb(7, 2)):
        with pytest.raises(BadParameters, match=f"^pair index {index} out of range for n=7$"):
            pair_unrank(7, index)


def test_gnp_determinism_and_extremes():
    g1 = gnp(10, 0.5, SplitMix64(3))
    g2 = gnp(10, 0.5, SplitMix64(3))
    assert g1 == g2
    assert gnp(8, 0.0, SplitMix64(1)).m == 0
    assert gnp(8, 1.0, SplitMix64(1)).m == comb(8, 2)


@pytest.mark.parametrize("n", [0, -1])
def test_gnp_rejects_an_order_below_one_before_drawing(n):
    rng = SplitMix64(5)
    with pytest.raises(BadParameters, match=rf"^graph order must be >= 1, got {n}$"):
        gnp(n, 0.5, rng)
    assert rng.state == SplitMix64(5).state


def test_gnp_matches_the_per_pair_contract():
    # n = 1..70 crosses the byte edges of the packed rows and the 64-bit row
    # word; 2**-53 and 1 - 2**-53 are the smallest nonzero and the largest
    # draw, and a p equal to a draw must leave that pair out (the comparison
    # is a strict <).  Every p is drawn alone and as one member of a mixed-p
    # gnps stream, whose stacks of at most _STACK_DRAWS draws cut it from
    # n = 58 up.
    probabilities = [0.0, 1.0, 0.5, 1 / 3, float("nan"), -1.0, 2.0, 2.0**-53, 1 - 2.0**-53]
    for n in range(1, 71):
        seed = 1_000 + n
        ahead = SplitMix64(seed)
        draws = [ahead.next_float() for _ in range(comb(n, 2))]
        ps = probabilities + draws[len(draws) // 2 : len(draws) // 2 + 1]
        for p in ps:
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            assert gnp(n, p, fast) == pairwise_gnp(n, p, slow), (n, p)
            assert fast.state == slow.state == ahead.state, (n, p)
        fast = [SplitMix64(seed + j) for j in range(len(ps))]
        slow = [SplitMix64(seed + j) for j in range(len(ps))]
        assert list(gnps(n, zip(ps, fast))) == [pairwise_gnp(n, *case) for case in zip(ps, slow)]
        assert [r.state for r in fast] == [r.state for r in slow], n


@pytest.mark.parametrize("n", [2, 8, 9, 64, 65, 200])
def test_gnps_streams_across_the_stack_cap(n):
    size = max(1, _STACK_DRAWS // max(1, comb(n, 2)))
    cases = 2 * size + 3 if n < 64 else size + 2
    ps = [(j % 7) / 6 for j in range(cases)]
    fast = [SplitMix64(50 + j) for j in range(cases)]
    slow = [SplitMix64(50 + j) for j in range(cases)]
    assert list(gnps(n, zip(ps, fast))) == [gnp(n, *case) for case in zip(ps, slow)]
    assert [r.state for r in fast] == [r.state for r in slow]
    assert list(gnps(n, [])) == []


def test_gnps_holds_one_stack_of_an_endless_stream():
    read = count()
    stream = ((0.5, SplitMix64(next(read))) for _ in count())
    first = list(islice(gnps(8, stream), 3))
    assert next(read) == _STACK_DRAWS // comb(8, 2)  # one stack read, no more
    assert first == [gnp(8, 0.5, SplitMix64(s)) for s in range(3)]


@pytest.mark.parametrize("n", [0, -1])
def test_gnps_rejects_an_order_below_one_at_the_first_stack(n):
    assert list(gnps(n, [])) == []
    rng = SplitMix64(5)
    stream = gnps(n, [(0.5, rng)])
    with pytest.raises(BadParameters, match=rf"^graph order must be >= 1, got {n}$"):
        next(stream)
    assert rng.state == SplitMix64(5).state


def test_gnm_edge_counts():
    rng = SplitMix64(5)
    for m in (0, 5, 20, comb(9, 2)):
        assert gnm(9, m, rng).m == m
    with pytest.raises(BadParameters):
        gnm(5, 11, rng)


def test_random_connected():
    rng = SplitMix64(9)
    for _ in range(20):
        assert is_connected(random_connected_gnp(8, 0.4, rng))


def test_random_connected_gnps_redraws_each_case_alone():
    # at p = 0.1 most first draws at n = 9 are disconnected, so most cases redraw
    ps = [0.1 + 0.05 * (j % 5) for j in range(60)]
    fast = [SplitMix64(300 + j) for j in range(60)]
    slow = [SplitMix64(300 + j) for j in range(60)]
    redraws = sum(not is_connected(gnp(9, p, SplitMix64(300 + j))) for j, p in enumerate(ps))
    assert 20 < redraws < 60
    assert (list(random_connected_gnps(9, zip(ps, fast)))
            == [random_connected_gnp(9, *case) for case in zip(ps, slow)])
    assert [r.state for r in fast] == [r.state for r in slow]


def test_random_connected_gives_up_after_10000_tries():
    with pytest.raises(BadParameters, match=r"no connected gnp\(2,0.0\) sample in 10000 tries"):
        random_connected_gnp(2, 0.0, SplitMix64(1))
    rng = SplitMix64(1)
    with pytest.raises(BadParameters, match=r"no connected gnp\(2,0.0\) sample in 10000 tries"):
        list(random_connected_gnps(2, [(0.0, rng)]))
    assert rng.state == (1 + 10_000 * 0x9E3779B97F4A7C15) % 2**64
