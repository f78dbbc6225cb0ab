"""The paper's per-word theorems on sampled words past Q_7.

The exhaustive tests stop at n = 7, where Q_n has 135135 words.  Here a
Hypothesis strategy draws words of Q_n at n = 8, 12, 20 and 40 by pair
insertion, and each word is checked against the statistics' definitions,
the Foata-Strehl action and the beta/alpha bijection through the checked
public API, and the unchecked kernels that the identity loops call against
that API.  The insertion rules
behind the P_n and T_n recurrences are checked word by word on all of Q_n
for n <= 5 and on sampled words at n = 10, 20 and 40, and the two slide
kernels against the slice-built words they replaced, on all of Q_n for
n <= 5 and on the sampled words.
"""
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stirlab import actions
from stirlab.actions import alpha, alpha_inverse, beta_set, fs_action, index_sets, orbit
from stirlab.objects import is_stirling
from stirlab.stats import stirling_scans, stirling_stats
from test_stats import stirling_stats_by_definition


def insert_pairs(gaps) -> tuple[int, ...]:
    """The word of Q_n built by pair insertion: for v = 1..n, (v, v) goes
    into gap gaps[v - 1] of the 2v - 1 gaps of the word so far, counted
    from the right end, so all-zero gaps build (1, 1, 2, 2, ...)."""
    word: list[int] = []
    for g in gaps:
        word[len(word) - g:len(word) - g] = (len(word) // 2 + 1,) * 2
    return tuple(word)


def stirling_word(n: int):
    """A uniform word of Q_n: uniform gap draws, each word having exactly one
    sequence of them.  It shrinks towards (1, 1, 2, 2, ...)."""
    return st.tuples(*(st.integers(0, 2 * v - 2) for v in range(1, n + 1))).map(insert_pairs)


ORDERS = [8, 12, 20, 40]
SAMPLED = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def lap_dasc_dp(w) -> tuple[int, int, int]:
    r = stirling_stats(w)
    return r["lap"], r["dasc"], r["dp"]


@pytest.mark.parametrize("n", range(6))
def test_each_word_has_one_sequence_of_gaps(n):
    gaps = itertools.product(*(range(2 * v - 1) for v in range(1, n + 1)))
    words = [insert_pairs(g) for g in gaps]
    assert len(set(words)) == len(words) == len(stirling_scans(n))
    assert set(words) == set(stirling_scans(n))
    assert insert_pairs((0,) * n) == tuple(v for v in range(1, n + 1) for _ in range(2))


@pytest.mark.parametrize("n", ORDERS)
def test_per_word_theorems(n):
    @SAMPLED
    @given(stirling_word(n))
    def check(w):
        # the one-pass scan against each statistic's own definition, and
        # the decompositions asc = lap + dasc and plat = lap + dp
        r = stirling_stats(w)
        assert r == stirling_stats_by_definition(w)
        assert r["asc"] == r["lap"] + r["dasc"] and r["plat"] == r["lap"] + r["dp"]
        lap, dasc, dp = lap_dasc_dp(w)
        s = index_sets(w)
        movable = {w[i - 1] for i in s["dasc"] | s["dp"]}
        # a single toggle keeps lap and moves one unit between dasc and dp
        for v in movable:
            toggled_lap, toggled_dasc, toggled_dp = lap_dasc_dp(fs_action(w, {v}))
            assert toggled_lap == lap
            assert {toggled_dasc - dasc, toggled_dp - dp} == {1, -1}
        # Foata-Strehl: toggling every movable value swaps dasc and dp and
        # keeps lap, and toggling them again gives w back
        moved = fs_action(w, movable)
        assert lap_dasc_dp(moved) == (lap, dp, dasc)
        assert fs_action(moved, movable) == w
        # the orbit representative turns every descent-plateau into a
        # double ascent
        assert lap_dasc_dp(orbit(w)) == (lap, dasc + dp, 0)
        # beta normalization keeps the alpha image, landing on its inverse
        normal = beta_set(w, range(1, n + 1))
        assert alpha(normal) == alpha(w)
        assert normal == alpha_inverse(alpha(w))

    check()


@pytest.mark.parametrize("n", ORDERS)
def test_private_kernels_match_the_checked_api(n):
    @SAMPLED
    @given(stirling_word(n))
    def check(w):
        assert actions._index_sets(w) == index_sets(w)
        assert actions._alpha(w) == alpha(w)
        # the orbit walk that fs-symmetry reads: from the representative, its
        # k-th step toggles v_t, t the lowest set bit of k, of the sorted
        # double-ascent values v_0 < v_1 < ... of the representative
        rep = orbit(w)
        free = sorted(rep[i - 1] for i in index_sets(rep)["dasc"])
        walk = actions._walk(rep, is_stirling)
        previous = next(walk)
        assert previous == rep
        for k, word in enumerate(itertools.islice(walk, 64), 1):
            assert word == fs_action(previous, {free[(k & -k).bit_length() - 1]})
            previous = word

    check()


def fap(w) -> tuple[int]:
    return (stirling_stats(w)["fap"],)


def insertion_changes(w, stats=lap_dasc_dp) -> Counter:
    """The changes of ``stats`` that inserting (n+1, n+1) into each of the
    2n + 1 gaps of w makes, as a multiset."""
    n = len(w) // 2
    before = stats(w)
    return Counter(
        tuple(a - b for a, b in zip(stats(w[:g] + (n + 1, n + 1) + w[g:]), before))
        for g in range(2 * n + 1)
    )


def check_insertion_rule(w):
    # the five cases of P_(n+1)(i,j,k) = i P_n(i,j-1,k) + i P_n(i,j,k-1)
    # + (j+1) P_n(i-1,j+1,k) + (k+1) P_n(i-1,j,k+1) + (2n+3-2i-j-k) P_n(i-1,j,k),
    # as the index recurrence behind tables.p_poly reads them
    lap, dasc, dp = lap_dasc_dp(w)
    assert insertion_changes(w) == +Counter({
        (0, 1, 0): lap,
        (0, 0, 1): lap,
        (1, -1, 0): dasc,
        (1, 0, -1): dp,
        (1, 0, 0): len(w) + 1 - 2 * lap - dasc - dp,
    })
    # the three cases of T(n+1, k) = k T(n, k) + T(n, k-1) + (2n-k+2) T(n, k-2),
    # as tables.t_poly reads them: fap gaps keep fap, one gap adds 1, and
    # the other 2n - fap gaps add 2
    (k,) = fap(w)
    assert insertion_changes(w, fap) == +Counter({(0,): k, (1,): 1, (2,): len(w) - k})


@pytest.mark.parametrize("n", range(6))
def test_insertion_rule_on_every_word(n):
    for w in stirling_scans(n):
        check_insertion_rule(w)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_insertion_rule_on_sampled_words(n):
    SAMPLED(given(stirling_word(n))(check_insertion_rule))()


def slid_left(w, first, v):
    # the slice-built word the left slide kernel made before it moved the
    # letter by one list edit, kept as its reference
    k = first
    while k and w[k - 1] >= v:
        k -= 1
    return w[:k] + (v,) + w[k:first] + w[first + 1:]


def slid_right(w, first, other):
    # the same for the right slide kernel
    return w[:first] + w[first + 1:other + 1] + (w[first],) + w[other + 1:]


def check_slides(w):
    # every movable value of w: a first copy after a larger letter (a beta
    # move, descent-plateaus included) slides left, and the first copy of
    # a double ascent slides right to just after its second copy
    for v in set(w):
        first = w.index(v)
        second = w.index(v, first + 1)
        left = w[first - 1] if first else 0
        if left > v:
            moved = actions._slide_left(w, first, v, is_stirling)
            reference = slid_left(w, first, v)
        elif second > first + 1:
            moved = actions._slide_right(w, first, second, is_stirling)
            reference = slid_right(w, first, second)
        else:
            continue
        assert moved == reference


@pytest.mark.parametrize("n", range(6))
def test_slides_match_the_slice_built_reference_on_every_word(n):
    for w in stirling_scans(n):
        check_slides(w)


@pytest.mark.parametrize("n", ORDERS)
def test_slides_match_the_slice_built_reference_on_sampled_words(n):
    SAMPLED(given(stirling_word(n))(check_slides))()
