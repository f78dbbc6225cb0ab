"""Enumerator tests: counts against independent oracles, validity, order."""
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from stirlab import objects
from stirlab.objects import (
    is_stirling,
    iter_objects,
    matching_blocks,
    permutation_words,
    signed_words,
    stirling_words,
)
from stirlab.stats import stirling_scans

import reference as ref
from reference import is_stirling as brute_is_stirling, odd_double_factorial


@pytest.mark.parametrize(
    "word,expected",
    [
        ((1, 2, 2, 1), True),
        ((1, 2, 1, 2), False),
        ((1, 2, 2, 1, 3, 3), True),
        ((1, 1), True),
        ((), True),
        ((2, 2), False),  # malformed multiset
        ((1, 1, 1, 1), False),
        ((0, 0), False),
        ((1, 3, 3, 2, 2, 1), True),
    ],
)
def test_is_stirling_cases(word, expected):
    assert is_stirling(word) is expected
    assert brute_is_stirling(word) is expected


def test_is_stirling_matches_oracle_on_all_multiset_words():
    for n in range(4):
        for word in set(itertools.permutations(2 * [*range(1, n + 1)])):
            assert is_stirling(word) == brute_is_stirling(word)


# arbitrary int lists: odd lengths, 0, negatives, out-of-range values, True
_letters = st.one_of(st.integers(-2, 6), st.just(True))
_multiset_words = st.integers(0, 5).flatmap(lambda n: st.permutations(2 * [*range(1, n + 1)]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_letters, max_size=11), _multiset_words))
def test_is_stirling_matches_oracle_on_arbitrary_lists(word):
    assert is_stirling(word) == brute_is_stirling(word)


def test_stirling_counts_match_double_factorial():
    for n in range(7):
        assert sum(1 for _ in stirling_words(n)) == odd_double_factorial(n)
    assert sum(1 for _ in stirling_words(7)) == 135135
    assert sum(1 for _ in stirling_words(8)) == odd_double_factorial(8) == 2027025


def test_stirling_words_are_valid_and_distinct():
    for n in range(7):
        words = list(stirling_words(n))
        assert len(set(words)) == len(words)
        assert all(brute_is_stirling(w) for w in words)


def test_stirling_enumeration_order():
    assert list(stirling_words(1)) == [(1, 1)]
    assert list(stirling_words(2)) == [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]
    # the first child of each parent inserts the new pair at the end
    q3 = list(stirling_words(3))
    assert q3[0] == (1, 1, 2, 2, 3, 3)
    assert q3[5] == (1, 2, 2, 1, 3, 3)


def test_stirling_words_follow_pair_insertion():
    for n in range(7):
        assert tuple(stirling_words(n)) == ref.stirling_words(n)


def test_a_deep_order_starts_at_once():
    # the stream nests no generator per order, so order 1200 is no RecursionError
    assert next(stirling_words(1200)) == tuple(v for v in range(1, 1201) for _ in "ab")


def test_signed_counts_and_order():
    assert list(signed_words(1)) == [(1,), (-1,)]
    assert sum(1 for _ in signed_words(2)) == 8
    assert sum(1 for _ in signed_words(3)) == 48
    words = list(signed_words(3))
    assert len(set(words)) == len(words)
    assert all(sorted(map(abs, w)) == [1, 2, 3] for w in words)


def test_matching_counts_and_order():
    assert list(matching_blocks(1)) == [((1, 2),)]
    assert list(matching_blocks(2)) == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]
    assert sum(1 for _ in matching_blocks(4)) == 105  # 7!! oracle
    for blocks in matching_blocks(3):
        flat = sorted(e for b in blocks for e in b)
        assert flat == list(range(1, 7))


@pytest.mark.parametrize("n", range(8))  # 7: matching-M and matching-N at max_bound
def test_matching_order_matches_the_recursive_reference(n):
    assert list(matching_blocks(n)) == list(ref.matchings(n))


@pytest.mark.parametrize("n", [-1, True, 1.5, "3"], ids=repr)
@pytest.mark.parametrize("make", [stirling_words, signed_words, matching_blocks,
                                  permutation_words], ids=lambda f: f.__name__)
def test_a_bad_order_raises_on_first_next(make, n):
    stream = make(n)  # a generator: nothing runs yet
    message = rf"^n must be a nonnegative int, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        next(stream)


def test_a_bool_order_never_reaches_the_memo():
    # lru_cache takes True for the key 1, so a True let through memoized the
    # word (True, True) as Q_1, and the scan table of Q_1 keyed on it
    objects._cached_objects.cache_clear()
    stirling_scans.cache_clear()
    with pytest.raises(ValueError, match=r"^n must be a nonnegative int, got True$"):
        iter_objects("stirling", True)
    scans = stirling_scans(1)
    assert list(scans) == [(1, 1)]
    assert all(map(is_stirling, scans))
    # the scan memo holds 1 now, and True still meets the gate
    with pytest.raises(ValueError, match=r"^n must be a nonnegative int, got True$"):
        stirling_scans(True)


@pytest.mark.parametrize("klass", ["widget", ["stirling"], {"stirling": 1}], ids=repr)
def test_an_unknown_class_is_named(klass):
    # a list or dict is unhashable: a dict lookup would raise TypeError
    message = rf"^unknown object class: {re.escape(repr(klass))}$"
    with pytest.raises(ValueError, match=message):
        iter_objects(klass, 2)


def test_permutation_counts():
    assert list(permutation_words(0)) == [()]
    assert sum(1 for _ in permutation_words(3)) == 6
    assert sum(1 for _ in permutation_words(4)) == 24


def test_streams_are_restartable():
    gen = stirling_words(3)
    first = list(gen)
    assert list(stirling_words(3)) == first


def test_signed_words_order_unchanged():
    # the order of the definition: permutations in lexicographic order, then
    # the sign patterns of itertools.product((1, -1), repeat=n)
    for n in range(6):
        assert list(signed_words(n)) == ref.signed_words(n)
