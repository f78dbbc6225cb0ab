"""The four object classes and their exhaustive streams.

Every object is the plain tuple its stream yields:

- Stirling permutations of order n: words on the multiset {1,1,...,n,n} in
  which every entry lying strictly between the two copies of a value exceeds
  that value.  There are (2n-1)!! of them, each a tuple of 2n letters.
- signed permutations (the hyperoctahedral group B_n), 2^n n! of them, each
  the tuple of nonzero values pi(1..n);
- perfect matchings of [2n], again (2n-1)!! of them, each a tuple of n
  pairs (a, b) with a < b, sorted by smaller entry;
- plain permutations of [n] in one-line notation.

Streams are deterministic, pure and restartable.  The Stirling stream is
generated by pair insertion: each word of order n-1 receives the pair (n, n)
in each of its 2n-1 gaps, scanned from the rightmost gap to the leftmost, so
``stirling_words(2)`` yields 1122, 1221, 2211 in that order.  Only Q_n,
n <= 7, is memoized (the scan tables of ``stats`` key on its words).  Every
memo of the package is made by :func:`_memo` and emptied by
:func:`clear_memos`.  The predicates decide membership; :func:`_order`, the
one order gate, raises ValueError unless n is a nonnegative int (a stream,
at its first ``next``), :func:`_stirling_word`, the one word gate, unless a
word is in some Q_n, and :func:`_tuple` unless a word or value set is iterable.
"""
from __future__ import annotations

import itertools
from collections.abc import Sized
from functools import lru_cache
from typing import Iterator, Sequence

Word = tuple[int, ...]
Block = tuple[int, int]

# the largest memoized Q_n (~135k words at 7); no other class is memoized
_STIRLING_CACHE_MAX = 7
_MEMOS: list = []  # every memo of the package: unbounded, keyed by value and type


def _memo(fn):
    _MEMOS.append(memo := lru_cache(maxsize=None, typed=True)(fn))
    return memo


def clear_memos() -> None:
    """Empty every memo of the package, so that the next call is cold."""
    for memo in _MEMOS:
        memo.cache_clear()


def _order(n: int) -> int:
    """n, when it is a nonnegative int and not a bool; ValueError otherwise."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative int, got {n!r}")
    return n


def _tuple(seq, what: str) -> tuple:
    """seq as a tuple; ValueError "not <what>: <seq>" unless it is iterable."""
    try:
        return tuple(seq)
    except TypeError:
        raise ValueError(f"not {what}: {seq!r}") from None


def is_stirling(word: Sequence[int]) -> bool:
    """True iff ``word`` is a Stirling permutation of some order n >= 0.

    A malformed multiset (values not covering [n] exactly twice), or no
    sequence at all, returns False rather than raising.

    >>> is_stirling([1, 2, 2, 1]), is_stirling([1, 2, 1, 2]), is_stirling(5)
    (True, False, False)
    """
    if not isinstance(word, Sized) or len(word) % 2:
        return False
    n = len(word) // 2
    seen = [False] * (n + 1)
    stack: list[int] = []  # the open values below the innermost one
    top = 0  # the innermost open value, 0 when none is open
    for v in word:
        if type(v) is not int or v < 1 or v > n:
            return False
        if v == top:
            # second occurrence closing the innermost open value
            top = stack.pop()
        elif v > top and not seen[v]:
            # first occurrence, opening inside a smaller context only
            seen[v] = True
            stack.append(top)
            top = v
        else:
            # a first occurrence below the innermost open value, a second
            # occurrence of a value that is not innermost, or a third one
            # (open values lie below top, closed ones were seen)
            return False
    # 2n letters, each value at most twice and every pair closed
    return top == 0


def _stirling_word(sigma: Sequence[int]) -> Word:
    """sigma as a tuple, when it is a Stirling permutation; ValueError
    naming it otherwise."""
    word = _tuple(sigma, "a Stirling permutation")
    if not is_stirling(word):
        raise ValueError(f"not a Stirling permutation: {word}")
    return word


def _is_permutation(values: Sequence[int]) -> bool:
    """Whether ``values`` are the ints 1..m in some order, m = len(values)."""
    return (all(type(v) is int for v in values)
            and sorted(values) == list(range(1, len(values) + 1)))


def _is_signed(values: Sequence[int]) -> bool:
    # the type test comes before abs, since abs(True) is the int 1
    return _is_permutation([abs(v) if type(v) is int else v for v in values])


def _is_matching(blocks: tuple[tuple[int, ...], ...]) -> bool:
    """Whether ``blocks`` partition [2n] into pairs of ints."""
    return (all(len(b) == 2 for b in blocks)
            and _is_permutation([e for b in blocks for e in b]))


# ---------------------------------------------------------------------------
# the streams


def stirling_words(n: int) -> Iterator[Word]:
    """All Stirling permutations of order n, in pair-insertion order; the
    stack holds words below order n, each with its next gap to fill."""
    n = _order(n)
    if n == 0:
        yield ()
        return
    stack = [((), 0)]
    while stack:
        parent, p = stack.pop()
        m = len(parent) // 2 + 1  # the pair the gaps of parent receive
        if m == n:
            for q in range(p, -1, -1):
                yield parent[:q] + (n, n) + parent[q:]
            continue
        if p:
            stack.append((parent, p - 1))
        stack.append((parent[:p] + (m, m) + parent[p:], 2 * m))


def signed_words(n: int) -> Iterator[Word]:
    """All of B_n: permutations in lexicographic order, signs +1 before -1."""
    n = _order(n)
    for perm in itertools.permutations(range(1, n + 1)):
        yield from itertools.product(*[(v, -v) for v in perm])


def matching_blocks(n: int) -> Iterator[tuple[Block, ...]]:
    """All perfect matchings of [2n], built from order n-1 (the only one
    held): 1 is paired with each b in increasing order, then come the
    matchings of [2n-2] relabelled onto [2..2n] minus b, in their order.
    A held level below n is a list of tuples of int codes, the block
    (i, j) coded as i * w + j with w = 2n + 1; block tuples are built only
    at order n."""
    n = _order(n)
    w = 2 * n + 1
    level = [()]
    for m in range(1, n):
        level = list(_next_matchings(level, m, w, lambda i, j: i * w + j))
    yield from _next_matchings(level, n, w, lambda i, j: (i, j)) if n else level


def _next_matchings(prev: list, m: int, w: int, block) -> Iterator[tuple]:
    # prev holds the coded matchings of [2m-2]; relabel maps each code to
    # block(label[i], label[j]), one shared entry per block
    for b in range(2, 2 * m + 1):
        label = [0, *(x for x in range(2, 2 * m + 1) if x != b)]
        relabel = [None] * ((2 * m - 2) * w)
        for j in range(2, 2 * m - 1):
            for i in range(1, j):
                relabel[i * w + j] = block(label[i], label[j])
        head, get = block(1, b), relabel.__getitem__
        for tail in prev:
            yield (head, *map(get, tail))


def permutation_words(n: int) -> Iterator[Word]:
    """All permutations of [n] in lexicographic order."""
    n = _order(n)
    yield from itertools.permutations(range(1, n + 1))


# each class name and its raw stream, never memoized; the CLI's enumerate
# draws from it, and its keys are the CLI's class choices
STREAMS = {
    "stirling": stirling_words,
    "signed": signed_words,
    "matching": matching_blocks,
    "permutation": permutation_words,
}
# the largest n each class enumerates unless the caller raises the limit:
# distribution's max_n and the CLI's --bound
DEFAULT_BOUNDS = {"stirling": 8, "signed": 7, "matching": 8, "permutation": 9}


@_memo
def _cached_objects(klass: str, n: int) -> tuple:
    return tuple(STREAMS[klass](n))


def iter_objects(klass: str, n: int):
    """Stream the raw objects of a class, memoizing only Q_n for n <= 7."""
    if not isinstance(klass, str) or klass not in STREAMS:
        raise ValueError(f"unknown object class: {klass!r}")
    n = _order(n)
    if klass == "stirling" and n <= _STIRLING_CACHE_MAX:
        return iter(_cached_objects(klass, n))
    return STREAMS[klass](n)

