"""Combinatorial carrier types and their exhaustive enumerators.

Four families:

- Stirling permutations of order n: words on the multiset {1,1,...,n,n} in
  which every entry lying strictly between the two copies of a value exceeds
  that value.  There are (2n-1)!! of them.
- signed permutations (the hyperoctahedral group B_n), 2^n n! of them;
- perfect matchings of [2n], again (2n-1)!! of them;
- plain permutations of [n].

Enumerators are deterministic, pure and restartable.  The Stirling stream is
generated by pair insertion: each word of order n-1 receives the pair (n, n)
in each of its 2n-1 gaps, scanned from the rightmost gap to the leftmost, so
``stirling_words(2)`` yields 1122, 1221, 2211 in that order.  Only Q_n,
n <= 7, is memoized (the scan tables of ``stats`` key on its words).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

Word = tuple[int, ...]
Block = tuple[int, int]

# the largest memoized Q_n (~135k words at 7); no other class is memoized
_STIRLING_CACHE_MAX = 7


def is_stirling(word: Sequence[int]) -> bool:
    """True iff ``word`` is a Stirling permutation of some order n >= 0.

    A malformed multiset (values not covering [n] exactly twice) returns
    False rather than raising.

    >>> is_stirling([1, 2, 2, 1]), is_stirling([1, 2, 1, 2])
    (True, False)
    """
    if len(word) % 2:
        return False
    n = len(word) // 2
    seen = [False] * (n + 1)
    stack: list[int] = []  # the open values below the innermost one
    top = 0  # the innermost open value, 0 when none is open
    for v in word:
        if not isinstance(v, int) or v < 1 or v > n:
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


@dataclass(frozen=True)
class StirlingPermutation:
    """A Stirling permutation; ``word`` holds the 2n letters, 1-based values.

    The constructor trusts its input; use :meth:`from_word` for untrusted
    data.
    """

    word: Word

    @classmethod
    def from_word(cls, word: Sequence[int]) -> StirlingPermutation:
        w = tuple(word)
        if not is_stirling(w):
            raise ValueError(f"not a Stirling permutation: {w}")
        return cls(w)

    @property
    def order(self) -> int:
        return len(self.word) // 2

    def __str__(self) -> str:
        if self.order <= 9:
            return "".join(str(v) for v in self.word)
        return " ".join(str(v) for v in self.word)


@dataclass(frozen=True)
class SignedPermutation:
    """An element of B_n: values pi(1..n), nonzero, |values| a permutation."""

    values: Word

    @classmethod
    def from_values(cls, values: Sequence[int]) -> SignedPermutation:
        v = tuple(values)
        if not _is_signed(v):
            raise ValueError(f"not a signed permutation: {v}")
        return cls(v)

    @property
    def order(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        if self.order <= 9:
            return "".join(str(v) for v in self.values)
        return " ".join(str(v) for v in self.values)


def _is_signed(values: Sequence[int]) -> bool:
    if any(not isinstance(v, int) or v == 0 for v in values):
        return False
    return sorted(abs(v) for v in values) == list(range(1, len(values) + 1))


@dataclass(frozen=True)
class PerfectMatching:
    """A partition of [2n] into n pairs, stored sorted by smaller entry."""

    blocks: tuple[Block, ...]

    @classmethod
    def from_blocks(cls, blocks) -> PerfectMatching:
        bs = tuple(sorted(tuple(sorted(b)) for b in blocks))
        flat = [e for b in bs for e in b]
        if any(len(b) != 2 for b in bs) or sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError(f"not a perfect matching of [2n]: {blocks}")
        return cls(bs)

    @property
    def order(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return ",".join("{%d,%d}" % b for b in self.blocks)


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation."""

    values: Word

    @classmethod
    def from_values(cls, values: Sequence[int]) -> Permutation:
        v = tuple(values)
        if sorted(v) != list(range(1, len(v) + 1)):
            raise ValueError(f"not a permutation of [n]: {v}")
        return cls(v)

    @property
    def order(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        if self.order <= 9:
            return "".join(str(v) for v in self.values)
        return " ".join(str(v) for v in self.values)


# ---------------------------------------------------------------------------
# raw word streams (the fast layer; enumerate_* wraps these in carrier types)


def stirling_words(n: int) -> Iterator[Word]:
    """All Stirling permutations of order n, in pair-insertion order."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        yield ()
        return
    for parent in stirling_words(n - 1):
        for p in range(len(parent), -1, -1):
            yield parent[:p] + (n, n) + parent[p:]


def signed_words(n: int) -> Iterator[Word]:
    """All of B_n: permutations in lexicographic order, signs +1 before -1."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    for perm in itertools.permutations(range(1, n + 1)):
        yield from itertools.product(*[(v, -v) for v in perm])


def matching_blocks(n: int) -> Iterator[tuple[Block, ...]]:
    """All perfect matchings of [2n], built from order n-1 (the only one
    held): 1 is paired with each b in increasing order, then come the
    matchings of [2n-2] relabelled onto [2..2n] minus b, in their order."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    level = [()]
    for m in range(1, n):
        level = list(_next_matchings(level, m))
    yield from _next_matchings(level, n) if n else level


def _next_matchings(prev: list, m: int) -> Iterator[tuple[Block, ...]]:
    for b in range(2, 2 * m + 1):
        label = [0, *(x for x in range(2, 2 * m + 1) if x != b)]
        pairs = {(i, j): (label[i], label[j]) for j in range(2, 2 * m - 1) for i in range(1, j)}
        head = ((1, b),)
        for tail in prev:
            yield head + tuple(map(pairs.__getitem__, tail))


def permutation_words(n: int) -> Iterator[Word]:
    """All permutations of [n] in lexicographic order."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    yield from itertools.permutations(range(1, n + 1))


_STREAMS = {
    "stirling": stirling_words,
    "signed": signed_words,
    "matching": matching_blocks,
    "permutation": permutation_words,
}


@lru_cache(maxsize=None)
def _cached_objects(klass: str, n: int) -> tuple:
    return tuple(_STREAMS[klass](n))


def iter_objects(klass: str, n: int):
    """Stream the raw objects of a class, memoizing only Q_n for n <= 7."""
    if klass not in _STREAMS:
        raise ValueError(f"unknown object class: {klass!r}")
    if klass == "stirling" and n <= _STIRLING_CACHE_MAX:
        return iter(_cached_objects(klass, n))
    return _STREAMS[klass](n)


# ---------------------------------------------------------------------------
# typed enumerators


def enumerate_stirling(n: int) -> Iterator[StirlingPermutation]:
    """Each element of Q_n exactly once ((2n-1)!! in total)."""
    return (StirlingPermutation(w) for w in stirling_words(n))


def enumerate_signed(n: int) -> Iterator[SignedPermutation]:
    """Each element of B_n exactly once (2^n n! in total)."""
    return (SignedPermutation(w) for w in signed_words(n))


def enumerate_matchings(n: int) -> Iterator[PerfectMatching]:
    """Each perfect matching of [2n] exactly once ((2n-1)!! in total)."""
    return (PerfectMatching(b) for b in matching_blocks(n))


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """Each permutation of [n] exactly once (n! in total)."""
    return (Permutation(w) for w in permutation_words(n))
