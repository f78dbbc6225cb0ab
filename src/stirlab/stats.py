"""Statistics on Stirling permutations, signed permutations, matchings and
permutations, plus their exact joint distributions.

Boundary convention for a Stirling word sigma_1..sigma_2n: a virtual 0 sits
at both ends.  Ascents read the pairs (sigma_i, sigma_{i+1}) for
0 <= i <= 2n-1, descents for 1 <= i <= 2n, plateaus for 1 <= i <= 2n-1, so
the first padded pair is always an ascent, the last always a descent, and
asc + des + plat = 2n + 1.  Under the same padding,

    asc = lap + dasc      and      plat = lap + dp

hold index by index: every ascent pair ends at a left ascent-plateau or a
double ascent, every plateau is a left ascent-plateau or a descent-plateau.

Stable statistic names: asc, des, plat, ap, lap, fap, dasc, dp (Stirling);
desA, desB, fdes, fasc (signed); el, ol (matching); des (permutation).

Objects are the plain tuples the streams of ``objects`` yield (any sequence
is accepted), and their statistics plain values: :func:`stirling_stats`,
:func:`signed_stats` and :func:`matching_stats` return a dict keyed by the
names of ``STATS_BY_CLASS``, in that order, after checking their input
(ValueError on a bad one), as :func:`perm_des` does; the ``*_stat_record``
functions return the same dict and trust it.

The naive Stirling scan runs once per word: :func:`stirling_scans`, a memo
per order, feeds the distributions and identities.  B_n is counted by fdes =
2 desA + [pi(1) < 0] alone, which fixes the other signed statistics.  Every
scan is one plain loop per object, no generator, slice or ``map`` made per
object: CPython runs that form fastest, and verify scans all of B_7.
"""
from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .errors import ResourceLimitError
from .objects import (
    DEFAULT_BOUNDS,
    _STIRLING_CACHE_MAX,
    _is_matching,
    _is_permutation,
    _is_signed,
    _memo,
    _order,
    _stirling_word,
    _tuple,
    iter_objects,
)

STIRLING_STATS = ("asc", "des", "plat", "ap", "lap", "fap", "dasc", "dp")
SIGNED_STATS = ("desA", "desB", "fdes", "fasc")
MATCHING_STATS = ("el", "ol")
PERMUTATION_STATS = ("des",)

STATS_BY_CLASS = {
    "stirling": STIRLING_STATS,
    "signed": SIGNED_STATS,
    "matching": MATCHING_STATS,
    "permutation": PERMUTATION_STATS,
}

def _stirling_scan(word: Sequence[int]) -> tuple[int, ...]:
    """The eight Stirling statistics of a word assumed valid, in the order of
    STIRLING_STATS, from one pass over the 0-padded neighbours of each
    letter."""
    asc = des = plat = lap = dasc = dp = 0
    prev = 0  # sentinel sigma_0
    for cur, nxt in zip(word, (*word[1:], 0)):  # sentinel sigma_{2n+1}
        if prev < cur:
            asc += 1  # the pair (0, sigma_1) is always an ascent
        if cur > nxt:
            des += 1  # includes the final padded pair, always a descent
        elif cur == nxt:
            plat += 1
            if prev < cur:
                lap += 1
            elif prev > cur:
                dp += 1
        elif prev < cur:
            dasc += 1
        prev = cur
    # a left ascent-plateau at position 1 is not an ascent-plateau
    first = 1 if len(word) >= 2 and word[0] == word[1] else 0
    ap = lap - first
    return (asc, des, plat, ap, lap, 2 * ap + first, dasc, dp)


def stirling_stat_record(word: Sequence[int]) -> dict[str, int]:
    """All eight Stirling statistics of a word assumed valid (one pass)."""
    return dict(zip(STIRLING_STATS, _stirling_scan(word)))


def stirling_stats(sigma: Sequence[int]) -> dict[str, int]:
    """Statistics of a Stirling permutation; invalid input raises ValueError."""
    return stirling_stat_record(_stirling_word(sigma))


def _fdes(values: Sequence[int]) -> int:
    fdes = 1 if values[0] < 0 else 0  # an int, never the bool values[0] < 0
    prev = values[0]
    for cur in values:
        if prev > cur:
            fdes += 2
        prev = cur
    return fdes


def _signed_record(n: int, fdes: int) -> tuple[int, ...]:
    # desA and [pi(1) < 0] are the quotient and remainder of fdes by 2
    des_a, neg_first = divmod(fdes, 2)
    return (des_a, des_a + neg_first, fdes, 2 * n - 1 - fdes)


def _signed_scan(values: Sequence[int]) -> tuple[int, ...]:
    return _signed_record(len(values), _fdes(values))


def signed_stat_record(values: Sequence[int]) -> dict[str, int]:
    """desA/desB/fdes/fasc of a signed permutation assumed valid, n >= 1."""
    return dict(zip(SIGNED_STATS, _signed_scan(values)))


def signed_stats(pi: Sequence[int]) -> dict[str, int]:
    """Statistics of a signed permutation; invalid or empty input raises."""
    values = _tuple(pi, "a signed permutation")
    if len(values) == 0:
        raise ValueError("signed statistics need n >= 1")
    if not _is_signed(values):
        raise ValueError(f"not a signed permutation: {values}")
    return signed_stat_record(values)


def _permutation_scan(values: Sequence[int]) -> tuple[int]:
    des = 0
    prev = values[0] if values else 0
    for cur in values:
        if prev > cur:
            des += 1
        prev = cur
    return (des,)


def perm_des(pi: Sequence[int]) -> int:
    """Number of descents of a permutation of [n]; invalid input raises.

    >>> perm_des((4, 3, 5, 6, 2, 1))
    3
    """
    values = _tuple(pi, "a permutation of [n]")
    if not _is_permutation(values):
        raise ValueError(f"not a permutation of [n]: {values}")
    return _permutation_scan(values)[0]


def _matching_scan(blocks) -> tuple[int, int]:
    el = 0
    for a, b in blocks:  # either entry of a block may be the larger
        if (b if b > a else a) % 2 == 0:
            el += 1
    return (el, len(blocks) - el)


def matching_stat_record(blocks) -> dict[str, int]:
    return dict(zip(MATCHING_STATS, _matching_scan(blocks)))


def matching_stats(blocks) -> dict[str, int]:
    """Block counts by parity of the larger entry; invalid input raises.

    Blocks may come in any order, and each block's entries too.
    """
    try:
        bs = tuple(map(tuple, blocks))
    except TypeError:  # a block that is not a sequence, as in (1, 2)
        bs = None
    if bs is None or not _is_matching(bs):
        raise ValueError(f"not a perfect matching of [2n]: {blocks}")
    return matching_stat_record(bs)


# the tuple-returning scan of each class but B_n, which is counted by fdes;
# fields in STATS_BY_CLASS order
_SCANS = {
    "stirling": _stirling_scan,
    "matching": _matching_scan,
    "permutation": _permutation_scan,
}


@_memo  # True is not the key 1: it reaches the gate of iter_objects
def stirling_scans(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each word of Q_n, in enumeration order, mapped to its _stirling_scan
    record; equal records are one shared tuple."""
    shared: dict = {}
    return {w: shared.setdefault(r := _stirling_scan(w), r)
            for w in iter_objects("stirling", n)}


@_memo
def _full_counts(klass: str, n: int) -> Mapping[tuple[int, ...], int]:
    """Joint counts of the full statistic record over a whole class."""
    # a scan table of an unmemoized Q_n would hold all its words; the other
    # classes are streamed, and this memo keeps only their counts
    if klass == "stirling" and n <= _STIRLING_CACHE_MAX:
        return Counter(stirling_scans(n).values())
    if klass == "signed":
        by_fdes = Counter(map(_fdes, iter_objects(klass, n)))
        return Counter({_signed_record(n, f): c for f, c in by_fdes.items()})
    return Counter(map(_SCANS[klass], iter_objects(klass, n)))


def distribution(klass: str, n: int, stats: Sequence[str], *,
                 max_n: int | None = None) -> dict[tuple[int, ...], int]:
    """Exact joint distribution of ``stats`` over all objects of order n: the
    count of each tuple of values, in sorted order.

    Enumeration is bounded (see DEFAULT_BOUNDS); pass an int ``max_n`` to
    move the limit.  Exceeding it raises ResourceLimitError.

    >>> distribution("stirling", 2, ["fap"])
    {(1,): 1, (2,): 1, (3,): 1}
    """
    if not isinstance(klass, str) or klass not in STATS_BY_CLASS:
        raise ValueError(f"unknown object class: {klass!r}")
    names = STATS_BY_CLASS[klass]
    stats = _tuple(stats, "a sequence of statistics")
    bad = [s for s in stats if s not in names]
    if bad:
        raise ValueError(f"unknown statistics for class {klass!r}: {bad}")
    n = _order(n)
    if klass == "signed" and n < 1:
        raise ValueError("signed distributions need n >= 1")
    bound = DEFAULT_BOUNDS[klass] if max_n is None else max_n
    if type(bound) is not int:
        raise ValueError(f"max_n must be an int or None, got {max_n!r}")
    if n > bound:
        raise ResourceLimitError(
            f"n={n} exceeds the enumeration bound {bound} for class {klass!r}"
        )
    idx = [names.index(s) for s in stats]
    out: Counter = Counter()
    for values, c in _full_counts(klass, n).items():
        out[tuple(values[i] for i in idx)] += c
    return dict(sorted(out.items()))
