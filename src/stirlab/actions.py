"""Letter-moving involutions on Stirling permutations and the bijection with
permutations.

The local move at a position i of a word sigma (with the usual virtual 0 at
both ends):

- i a double ascent (sigma_{i-1} < sigma_i < sigma_{i+1}): the letter at i
  slides right, landing just after the other copy of its value, where it
  forms a new plateau;
- i a descent-plateau (sigma_{i-1} > sigma_i = sigma_{i+1}): the letter at i
  slides left, landing just after the rightmost smaller entry to its left
  (possibly at the very front).

The two moves are mutually inverse, and for each value v at most one index
is movable (a value sits either on a double ascent, on a descent-plateau, on
a left ascent-plateau, or nowhere movable).  The toggle is therefore carried
by values, as in Foata and Strehl's action of Z_2^n: toggling v is a total
involution (a value on no movable index is fixed), any two toggles commute,
and :func:`fs_action` applies the toggles of a set of values.
:func:`index_sets` maps "dasc", "dp" and "lap" to the frozenset of
positions of each kind, so ``len(index_sets(w)[s]) == stirling_stats(w)[s]``.
Orbits of the action partition Q_n; :func:`orbit` returns the unique
descent-plateau-free representative, and :func:`orbit_members` walks its
2^dasc members in Gray-code order.

The beta move slides the first copy of a chosen value left regardless of its
surroundings.  It is the same left slide as the descent-plateau toggle (one
private kernel carries both); only the choice of letter differs.  The slide
changes the word only when a larger letter comes just before that first
copy; one private kernel holds that rule, and :func:`beta_set` and the
``alpha-bijection`` check both call it.  Together with alpha (delete every
first copy) the beta moves realize the bijection between the normalized
words (no descent-plateau and lap + dasc = n, one per permutation) and
permutations.

Bad input raises ValueError naming it: a word that is not a Stirling
permutation, given to any function here that takes one, a letter that is
not an int, or a value of :func:`fs_action` or :func:`beta_set` that is not
an int letter of the word.
Every slide checks that its output is a Stirling permutation, so
:class:`IdentityViolationError` means that the paper's closure proof failed
there.  The public moves check with :func:`is_stirling`; the ``fs-symmetry``
loop walks each orbit with a private walk that checks by membership in the
scan table of Q_n it reads anyway, at a tenth of the cost.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .errors import IdentityViolationError
from .objects import _is_permutation, _stirling_word, _tuple, is_stirling

Word = tuple[int, ...]


def _word(sigma) -> Word:
    """sigma as a tuple; ValueError naming it when a letter is not an int."""
    word = _tuple(sigma, "a word of int letters")
    if any(type(v) is not int for v in word):
        raise ValueError(f"not a word of int letters: {word}")
    return word


def index_sets(sigma) -> dict[str, frozenset[int]]:
    """The double-ascent, descent-plateau and left ascent-plateau positions
    of a word (1-based), keyed by the statistic each one counts.

    >>> index_sets((1, 2, 2, 1))
    {'dasc': frozenset({1}), 'dp': frozenset(), 'lap': frozenset({2})}
    """
    return _index_sets(_word(sigma))


def _index_sets(word: Word) -> dict[str, frozenset[int]]:
    # index_sets of a word of int letters, unchecked for the gated moves
    dasc, dp, lap = [], [], []
    left = 0
    # one pass, the virtual 0 at both ends
    for i, (v, right) in enumerate(zip(word, (*word[1:], 0)), 1):
        if left < v < right:
            dasc.append(i)
        elif v == right:
            (lap if left < v else dp).append(i)
        left = v
    return {"dasc": frozenset(dasc), "dp": frozenset(dp), "lap": frozenset(lap)}


Check = Callable[[Word], bool]


def _slide_left(word: Word, first: int, v: int, check: Check) -> Word:
    """Move the letter v at 0-based index first to just after the rightmost
    smaller entry to its left (the front when there is none); ``check``
    must accept the result."""
    k = first
    while k and word[k - 1] >= v:
        k -= 1
    moved = word[:k] + (v,) + word[k:first] + word[first + 1:]
    if not check(moved):
        raise IdentityViolationError(f"sliding {v} left in {word} gave {moved}")
    return moved


def _slide_right(word: Word, first: int, other: int, check: Check) -> Word:
    """Move the letter at 0-based index first to just after the other copy
    of its value, at 0-based index other; ``check`` must accept the
    result."""
    moved = word[:first] + word[first + 1:other + 1] + (word[first],) + word[other + 1:]
    if not check(moved):
        raise IdentityViolationError(f"sliding {word[first]} right in {word} gave {moved}")
    return moved


def _not_twice(v, word: Sequence[int]) -> ValueError:
    return ValueError(f"{v!r} does not occur twice in {tuple(word)}")


def _values(values: Iterable[int], word: Word) -> set[int]:
    """values as a set; ValueError naming the first that is not an int
    letter of the word, checked before the set is formed, where True and 1
    are one value (and 1.0 would pass the membership test)."""
    values = _tuple(values, "an iterable of values")
    for v in values:
        if type(v) is not int or v not in word:
            raise _not_twice(v, word)
    return set(values)


def _toggle(word: Word, v: int, check: Check) -> Word:
    # the two copies of v: an adjacent pair after a larger letter is a
    # descent-plateau and slides left, a non-adjacent pair after a smaller
    # one a double ascent and slides right; any other value is fixed
    try:
        first = word.index(v)
        second = word.index(v, first + 1)
    except ValueError:
        raise _not_twice(v, word) from None
    left = word[first - 1] if first else 0
    if second == first + 1:
        return _slide_left(word, first, v, check) if left > v else word
    return _slide_right(word, first, second, check) if left < v else word


def fs_action(sigma, values: Iterable[int]) -> Word:
    """Apply the commuting toggles of a set of values: a value on a double
    ascent or a descent-plateau of the word toggles, any other value (on a
    left ascent-plateau, or on no movable index) is fixed.  A value that is
    not an int letter of the word raises ValueError.

    >>> "".join(map(str, fs_action((2,4,4,7,8,8,7,3,3,2,1,1,5,6,6,5), {2})))
    '4478873322115665'

    Each toggle's output is checked with :func:`is_stirling`; a rejected
    output raises IdentityViolationError.
    """
    word = _stirling_word(sigma)
    for v in sorted(_values(values, word)):
        word = _toggle(word, v, is_stirling)
    return word


def _representative(word: Word, check: Check) -> Word:
    # toggle every descent-plateau value off, ``check`` testing each output
    if dp := _index_sets(word)["dp"]:
        for v in sorted({word[i - 1] for i in dp}):
            word = _toggle(word, v, check)
        if _index_sets(word)["dp"]:
            raise IdentityViolationError(f"orbit representative {word} has descent-plateaus")
    return word


def orbit(sigma) -> Word:
    """The orbit of a Stirling permutation, as its representative: toggling
    the descent-plateau values off yields the unique member with dp = 0,
    whose free toggles are the values at its double ascents.  Each toggle's
    output is checked as in :func:`fs_action`."""
    return _representative(_stirling_word(sigma), is_stirling)


def _free_values(word: Word) -> list[int] | None:
    """The double-ascent values in increasing order, in one pass; None when
    the word has a descent-plateau."""
    values = []
    for left, v, right in zip((0, *word), word, (*word[1:], 0)):
        if left < v < right:
            values.append(v)
        elif left > v == right:
            return None
    values.sort()
    return values


def orbit_members(rep) -> Iterator[Word]:
    """All members of the orbit of a word, in Gray-code order over the
    sorted free toggle values v_0 < v_1 < ...: one toggle per step, the k-th
    member (from 0) with v_t on for each set bit t of k ^ (k >> 1).  The
    walk starts from :func:`orbit` of the word, and each toggle's output is
    checked as in :func:`fs_action`."""
    return _walk(orbit(rep), is_stirling)


def _walk(word: Word, check: Check) -> Iterator[Word]:
    """The walk of :func:`orbit_members` on a word known to lie in Q_n, with
    ``check`` testing each toggle's output."""
    values = _free_values(word)
    if values is None:  # a descent-plateau: walk from the representative
        word = _representative(word, check)
        values = _free_values(word)
    yield word
    for k in range(1, 2 ** len(values)):
        word = _toggle(word, values[(k & -k).bit_length() - 1], check)
        yield word


# ---------------------------------------------------------------------------
# beta moves and the bijection with permutations


def _beta_first(word: Word, x: int) -> int:
    """The beta kernel: the 0-based index of the first x when a larger
    letter comes just before it, so that the beta move of x slides it left;
    0 when the move fixes the word (the first x leads it or follows a
    smaller letter).  A missing x raises ValueError naming x and the word."""
    try:
        first = word.index(x)
    except ValueError:
        raise _not_twice(x, word) from None
    return first if first and word[first - 1] > x else 0


def _beta_fixes(word: Word, x: int) -> bool:
    """Whether the beta moves of 1..x all fix the word."""
    for y in range(1, x + 1):
        if _beta_first(word, y):
            return False
    return True


def beta_set(sigma, values: Iterable[int]) -> Word:
    """Apply beta moves for a set of values, in increasing value order.

    The order is part of the definition: moving a small value left can
    unlock the move of a larger one (on 331221, the first 2 only becomes
    movable after the 1 leaves), so raw moves need not commute.  Increasing
    order is the one under which moving every value lands in the normalized
    set (no descent-plateau, lap + dasc = n).

    Each word a move changes is checked with :func:`is_stirling`; a move
    whose letter already follows a smaller one, or leads the word, changes
    nothing and is skipped.  A value that is not an int letter of the word
    raises ValueError.

    >>> "".join(map(str, beta_set((3,4,4,3,5,7,8,8,7,6,6,5,2,2,1,1), {6})))
    '3443567887652211'
    """
    word = _stirling_word(sigma)
    for x in sorted(_values(values, word)):
        if first := _beta_first(word, x):
            word = _slide_left(word, first, x, is_stirling)
    return word


def alpha(sigma) -> Word:
    """Delete the first copy of every value; the second copies, in order,
    form a permutation of [n].

    >>> alpha((3, 4, 4, 3, 5, 5, 6, 6, 1, 2, 2, 1))
    (4, 3, 5, 6, 2, 1)
    """
    return _alpha(_word(sigma))


def _alpha(word: Word) -> Word:
    # alpha of a word of int letters, unchecked for the identity loops
    seen: set[int] = set()
    out = []
    for v in word:
        if v in seen:
            out.append(v)
        else:
            seen.add(v)
    return tuple(out)


def descent_bottom_set(pi: Sequence[int]) -> frozenset[int]:
    """The values sitting at descent bottoms of a permutation."""
    return frozenset(pi[i] for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def alpha_inverse(pi) -> Word:
    """The normalized Stirling permutation (dp = 0, lap + dasc = n) that
    alpha maps to pi.

    Doubling each letter of pi gives a word whose alpha-image is pi; beta
    moves at the descent-bottom values of pi then remove every
    descent-plateau without changing the alpha-image.
    """
    return alpha_inverse_trace(pi)[2]


def alpha_inverse_trace(pi) -> tuple[Word, frozenset[int], Word]:
    """(doubled word, beta value set, final word) of the inverse map; pi
    must be a permutation of [n], otherwise ValueError."""
    values = _tuple(pi, "a permutation of [n]")
    if not _is_permutation(values):
        raise ValueError(f"not a permutation of [n]: {values}")
    doubled = tuple(v for v in values for _ in range(2))
    s = descent_bottom_set(values)
    return doubled, s, beta_set(doubled, s)
