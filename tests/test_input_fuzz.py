"""A property fuzz of the gated public API.

Every callable of ``stirlab.__all__`` defined in ``objects``, ``stats``,
``actions`` or ``tables``, and the order of ``grammar.derive_n``, is called
with generated malformed arguments: bools, floats, strings, None, nested
tuples, negative ints, and words one swap away from a Stirling word, mixed
with well-formed values so that the checks past the first one are reached
too.  Each argument keeps its documented shape (a word is a sequence, a
matching a sequence of blocks, a position or value set an iterable); what
fills it is malformed.  Each move of ``actions`` that takes a word and a
letter, position or set also gets a valid Stirling word with a malformed
second argument, and a word one swap outside Q_n with a second argument it
would take on a Stirling word of that length.

The pass rule: each call returns, or raises ValueError (subclasses count) or
ResourceLimitError.  A stream that returns is drawn from for a few items.

An order is drawn no larger than 5 wherever nothing bounds the work:
``t_poly(10**6)`` would run for hours, and ``next(stirling_words(10**6))``
builds a million ever longer words.  Only ``distribution``, which checks its
enumeration bound first, is fed huge orders.

Left out: ``TableCache`` writes files, and ``CoefficientTable`` is a record
that checks nothing (the three builders that make it are fuzzed).  ``Poly``,
grammar parsing and ``identities`` live in other modules and have their own
tests, the CLI's argv fuzz among them.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import stirlab
from stirlab import actions, grammar, objects, stats, tables
from stirlab.errors import ResourceLimitError
from stirlab.objects import stirling_words
from stirlab.stats import STATS_BY_CLASS

FUZZED_MODULES = {m.__name__ for m in (objects, stats, actions, tables)}
LEFT_OUT = {"TableCache", "CoefficientTable"}

# malformed scalars: none of them is an int, or a usable one
bad_scalar = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
    st.integers(-3, -1),
)
nested = st.recursive(bad_scalar | st.integers(0, 4),
                      lambda inner: st.lists(inner, max_size=3).map(tuple),
                      max_leaves=5)
junk = st.one_of(bad_scalar, nested)

# an order: malformed, or an int no larger than 5
order = st.one_of(junk, st.integers(-3, 5))
# a letter, value, position or index: malformed, or a small int
letter = st.one_of(junk, st.integers(-2, 9))


@st.composite
def near_stirling(draw):
    """A Stirling word of order <= 4 with two positions swapped, maybe not
    at all, and maybe one letter replaced by a malformed one."""
    n = draw(st.integers(0, 4))
    word = list(draw(st.sampled_from(list(stirling_words(n)))))
    if word and draw(st.booleans()):
        i, j = draw(st.integers(0, len(word) - 1)), draw(st.integers(0, len(word) - 1))
        word[i], word[j] = word[j], word[i]
    if word and draw(st.booleans()):
        word[draw(st.integers(0, len(word) - 1))] = draw(junk)
    return tuple(word)


word = st.one_of(
    near_stirling(),
    st.lists(letter, max_size=8).map(tuple),
    st.text(alphabet="0123456", max_size=6),
)
letters = st.lists(letter, max_size=5).map(tuple)


@st.composite
def one_swap(draw):
    """A word one swap away from a Stirling word of order 2 to 4, and not
    itself a Stirling word."""
    n = draw(st.integers(2, 4))
    w = list(draw(st.sampled_from(list(stirling_words(n)))))
    i, j = draw(st.lists(st.integers(0, 2 * n - 1), min_size=2, max_size=2, unique=True))
    w[i], w[j] = w[j], w[i]
    return tuple(w)


def gated_word(old, second, bad):
    """The argument pairs of a move: ``old``, a valid Stirling word and
    ``bad``, or a one-swap word and ``second(w)``, an argument the move
    would take on a Stirling word of its length; the last two reach the
    move's checks past the one its first argument fails."""
    valid = st.integers(1, 4).flatmap(lambda n: st.sampled_from(list(stirling_words(n))))
    swapped = one_swap().filter(lambda w: not objects.is_stirling(w))
    return st.one_of(
        old,
        st.tuples(valid, bad),
        swapped.flatmap(lambda w: st.tuples(st.just(w), second(w))),
    )


def position(w):
    return st.integers(1, len(w))


def value(w):
    return st.integers(1, len(w) // 2)


def some(each):
    return lambda w: st.lists(each(w), min_size=1, max_size=3).map(tuple)


junk_letters = st.lists(junk, min_size=1, max_size=3).map(tuple)
# a matching: blocks of letters, or a flat tuple whose blocks are not sequences
blocks = st.one_of(st.lists(st.lists(letter, max_size=3).map(tuple), max_size=4).map(tuple),
                   letters)
klass = st.one_of(st.sampled_from(sorted(STATS_BY_CLASS)), junk)
stat_names = st.lists(
    st.one_of(st.sampled_from(sorted({s for ss in STATS_BY_CLASS.values() for s in ss})),
              st.text(max_size=4)),
    max_size=3,
).map(tuple)

# the arguments of each fuzzed callable, as a strategy of argument tuples
ARGS = {
    # objects
    "is_stirling": st.tuples(word),
    "stirling_words": st.tuples(order),
    "signed_words": st.tuples(order),
    "matching_blocks": st.tuples(order),
    "permutation_words": st.tuples(order),
    # stats; distribution checks its bound before it enumerates, so it also
    # takes huge orders (its max_n, in KWARGS, stays small)
    "distribution": st.tuples(klass, st.one_of(order, st.integers(10**3, 10**6)),
                              stat_names),
    "stirling_stats": st.tuples(word),
    "signed_stats": st.tuples(letters),
    "matching_stats": st.tuples(blocks),
    "perm_des": st.tuples(st.one_of(letters, word)),
    # actions
    "alpha": st.tuples(word),
    "alpha_inverse": st.tuples(st.one_of(letters, word)),
    "beta_move": gated_word(st.tuples(word, letter), value, junk),
    "beta_set": gated_word(st.tuples(word, letters), some(value), junk_letters),
    "fs_action": gated_word(st.tuples(word, letters), some(position), junk_letters),
    "fs_move": gated_word(st.tuples(word, letter), position, junk),
    "fs_toggle_value": gated_word(st.tuples(word, letter), value, junk),
    "index_sets": st.tuples(word),
    "orbit": st.tuples(word),
    "orbit_members": st.tuples(word),
    # tables
    **{name: st.tuples(order) for name in (
        "a_poly", "b_poly", "c_poly", "cn_nn_tables", "f_poly", "g_poly",
        "gamma_table", "m_poly", "n_poly", "n_poly_closed", "p_poly",
        "p_table", "t_poly", "t_table")},
    **{name: st.tuples(order, letter) for name in (
        "eulerian", "stirling2", "gamma_weighted_sum")},
    "gamma_number": st.tuples(order, letter, letter),
}
KWARGS = {"distribution": st.fixed_dictionaries(
    {"max_n": st.one_of(st.none(), st.integers(-1, 5), junk)})}


def _call(fn, args, kwargs=None) -> None:
    try:
        result = fn(*args, **kwargs or {})
        if hasattr(result, "__next__"):  # a stream: a few items only
            list(itertools.islice(result, 3))
    except (ValueError, ResourceLimitError):
        pass


def test_every_public_callable_is_fuzzed_or_left_out():
    public = {name for name in stirlab.__all__
              if getattr(getattr(stirlab, name), "__module__", None) in FUZZED_MODULES}
    assert public == set(ARGS) | LEFT_OUT


@pytest.mark.parametrize("name", sorted(ARGS))
def test_malformed_arguments(name):
    fn = getattr(stirlab, name)

    @settings(derandomize=True, deadline=2000, max_examples=40, database=None)
    @given(ARGS[name], KWARGS.get(name, st.none()))
    def run(args, kwargs):
        _call(fn, args, kwargs)

    run()


@settings(derandomize=True, deadline=2000, max_examples=40, database=None)
@given(order)
def test_derive_n_order(n):
    _call(grammar.derive_n, (grammar.parse_poly("y"), tables.FLAG_GRAMMAR, n))
