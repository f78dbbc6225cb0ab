"""The identity registry: coverage, bounds, reporting, and a full small run."""
import dataclasses
import sys
import tracemalloc
import types

import pytest

import stirlab.actions as actions
import stirlab.grammar as grammar
import stirlab.identities as ids
import stirlab.objects as objects
import stirlab.stats as stats
from stirlab.errors import IdentityViolationError, ResourceLimitError
from stirlab.identities import (
    REGISTRY,
    UnknownIdentityError,
    run_all,
    run_identity,
)
from stirlab.polynomials import Poly

EXPECTED_NAMES = {
    "gessel-stanley",
    "bona-equidistribution",
    "matching-M",
    "matching-N",
    "egf-M-squared",
    "egf-N-squared",
    "signed-des-2nA",
    "nn-aa-convolutions",
    "flag-adin",
    "grammar-prop-all",
    "flag-ap-grammar",
    "flag-convolution",
    "flag-dual",
    "t-recurrence",
    "t-self-inverse",
    "t-egf-product",
    "asc-plat-decomposition",
    "p-grammar",
    "p-recurrences",
    "p-specializations",
    "cn-nn-recurrences",
    "fs-symmetry",
    "gamma-expansion",
    "gamma-grammar",
    "gamma-recurrence",
    "gamma-vanishing",
    "g-recurrence",
    "n-closed-form",
    "gamma-weighted-sums",
    "gamma-eulerian",
    "alpha-bijection",
}


def test_registry_is_complete():
    assert set(REGISTRY) == EXPECTED_NAMES


def test_unknown_name():
    with pytest.raises(UnknownIdentityError):
        run_identity("no-such")


def test_bound_past_the_limit():
    check = REGISTRY["bona-equidistribution"]
    with pytest.raises(ResourceLimitError):
        run_identity("bona-equidistribution", check.max_bound + 1)


@pytest.mark.parametrize("bound", [1.5, True, "3", -3])
def test_a_bound_that_is_not_a_nonnegative_int_raises(bound):
    # a float or a str bound used to reach the routes, failing every check
    # with a TypeError witness, and True ran as 1
    for run in (lambda: run_identity("gamma-eulerian", bound), lambda: run_all(bound)):
        with pytest.raises(ValueError, match="^bound must be "):
            run()


def test_single_identity_result_shape():
    r = run_identity("gamma-eulerian", 5)
    assert r.passed and r.witness is None
    assert r.bound == 5
    obj = r.to_json()
    assert obj["name"] == "gamma-eulerian"
    assert obj["params"] == {"max_n": 5}
    assert obj["pass"] is True
    assert "witness" not in obj
    assert isinstance(obj["millis"], float)


def test_default_bounds_match_registry():
    r = run_identity("t-self-inverse")
    assert r.bound == REGISTRY["t-self-inverse"].default_bound == 10


def test_run_all_small_bound_passes_and_is_stable():
    first = run_all(3)
    second = run_all(3)
    assert [r.name for r in first] == sorted(REGISTRY)
    assert all(r.passed for r in first), [
        (r.name, r.witness) for r in first if not r.passed
    ]
    assert [(r.name, r.bound, r.passed, r.witness) for r in first] == [
        (r.name, r.bound, r.passed, r.witness) for r in second
    ]


@pytest.fixture(scope="module")
def default_run():
    # the run of `stirlab verify --all`, shared by the budget tests below
    return {r.name: r for r in run_all()}


def _passes_within(results, names, seconds):
    # each acceptance budget bounds the summed millis of its identities
    bad = [n for n in names if not results[n].passed or results[n].skipped]
    assert [(n, results[n].witness) for n in bad] == []
    assert all(results[n].bound == REGISTRY[n].default_bound for n in names)
    assert sum(results[n].millis for n in names) < 1000 * seconds, names


def test_the_grammars_match_enumeration_within_their_budget(default_run):
    # gamma-grammar (derivative = table) and gamma-expansion (table = brute
    # force) take the collapsed grammar to brute-force gamma together
    names = ("grammar-prop-all", "flag-ap-grammar", "p-grammar", "gamma-grammar", "gamma-expansion")
    _passes_within(default_run, names, 10)


def test_the_convolutions_pass_within_their_budget(default_run):
    names = ("flag-convolution", "flag-dual", "nn-aa-convolutions", "flag-adin", "t-self-inverse")
    _passes_within(default_run, names, 30)


def test_the_egf_cleared_forms_pass_within_their_budget(default_run):
    _passes_within(default_run, ("egf-M-squared", "egf-N-squared", "t-egf-product"), 5)


def test_the_gamma_identities_pass_within_their_budget(default_run):
    names = ("gamma-eulerian", "gamma-vanishing", "gamma-expansion", "g-recurrence",
             "gamma-weighted-sums")
    _passes_within(default_run, names, 60)


def test_gessel_stanley_passes_within_its_budget(default_run):
    _passes_within(default_run, ("gessel-stanley",), 1)


def test_run_all_at_the_default_bounds_passes_within_the_budgets(default_run):
    assert sorted(default_run) == sorted(REGISTRY)
    _passes_within(default_run, ("fs-symmetry",), 60)
    _passes_within(default_run, ("alpha-bijection",), 10)
    _passes_within(default_run, tuple(default_run), 300)


def test_run_all_caps_at_each_identity_limit(monkeypatch):
    import stirlab.identities as ids

    subset = {k: REGISTRY[k] for k in ("t-self-inverse", "gamma-vanishing")}
    monkeypatch.setattr(ids, "REGISTRY", subset)
    results = ids.run_all(50)
    for r in results:
        assert r.bound == subset[r.name].max_bound
        assert r.passed


def test_no_check_skips_at_its_default_or_max_bound():
    for check in REGISTRY.values():
        idle = dataclasses.replace(check, runner=lambda bound: None)
        for bound in (check.default_bound, check.max_bound):
            assert not idle.run(bound).skipped, (check.name, bound)


def test_skip_is_decided_by_the_declared_starts():
    # nn-aa-convolutions has one pair from n = 0, so it compares at n = 0
    assert not run_identity("nn-aa-convolutions", 0).skipped
    r = run_identity("gamma-recurrence", 0)
    assert (r.passed, r.skipped, r.witness, r.millis) == (True, True, None, 0.0)
    assert r.to_json()["skipped"] is True
    assert "skipped" not in run_identity("gamma-recurrence", 1).to_json()
    # hand-written checks declare no starts and always run
    assert not run_identity("alpha-bijection", 0).skipped


# every check that derives, with its number of derivation passes: one per
# grammar seed, and one for M_0..M_bound (tables.m_polys)
DERIVING = {
    "p-grammar": 1,
    "gamma-grammar": 1,
    "flag-ap-grammar": 1,
    "grammar-prop-all": 5,
    "gamma-weighted-sums": 1,
    "t-egf-product": 1,
    "flag-convolution": 1,
    "egf-M-squared": 1,
    "nn-aa-convolutions": 1,
}


def _count_derives(monkeypatch) -> list:
    # counts the per-order kernel step, one call per derived order
    calls = []
    step = grammar._step
    monkeypatch.setattr(grammar, "_step", lambda *args: calls.append(args) or step(*args))
    return calls


@pytest.mark.parametrize("name,seeds", DERIVING.items())
def test_grammar_routes_derive_each_order_once(monkeypatch, name, seeds):
    # orders 0..bound come from one pass per seed, not from D^n redone per n
    calls = _count_derives(monkeypatch)
    check = REGISTRY[name]
    assert check.run(check.max_bound).passed
    assert len(calls) == seeds * check.max_bound


def test_verify_all_derives_each_order_once(monkeypatch):
    # 108 derivation steps at --max-n 20; deriving M_k anew for each k took 306
    calls = _count_derives(monkeypatch)
    assert all(r.passed for r in run_all(20))
    expected = sum(seeds * min(20, REGISTRY[name].max_bound)
                   for name, seeds in DERIVING.items())
    assert len(calls) == expected == 108


def test_witness_on_forced_failure(monkeypatch):
    # break one table so the smallest witness surfaces
    import stirlab.identities as ids
    import stirlab.tables as tb

    original = tb.a_poly
    monkeypatch.setattr(
        ids.tables, "a_poly",
        lambda n: original(n) + Poly.from_counts({1: int(n == 3)}),
    )
    r = run_identity("gamma-eulerian", 8)
    assert not r.passed
    assert r.witness is not None and "n=3" in r.witness


# every slide is checked exactly once: the totals are the counts that an
# is_stirling check on every slide gives, whichever check each slide uses;
# beta_set slides only letters that move, and checks its input once besides
@pytest.mark.parametrize("name, checks, by_is_stirling", [
    # the stage pass slides each word of Q_n that is not normalized once
    # (916 = sum of (2n-1)!! - n! over n <= 5), checked by membership in its
    # stage; the alpha_inverse loop and order-3 table make 289 slides and
    # check 160 inputs with is_stirling
    ("alpha-bijection", 916 + 289, 449),
    ("fs-symmetry", 672, 0),
])
def test_every_slide_is_checked_once(monkeypatch, name, checks, by_is_stirling):
    slides, checked, stack_checked = [], [], []

    def counting(check):
        def counted(word):
            checked.append(word)
            return check(word)
        return counted

    def counted_slide(slide):
        def wrapper(*args):
            *rest, check = args
            slides.append(args)
            return slide(*rest, counting(check))
        return wrapper

    for kernel in ("_slide_left", "_slide_right"):
        monkeypatch.setattr(actions, kernel, counted_slide(getattr(actions, kernel)))
    # the word gate of objects checks each input, the slides their outputs
    is_stirling = actions.is_stirling
    for module in (objects, actions):
        monkeypatch.setattr(module, "is_stirling",
                            lambda w: stack_checked.append(w) or is_stirling(w))
    assert REGISTRY[name].runner(5) is None
    assert len(checked) == len(slides) == checks
    assert len(stack_checked) == by_is_stirling


# sum of |Q_n| = (2n-1)!! over n <= 6, and of n!
Q_SIZES = (1, 1, 3, 15, 105, 945, 10395)
FACTORIALS = (1, 1, 2, 6, 24, 120, 720)


def test_alpha_runs_once_per_normalized_word_and_twice_per_slide(monkeypatch):
    # the normalized words' images are tabled; each slide maps the word and
    # its image, to compare them
    calls = []
    alpha = actions._alpha
    monkeypatch.setattr(actions, "_alpha", lambda w: calls.append(w) or alpha(w))
    assert REGISTRY["alpha-bijection"].runner(5) is None
    slides = sum(Q_SIZES[:6]) - sum(FACTORIALS[:6])
    assert len(calls) == sum(FACTORIALS[:6]) + 2 * slides == 154 + 2 * 916 == 1986


def _recorded_stage_slides(monkeypatch, bound: int) -> list[list]:
    """The slides the alpha-bijection runner makes up to bound, listed by
    order n as (x, word, moved)."""
    slides: list[list] = [[] for _ in range(bound + 1)]

    def recording(word, first, x, check):
        moved = actions._slide_left(word, first, x, check)
        slides[len(word) // 2].append((x, word, moved))
        return moved

    monkeypatch.setattr(ids, "actions", _actions_with(_slide_left=recording))
    assert REGISTRY["alpha-bijection"].runner(bound) is None
    return slides


def test_the_stage_pass_normalizes_each_word_as_beta_set(monkeypatch):
    # beta_set, the public moves in increasing value order, is the oracle
    slides = _recorded_stage_slides(monkeypatch, 6)
    for n, made in enumerate(slides):
        step = [{} for _ in range(n + 1)]
        for x, word, moved in made:
            step[x][word] = moved
        for word in stats.stirling_scans(n):
            reached = word
            for x in range(1, n + 1):
                reached = step[x].get(reached, reached)
            assert reached == actions.beta_set(word, range(1, n + 1))


def test_the_stage_pass_slides_each_unnormalized_word_once(monkeypatch):
    slides = _recorded_stage_slides(monkeypatch, 6)
    assert [len(made) for made in slides] == [q - f for q, f in zip(Q_SIZES, FACTORIALS)]
    # no word is slid twice, at one value or at two
    assert all(len({word for _, word, _ in made}) == len(made) for made in slides)


def test_alpha_bijection_keeps_no_slid_word():
    # the stages hold references to the scan table's keys, and each slide's
    # image is dropped once compared, where a map from each word to its
    # normalization would hold a copy of each
    runner = REGISTRY["alpha-bijection"].runner
    assert runner(6) is None  # warm the scan tables
    slid = 0
    for w in stats.stirling_scans(6):
        r = stats.stirling_stat_record(w)
        if r["dp"] or r["lap"] + r["dasc"] != 6:
            slid += sys.getsizeof(w)
    tracemalloc.start()
    try:
        assert runner(6) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < slid


def test_a_slide_must_land_in_its_stage(monkeypatch):
    # a slide that leaves its word where it was stays in Q_n, but the move
    # it was made for does not fix its output: only the stage check sees it
    def stuck(word, first, x, check):
        if not check(word):
            raise IdentityViolationError(f"sliding {x} left in {word} gave {word}")
        return word

    monkeypatch.setattr(ids, "actions", _actions_with(_slide_left=stuck))
    r = run_identity("alpha-bijection", 3)
    assert r.witness == "sliding 1 left in (2, 2, 1, 1) gave (2, 2, 1, 1)"


def test_a_normalized_word_missing_from_the_last_stage_is_named():
    # a normalized table with one word too many: the stages cannot reach it
    q_2 = stats.stirling_scans(2)
    normal = {w: actions.alpha(w) for w in q_2}
    assert ids._beta_stages(2, q_2, normal) == (
        "n=2: beta moved the normalized word (2, 2, 1, 1)"
    )


def _actions_with(**replaced):
    """The actions module as identities sees it, some functions replaced."""
    return types.SimpleNamespace(**{**vars(actions), **replaced})


def test_alpha_bijection_fails_on_an_unnormalized_beta_image(monkeypatch):
    # a beta kernel that moves nothing leaves 2211 (dp = 1) where it was
    monkeypatch.setattr(ids, "actions", _actions_with(_beta_first=lambda w, x: 0))
    r = run_identity("alpha-bijection", 3)
    assert not r.passed
    assert r.witness == "n=2: beta normalization of (2, 2, 1, 1) gave (2, 2, 1, 1)"


def test_alpha_bijection_fails_on_a_changed_alpha_image(monkeypatch):
    # 2211 is not normalized, so its image is compared, not tabled
    def alpha(w):
        image = actions.alpha(w)
        return image[::-1] if w == (2, 2, 1, 1) else image

    monkeypatch.setattr(ids, "actions", _actions_with(_alpha=alpha))
    r = run_identity("alpha-bijection", 3)
    assert not r.passed
    assert r.witness == "n=2: beta normalization of (2, 2, 1, 1) changed its alpha image"


def test_the_scan_runs_once_per_word():
    objects.clear_memos()
    # count calls of the scan's code object, whatever name the caller holds
    scan = stats._stirling_scan.__code__
    scanned = 0

    def profile(frame, event, _arg):
        nonlocal scanned
        if event == "call" and frame.f_code is scan:
            scanned += 1

    sys.setprofile(profile)
    try:
        for name in ("asc-plat-decomposition", "bona-equidistribution",
                     "fs-symmetry", "alpha-bijection"):
            assert run_identity(name, 5).passed
    finally:
        sys.setprofile(None)
    # sum of |Q_n| = (2n-1)!! over n <= 5
    assert scanned == 1 + 1 + 3 + 15 + 105 + 945 == 1070


def test_fs_symmetry_keeps_no_walked_word():
    # the walk builds every member with a descent-plateau as a new tuple;
    # marking walked words off the scan table's keys keeps none of them,
    # where a set of walked words would hold a copy of each
    runner = REGISTRY["fs-symmetry"].runner
    assert runner(6) is None  # warm the scan tables and distributions
    built = sum(sys.getsizeof(w) for w in stats.stirling_scans(6)
                if stats.stirling_stat_record(w)["dp"])
    tracemalloc.start()
    try:
        assert runner(6) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < built
