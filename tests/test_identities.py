"""The identity registry: coverage, bounds, reporting, and a full small run."""
import dataclasses
import sys
import tracemalloc
import types

import pytest

import stirlab.actions as actions
import stirlab.grammar as grammar
import stirlab.identities as ids
import stirlab.stats as stats
from stirlab.errors import ResourceLimitError
from stirlab.identities import (
    REGISTRY,
    UnknownIdentityError,
    run_all,
    run_identity,
)

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
    calls = []
    step = grammar.derive
    monkeypatch.setattr(grammar, "derive", lambda p, g: calls.append(p) or step(p, g))
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

    original = tb.eulerian
    monkeypatch.setattr(
        ids.tables, "eulerian", lambda n, k: original(n, k) + (n == 3 and k == 1)
    )
    r = run_identity("gamma-eulerian", 8)
    assert not r.passed
    assert r.witness is not None and "n=3" in r.witness


# every slide is checked exactly once: the totals are the counts that an
# is_stirling check on every slide gives, whichever check each slide uses;
# beta_set slides only letters that move, and checks its input once besides
@pytest.mark.parametrize("name, checks, by_is_stirling", [
    # the alpha_inverse loop and order-3 table: 289 slides and 160 inputs
    ("alpha-bijection", 1914, 449),
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
    is_stirling = actions.is_stirling
    monkeypatch.setattr(actions, "is_stirling",
                        lambda w: stack_checked.append(w) or is_stirling(w))
    assert REGISTRY[name].runner(5) is None
    assert len(checked) == len(slides) == checks
    assert len(stack_checked) == by_is_stirling


def test_alpha_runs_once_per_word(monkeypatch):
    # each word of Q_n is mapped by alpha once: the normalized words to
    # table their images, the others to compare with their normalization's
    calls = []
    alpha = actions.alpha
    monkeypatch.setattr(actions, "alpha", lambda w: calls.append(w) or alpha(w))
    assert REGISTRY["alpha-bijection"].runner(5) is None
    # sum of |Q_n| = (2n-1)!! over n <= 5
    assert len(calls) == 1 + 1 + 3 + 15 + 105 + 945 == 1070


def _actions_with(**replaced):
    """The actions module as identities sees it, some functions replaced."""
    return types.SimpleNamespace(**{**vars(actions), **replaced})


def test_alpha_bijection_fails_on_an_unnormalized_beta_image(monkeypatch):
    # a beta_set that moves nothing leaves 2211 (dp = 1) where it was
    monkeypatch.setattr(ids, "actions", _actions_with(beta_set=lambda w, *a, **k: w))
    r = run_identity("alpha-bijection", 3)
    assert not r.passed
    assert r.witness == "n=2: beta normalization of (2, 2, 1, 1) gave (2, 2, 1, 1)"


def test_alpha_bijection_fails_on_a_changed_alpha_image(monkeypatch):
    # 2211 is not normalized, so its image is compared, not tabled
    def alpha(w):
        image = actions.alpha(w)
        return image[::-1] if w == (2, 2, 1, 1) else image

    monkeypatch.setattr(ids, "actions", _actions_with(alpha=alpha))
    r = run_identity("alpha-bijection", 3)
    assert not r.passed
    assert r.witness == "n=2: beta normalization of (2, 2, 1, 1) changed its alpha image"


def test_the_scan_runs_once_per_word():
    for name, module in list(sys.modules.items()):
        if name.startswith("stirlab"):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
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
