"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a single pass/fail line (run pytest with -s to watch
them) and asserts its runtime budget.  All arithmetic is exact; there are no
tolerances anywhere.
"""
import io
import time
from contextlib import contextmanager

from stirlab import actions, cli, tables
from stirlab.grammar import derive_n, parse_poly
from stirlab.identities import REGISTRY, run_identity
from stirlab.objects import iter_objects
from stirlab.polynomials import XYZ, Poly
from stirlab.stats import distribution, signed_stats, stirling_stats
from stirlab.tables import FLAG_GRAMMAR, GAMMA_GRAMMAR, REFINED_GRAMMAR


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "pass"
        print(f"{status}  criterion {criterion} ({elapsed:.2f}s / {seconds:.0f}s budget)")
    assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s: {elapsed:.1f}s"


def gp(text: str) -> Poly:
    return parse_poly(text)


def word(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


def test_criterion_1_golden_polynomials():
    with budget("1: golden polynomials", 1.0):
        def x(i, j, k, c=1):
            return Poly(XYZ, {(i, j, k): c})

        assert tables.p_poly(1) == x(1, 0, 0)
        assert tables.p_poly(2) == x(1, 1, 0) + x(1, 0, 1) + x(2, 0, 0)
        assert tables.p_poly(3) == (
            x(1, 2, 0) + x(1, 0, 2) + x(2, 1, 0, 4) + x(2, 0, 1, 4)
            + x(1, 1, 1, 2) + x(2, 0, 0, 2) + x(3, 0, 0)
        )
        assert tables.g_poly(0) == Poly.one()
        assert tables.g_poly(1) == x(1, 0, 0)
        assert tables.g_poly(2) == x(1, 1, 0) + x(2, 0, 0)
        assert tables.g_poly(3) == (
            x(1, 2, 0) + x(2, 1, 0, 4) + x(2, 0, 0, 2) + x(3, 0, 0)
        )
        assert tables.t_poly(2) == Poly.from_counts({1: 1, 2: 1, 3: 1})
        assert derive_n(gp("x*y"), FLAG_GRAMMAR, 1) == gp("x*y*z^2 + x*y^2*z")
        assert derive_n(gp("x"), FLAG_GRAMMAR, 2) == gp(
            "x*y*z^3 + x*y^2*z^2 + x*y^3*z"
        )
        assert derive_n(gp("z"), REFINED_GRAMMAR, 1) == gp("x*y*z")
        assert derive_n(gp("z"), REFINED_GRAMMAR, 2) == gp(
            "x*y*q*z^2 + x*y*p*z^2 + x^2*y^2*z"
        )


def test_criterion_2_grammar_vs_enumeration():
    with budget("2: grammar vs enumeration, n <= 5", 10.0):
        for name in ("grammar-prop-all", "flag-ap-grammar", "p-grammar"):
            r = run_identity(name, 5)
            assert r.passed, (name, r.witness)
        # the collapsed grammar against brute-force gamma counts
        for n in range(6):
            counts = distribution("stirling", n, ["lap", "dasc", "dp"]).counts
            expected = Poly(("u", "v", "w"), (
                ((i, j, 2 * n + 1 - 2 * i - j), c)
                for (i, j, k), c in counts.items()
                if k == 0
            ))
            assert derive_n(gp("w"), GAMMA_GRAMMAR, n) == expected


def test_criterion_3_convolutions():
    with budget("3: convolution identities, n <= 6", 30.0):
        for name, bound in (
            ("flag-convolution", 6),
            ("flag-dual", 6),
            ("nn-aa-convolutions", 6),
            ("flag-adin", 6),
            ("t-self-inverse", 10),
        ):
            r = run_identity(name, bound)
            assert r.passed, (name, r.witness)


def test_criterion_4_egf_cleared_forms():
    with budget("4: EGF identities to order 8", 5.0):
        for name in ("egf-M-squared", "egf-N-squared", "t-egf-product"):
            r = run_identity(name, 8)
            assert r.passed, (name, r.witness)


def test_criterion_5_gamma_machinery():
    with budget("5: gamma machinery", 60.0):
        for name, bound in (
            ("gamma-eulerian", 8),
            ("gamma-vanishing", 8),
            ("gamma-expansion", 7),
            ("g-recurrence", 10),
            ("gamma-weighted-sums", 8),
        ):
            r = run_identity(name, bound)
            assert r.passed, (name, r.witness)


def test_criterion_6_group_action():
    with budget("6: group action, n <= 5 exhaustive", 60.0):
        import itertools

        for n in range(1, 6):
            for w in iter_objects("stirling", n):
                for v in range(1, n + 1):
                    assert actions.fs_toggle_value(
                        actions.fs_toggle_value(w, v), v
                    ) == w
                for u, v in itertools.combinations(range(1, n + 1), 2):
                    assert actions.fs_toggle_value(
                        actions.fs_toggle_value(w, u), v
                    ) == actions.fs_toggle_value(actions.fs_toggle_value(w, v), u)
            # orbits partition Q_n with lap constant on each orbit
            all_words = set(iter_objects("stirling", n))
            reps = {actions.orbit(w) for w in all_words}
            covered: set = set()
            total = 0
            for rep in reps:
                members = list(actions.orbit_members(actions.orbit(rep)))
                lap0 = stirling_stats(rep)["lap"]
                assert all(stirling_stats(m)["lap"] == lap0 for m in members)
                covered.update(members)
                total += len(members)
            assert covered == all_words and total == len(all_words)
        for name in ("fs-symmetry",):
            r = run_identity(name, 6)
            assert r.passed, (name, r.witness)


def test_criterion_7_bijection():
    with budget("7: alpha bijection, n <= 6", 10.0):
        r = run_identity("alpha-bijection", 6)
        assert r.passed, r.witness
        # the six published order-3 rows, with the intermediate value sets
        rows = [
            ((1, 2, 3), "112233", set(), "112233"),
            ((1, 3, 2), "113322", {2}, "112332"),
            ((2, 1, 3), "221133", {1}, "122133"),
            ((2, 3, 1), "223311", {1}, "122331"),
            ((3, 1, 2), "331122", {1}, "133122"),
            ((3, 2, 1), "332211", {1, 2}, "123321"),
        ]
        for pi, doubled, s, final in rows:
            got = actions.alpha_inverse_trace(pi)
            assert got == (word(doubled), frozenset(s), word(final))
            assert actions.alpha(word(final)) == pi


def test_criterion_8_worked_micro_examples():
    with budget("8: worked micro-examples", 1.0):
        r = stirling_stats(word("442332115665"))
        assert (r["ap"], r["lap"]) == (2, 3)
        r = stirling_stats(word("244332115665"))
        assert (r["dasc"], r["dp"]) == (2, 2)
        sigma = word("2447887332115665")
        assert actions.fs_move(sigma, 1) == word("4478873322115665")
        assert actions.fs_move(sigma, 4) == word("2448877332115665")
        assert actions.fs_move(actions.fs_move(sigma, 1), 9) == sigma
        assert actions.fs_move(actions.fs_move(sigma, 4), 6) == sigma
        beta_source = word("3443578876652211")
        assert actions.beta_move(beta_source, 1) == word("1344357887665221")
        assert actions.beta_move(beta_source, 2) == word("2344357887665211")
        assert actions.beta_move(beta_source, 6) == word("3443567887652211")
        assert actions.alpha(word("344355661221")) == (4, 3, 5, 6, 2, 1)
        s = signed_stats((4, -3, 1, 5, 2))
        assert (s["fdes"], s["fasc"]) == (4, 5)


def test_criterion_9_gessel_stanley():
    with budget("9: Gessel-Stanley series, k <= 4", 1.0):
        r = run_identity("gessel-stanley", 4)
        assert r.passed, r.witness


def test_criterion_10_full_verify_runs():
    with budget("10a: verify --all --max-n 5", 120.0):
        out = io.StringIO()
        code = cli.main(["verify", "--all", "--max-n", "5"], out=out)
        assert code == 0, out.getvalue()
        assert len(out.getvalue().splitlines()) == len(REGISTRY)
    with budget("10b: every identity at max-n 6", 300.0):
        for name, check in REGISTRY.items():
            r = check.run(min(6, check.max_bound))
            assert r.passed, (name, r.witness)
