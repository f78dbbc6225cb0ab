"""Letter moves, the toggle action, beta moves, and the alpha bijection."""
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stirlab
from stirlab.actions import (
    alpha,
    alpha_inverse,
    beta_set,
    descent_bottom_set,
    fs_action,
    index_sets,
    orbit,
    orbit_members,
)
import stirlab.actions as actions_module
import stirlab.objects as objects_module
from stirlab.actions import _walk
from stirlab.errors import IdentityViolationError
from stirlab.objects import is_stirling, iter_objects
from stirlab.stats import stirling_scans, stirling_stat_record, stirling_stats

import reference as ref
from reference import word


def gate_message(w) -> str:
    return rf"^not a Stirling permutation: {re.escape(str(tuple(w)))}$"


GATED = [
    (stirling_stats, ()),
    (fs_action, ({2},)),
    (orbit, ()),
    (orbit_members, ()),
    (beta_set, ({1, 2},)),
]


def test_every_public_move_meets_the_gate():
    # a new public function of actions joins GATED, or is added here on
    # purpose as one that takes no Stirling permutation
    takes_any_word = {"alpha", "alpha_inverse", "index_sets"}
    assert {fn.__name__ for fn, _ in GATED} == (
        set(stirlab._EXPORTS["actions"]) - takes_any_word | {"stirling_stats"})


# every function that takes a Stirling permutation passes it through the word
# gate of objects first: a word outside Q_n is a ValueError, never returned
# as it was and never blamed on a slide's IdentityViolationError
@pytest.mark.parametrize("w", [word("1212"), word("2112"), word("112222"),
                               (1.0, 1.0), (True, True)],
                         ids=["crossing", "slides-out", "three-copies", "float", "bool"])
@pytest.mark.parametrize("fn, rest", GATED, ids=[fn.__name__ for fn, _ in GATED])
def test_a_word_outside_q_n_meets_the_gate(fn, rest, w):
    with pytest.raises(ValueError, match=gate_message(w)):
        fn(w, *rest)


class TestFsMove:
    """The toggle of one value, the local move at its movable position."""

    def test_worked_examples(self):
        # the moves at positions 1 and 4 of the paper's example, which carry
        # the values 2 and 7, and back from positions 9 and 6
        sigma = word("2447887332115665")
        assert fs_action(sigma, {2}) == word("4478873322115665")
        assert fs_action(sigma, {7}) == word("2448877332115665")
        assert fs_action(fs_action(sigma, {2}), {2}) == sigma
        assert fs_action(fs_action(sigma, {7}), {7}) == sigma

    @pytest.mark.parametrize("n", range(1, 6))
    def test_moves_preserve_validity(self, n):
        for w in iter_objects("stirling", n):
            sets = index_sets(w)
            for i in sets["dasc"] | sets["dp"]:
                assert is_stirling(fs_action(w, {w[i - 1]}))


class TestIndexSets:
    def test_hand_evaluations(self):
        assert index_sets(word("2211")) == index_sets((2, 2, 1, 1))
        s = index_sets(word("2211"))
        assert (s["dasc"], s["dp"], s["lap"]) == (frozenset(), {3}, {1})
        s = index_sets(word("1122"))
        assert (s["dasc"], s["dp"], s["lap"]) == (frozenset(), frozenset(), {1, 3})
        s = index_sets(word("1221"))
        assert (s["dasc"], s["dp"], s["lap"]) == ({1}, frozenset(), {2})

    @pytest.mark.parametrize("n", range(7))
    def test_sets_match_counts(self, n):
        # each set is keyed by the statistic that counts it
        for w in iter_objects("stirling", n):
            s = index_sets(w)
            r = stirling_stats(w)
            assert {k: len(v) for k, v in s.items()} == {k: r[k] for k in ("dasc", "dp", "lap")}
            dasc, dp, lap = s.values()
            assert not (dasc & dp) and not (dasc & lap) and not (dp & lap)


class TestToggleAction:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_value_toggles_are_involutions(self, n):
        for w in iter_objects("stirling", n):
            for v in range(1, n + 1):
                assert fs_action(fs_action(w, {v}), {v}) == w

    @pytest.mark.parametrize("n", range(1, 6))
    def test_value_toggles_commute(self, n):
        for w in iter_objects("stirling", n):
            for u, v in itertools.combinations(range(1, n + 1), 2):
                assert fs_action(fs_action(w, {u}), {v}) == fs_action(
                    fs_action(w, {v}), {u}) == fs_action(w, {u, v})

    def test_at_most_one_movable_index_per_value(self):
        for w in iter_objects("stirling", 4):
            sets = index_sets(w)
            active_values = [w[i - 1] for i in sets["dasc"] | sets["dp"]]
            assert len(active_values) == len(set(active_values))
            by_definition = ref.index_sets(w)
            movable = by_definition["dasc"] | by_definition["dp"]
            for v in range(1, 5):
                # v is movable when its first copy, at i, is on a double
                # ascent or a descent-plateau
                i = w.index(v) + 1
                assert (i in sets["dasc"] | sets["dp"]) if i in movable else v not in active_values
                # a value moves exactly when it has a movable position
                assert (fs_action(w, {v}) != w) == (i in movable)

    def test_empty_selection_is_identity(self):
        assert fs_action(word("1221"), ()) == word("1221")
        assert fs_action(word("1221"), {2}) == word("1221")  # a left ascent-plateau
        assert fs_action(word("2211"), {2}) == word("2211")  # on no movable index

    def test_full_selection_swaps_dasc_and_dp(self):
        for w in iter_objects("stirling", 5):
            s = index_sets(w)
            moved = fs_action(w, {w[i - 1] for i in s["dasc"] | s["dp"]})
            a, b = stirling_stat_record(w), stirling_stat_record(moved)
            assert (b["lap"], b["dasc"], b["dp"]) == (a["lap"], a["dp"], a["dasc"])


class TestOrbits:
    def test_singleton_orbit(self):
        rep = orbit(word("1122"))
        assert rep == word("1122")
        assert index_sets(rep)["dasc"] == frozenset()
        assert list(orbit_members(rep)) == [word("1122")]

    def test_two_element_orbit(self):
        rep = orbit(word("1221"))
        assert rep == word("1221")
        assert 2 ** len(index_sets(rep)["dasc"]) == 2
        assert set(orbit_members(rep)) == {word("1221"), word("2211")}
        assert orbit(word("2211")) == rep

    @pytest.mark.parametrize("n", range(7))
    def test_orbit_sizes_sum_to_the_class_size(self, n):
        reps = {orbit(w) for w in iter_objects("stirling", n)}
        total = sum(2 ** len(index_sets(rep)["dasc"]) for rep in reps)
        assert total == ref.odd_double_factorial(n)

    @pytest.mark.parametrize("w", [word("2121"), word("1212"), word("12"), (1.0, 1.0)])
    def test_orbit_checks_its_input(self, w):
        # none of these has a descent-plateau, so no toggle would see it
        # (orbit_members on 1212 used to reach a toggle, whose check named
        # a slide instead)
        for walk in (orbit, lambda w: list(orbit_members(w))):
            with pytest.raises(ValueError, match=gate_message(w)):
                walk(w)

    def test_orbit_members_checks_its_input_by_one_lookup(self, monkeypatch):
        looked_up = []

        def counting(w):
            looked_up.append(w)
            return is_stirling(w)

        # the word gate of objects checks the input, the moves their outputs
        monkeypatch.setattr(objects_module, "is_stirling", counting)
        monkeypatch.setattr(actions_module, "is_stirling", counting)
        walk = list(orbit_members(word("123321")))
        assert len(walk) == 4
        # the input once, then each of the three toggles' outputs
        assert looked_up == walk
        # the private walk, fed a word of Q_n, checks the outputs alone
        looked_up.clear()
        assert list(_walk(word("123321"), counting)) == walk
        assert looked_up == walk[1:]

    def test_orbit_members_accepts_a_word(self):
        assert set(orbit_members(word("2211"))) == {word("1221"), word("2211")}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbits_partition_the_class(self, n):
        seen: dict[tuple, tuple] = {}
        reps = set()
        for w in iter_objects("stirling", n):
            rep = orbit(w)
            assert stirling_stat_record(rep)["dp"] == 0
            seen[w] = rep
            reps.add((rep, index_sets(rep)["dasc"]))
        # every word reached from exactly one representative
        total = 0
        covered = set()
        for rep, free in reps:
            members = list(orbit_members(orbit(rep)))
            assert len(members) == len(set(members)) == 2 ** len(free)
            total += len(members)
            covered.update(members)
        assert total == len(seen)
        assert covered == set(seen)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbit_statistics(self, n):
        # on every orbit: lap constant; dasc drops by the subset size while
        # dp picks it up
        for rep in {orbit(w) for w in iter_objects("stirling", n)}:
            rep_r = stirling_stat_record(rep)
            values = sorted(rep[i - 1] for i in index_sets(rep)["dasc"])
            for r in range(len(values) + 1):
                for subset in itertools.combinations(values, r):
                    mr = stirling_stat_record(fs_action(rep, subset))
                    assert mr["lap"] == rep_r["lap"]
                    assert mr["dasc"] == rep_r["dasc"] - len(subset)
                    assert mr["dp"] == len(subset)


class TestOrbitWalk:
    """``orbit_members`` walks an orbit by one toggle per step; the private
    walk of the fs-symmetry loop checks each step by membership in Q_n."""

    @staticmethod
    def walks(n):
        q_n = stirling_scans(n)
        for w in q_n:
            if not index_sets(w)["dp"]:
                yield w, list(_walk(w, q_n.__contains__))

    @pytest.mark.parametrize("n", range(7))
    def test_the_walks_visit_each_word_once(self, n):
        visited = [m for _, members in self.walks(n) for m in members]
        assert len(visited) == len(set(visited)) == len(stirling_scans(n))
        assert set(visited) == set(stirling_scans(n))

    @pytest.mark.parametrize("n", range(7))
    def test_each_orbit_has_two_to_the_dasc_members_with_one_lap(self, n):
        for rep, members in self.walks(n):
            r = stirling_stat_record(rep)
            assert members[0] == rep
            assert len(members) == 2 ** r["dasc"]
            for k, m in enumerate(members):
                # the k-th member has the toggles of k ^ (k >> 1) on
                s = (k ^ k >> 1).bit_count()
                mr = stirling_stat_record(m)
                assert (mr["lap"], mr["dasc"], mr["dp"]) == (r["lap"], r["dasc"] - s, s)

    @pytest.mark.parametrize("n", range(7))
    def test_the_walk_is_the_value_action_in_gray_code_order(self, n):
        # the k-th member toggles on the free values of the set bits of
        # k ^ (k >> 1), in one fs_action call from the representative
        for w in stirling_scans(n):
            if index_sets(w)["dp"]:
                continue
            values = sorted(w[i - 1] for i in index_sets(w)["dasc"])
            for k, m in enumerate(orbit_members(w)):
                gray = k ^ k >> 1
                assert m == fs_action(w, {v for t, v in enumerate(values) if gray >> t & 1})

    def test_gray_code_order(self):
        # free values 1 and 2 of 123321, toggled on: {}, {1}, {1, 2}, {2}
        walk = [word("123321"), word("233211"), word("332211"), word("133221")]
        assert list(orbit_members(word("123321"))) == walk
        assert list(orbit_members(orbit(word("332211")))) == walk

    def test_a_step_outside_within_raises(self):
        q_2 = frozenset(iter_objects("stirling", 2))
        walk = _walk(word("1221"), (q_2 - {word("2211")}).__contains__)
        assert next(walk) == word("1221")
        with pytest.raises(IdentityViolationError,
                           match=r"^sliding 1 right in \(1, 2, 2, 1\) gave \(2, 2, 1, 1\)$"):
            next(walk)

    def test_the_way_to_the_representative_is_checked_against_within(self):
        # 2211 has a descent-plateau at 1; toggling it off gives 1221, which
        # is left out of the set the walk checks by, so it raises before
        # yielding anything
        q_2 = frozenset(iter_objects("stirling", 2))
        walk = _walk(word("2211"), (q_2 - {word("1221")}).__contains__)
        with pytest.raises(IdentityViolationError,
                           match=r"^sliding 1 left in \(2, 2, 1, 1\) gave \(1, 2, 2, 1\)$"):
            next(walk)

    @staticmethod
    def never_off(toggle):
        def planted(word, v, check):
            # a toggle that never turns a value back off
            first = word.index(v)
            return word if word[first + 1] == v else toggle(word, v, check)
        return planted

    @staticmethod
    def to_lap(toggle):
        def planted(word, v, check):
            # a double ascent whose second copy slides left to meet the first:
            # a left ascent-plateau, so lap rises and dp stays
            first = word.index(v)
            second = word.index(v, first + 1)
            if second == first + 1:
                return toggle(word, v, check)
            moved = word[:first + 1] + (v,) + word[first + 1:second] + word[second + 1:]
            assert check(moved)
            return moved
        return planted

    @staticmethod
    def revisit(toggle):
        first = {}

        def planted(word, v, check):
            # each toggle output replaced by the first one built with the
            # same length and (lap, dasc, dp), a word walked already
            moved = toggle(word, v, check)
            r = stirling_stat_record(moved)
            return first.setdefault((len(moved), r["lap"], r["dasc"], r["dp"]), moved)
        return planted

    @pytest.mark.parametrize("plant, witness", [
        ("never_off", "n=3, word (1, 2, 3, 3, 2, 1): 1 of 2 toggles sent"),
        ("to_lap", "n=2, word (1, 2, 2, 1): 1 of 1 toggles sent"),
        ("revisit", "n=3: the orbit of (1, 3, 3, 1, 2, 2) walks (1, 1, 3, 3, 2, 2) twice"),
    ])
    def test_a_wrong_toggle_fails_fs_symmetry(self, monkeypatch, plant, witness):
        from stirlab.identities import run_identity

        monkeypatch.setattr(actions_module, "_toggle",
                            getattr(self, plant)(actions_module._toggle))
        r = run_identity("fs-symmetry", 4)
        assert not r.passed
        assert r.witness.startswith(witness), r.witness


class TestBetaMoves:
    def test_worked_examples(self):
        sigma = word("3443578876652211")
        assert beta_set(sigma, {1}) == word("1344357887665221")
        assert beta_set(sigma, {2}) == word("2344357887665211")
        assert beta_set(sigma, {6}) == word("3443567887652211")

    def test_beta_set_empty(self):
        assert beta_set(word("2211"), ()) == word("2211")

    def test_raw_moves_need_the_order_convention(self):
        # regression: on 331221 the first 2 is only movable once the 1 has
        # left, so the two orders differ and beta_set fixes increasing order
        w = word("331221")
        assert beta_set(beta_set(w, {1}), {2}) == word("123321")
        assert beta_set(beta_set(w, {2}), {1}) == word("133221")
        assert beta_set(w, (2, 1)) == beta_set(w, (1, 2)) == word("123321")

    def test_beta_set_checks_its_input(self):
        # every beta move on 1212 is a no-op, so only the input check sees it
        with pytest.raises(ValueError, match=gate_message(word("1212"))):
            beta_set(word("1212"), {1, 2})

    @pytest.mark.parametrize("move, args, message", [
        (beta_set, ((1, 1), ["a"]), r"^'a' does not occur twice in \(1, 1\)$"),
        (beta_set, ((1, 1), [1, 5]), r"^5 does not occur twice in \(1, 1\)$"),
        (fs_action, ((1, 1), [5]), r"^5 does not occur twice in \(1, 1\)$"),
        (fs_action, ((1, 2, 2, 1), [0, 1]), r"^0 does not occur twice in \(1, 2, 2, 1\)$"),
        # not ints: a float or a bool equal to a letter, or a value that
        # cannot sort against the letters
        (beta_set, ((1, 1), [1, "a"]), r"^'a' does not occur twice in \(1, 1\)$"),
        (beta_set, ((2, 2, 1, 1), [1.0]), r"^1\.0 does not occur twice in \(2, 2, 1, 1\)$"),
        (beta_set, ((1, 1), [1, True]), r"^True does not occur twice in \(1, 1\)$"),
        (fs_action, ((1, 2, 2, 1), [True]), r"^True does not occur twice in \(1, 2, 2, 1\)$"),
        (fs_action, ((1, 2, 2, 1), [1.0]), r"^1\.0 does not occur twice in \(1, 2, 2, 1\)$"),
        (fs_action, ((1, 2, 2, 1), [2, "a"]), r"^'a' does not occur twice in \(1, 2, 2, 1\)$"),
        # letters that are not ints: a string compares with no int, and
        # alpha would return its characters
        (index_sets, ("1221",), r"^not a word of int letters: \('1', '2', '2', '1'\)$"),
        (alpha, ("1221",), r"^not a word of int letters: \('1', '2', '2', '1'\)$"),
    ], ids=["beta_set", "beta_set-missing", "fs_action", "fs_action-zero",
            "beta_set-str", "beta_set-float", "beta_set-bool", "fs_action-bool",
            "fs_action-float", "fs_action-str", "index_sets-str", "alpha-str"])
    def test_a_value_missing_from_the_word_is_named(self, move, args, message):
        with pytest.raises(ValueError, match=message):
            move(*args)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_doubled_words_commute(self, n):
        # on the doubled words fed to the alpha inverse the raw moves do
        # commute pairwise
        for pi in iter_objects("permutation", n):
            w = tuple(v for v in pi for _ in range(2))
            for u, v in itertools.combinations(range(1, n + 1), 2):
                assert beta_set(beta_set(w, {u}), {v}) == beta_set(beta_set(w, {v}), {u})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_beta_normalizes(self, n):
        values = range(1, n + 1)
        for w in iter_objects("stirling", n):
            moved = beta_set(w, values)
            r = stirling_stat_record(moved)
            assert r["dp"] == 0 and r["lap"] + r["dasc"] == n
            assert alpha(moved) == alpha(w)
            mr = stirling_stat_record(w)
            if mr["dp"] == 0 and mr["lap"] + mr["dasc"] == n:
                assert moved == w


class TestAlpha:
    def test_worked_example(self):
        assert alpha(word("344355661221")) == (4, 3, 5, 6, 2, 1)

    def test_doubled_identity(self):
        assert alpha(word("1122")) == (1, 2)

    @pytest.mark.parametrize("pi", [(1, 1), (2, 3), (0, 1), (1, 3, 2, 5), (1.0,)])
    def test_inverse_rejects_what_is_not_a_permutation(self, pi):
        with pytest.raises(ValueError, match=r"^not a permutation of \[n\]: "):
            alpha_inverse(pi)

    def test_descent_bottom_set(self):
        assert descent_bottom_set((4, 3, 5, 6, 2, 1)) == {3, 2, 1}

    @pytest.mark.parametrize("n", range(5))
    def test_round_trip(self, n):
        for pi in iter_objects("permutation", n):
            w = alpha_inverse(pi)
            assert alpha(w) == pi
            r = stirling_stat_record(w)
            assert r["dp"] == 0 and r["lap"] + r["dasc"] == n


class TestAssertsStay:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(word):
            seen.append(word)
            return is_stirling(word)

        # the word gate of objects checks the input, the moves their outputs
        monkeypatch.setattr(objects_module, "is_stirling", counting)
        monkeypatch.setattr(actions_module, "is_stirling", counting)
        return seen

    def test_beta_move_checks_once_per_move(self, calls):
        w = word("3443557887662211")
        moved = beta_set(w, {6})
        assert calls == [w, moved]
        beta_set(word("331221"), {1, 2, 3})
        assert len(calls) == 2 + 3  # the input, then the slides of 1 and 2

    def test_beta_set_checks_its_input_and_each_moved_word(self, calls):
        w = word("331221")
        moved = beta_set(w, {1, 2, 3})
        # 3 already follows the smaller 2 once 2 has moved: no slide, no check
        assert moved == word("123321")
        assert calls == [w, word("133221"), moved]

    def test_fs_move_checks_once_per_move(self, calls):
        w = word("2447887332115665")
        moved = fs_action(w, {2})
        assert calls == [w, moved]
        s = index_sets(w)
        fs_action(w, range(1, 9))  # only the movable values move
        assert len(calls) == 2 + 1 + len(s["dasc"] | s["dp"])

    def test_gated_words_skip_the_letter_scan(self, monkeypatch):
        # the word gate already rejects every non-int letter, so fs_action
        # and orbit read the word without index_sets' own letter scan
        scanned = []
        scan = actions_module._word
        monkeypatch.setattr(actions_module, "_word",
                            lambda w: scanned.append(w) or scan(w))
        w = word("2447887332115665")
        fs_action(w, {1, 2, 3})
        orbit(w)
        orbit(fs_action(w, {2}))  # a descent-plateau to toggle off
        assert scanned == []
        index_sets(w)
        assert scanned == [w]

    def test_a_failed_move_check_raises(self, monkeypatch):
        monkeypatch.setattr(actions_module, "is_stirling", lambda w: False)
        with pytest.raises(IdentityViolationError, match="left"):
            beta_set(word("3443557887662211"), {6})
        with pytest.raises(IdentityViolationError, match="right"):
            fs_action(word("2447887332115665"), {2})

    def test_orbit_checks_its_representative(self, monkeypatch):
        monkeypatch.setattr(actions_module, "_toggle", lambda w, v, check: w)
        with pytest.raises(IdentityViolationError, match="descent-plateau"):
            orbit(word("2211"))

    def test_checks_survive_python_dash_o(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        probe = subprocess.run([sys.executable, "-O", "-c", "assert False"])
        assert probe.returncode == 0  # -O really strips assert statements
        # both the membership check and the is_stirling check must raise
        script = (
            "import stirlab.actions as a\n"
            "from stirlab.errors import IdentityViolationError\n"
            "def raises(move, *args, **kwargs):\n"
            "    try:\n"
            "        move(*args, **kwargs)\n"
            "    except IdentityViolationError:\n"
            "        return True\n"
            "    return False\n"
            "member = raises(list, a._walk((1, 2, 2, 1), frozenset().__contains__))\n"
            "a.is_stirling = lambda w: False\n"
            "stack = raises(a.beta_set,\n"
            "               (3, 4, 4, 3, 5, 5, 7, 8, 8, 7, 6, 6, 2, 2, 1, 1), {6})\n"
            "raise SystemExit(3 if member and stack else 4)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr


class TestMembershipCheck:
    """The private walk checks each step by membership in a set holding Q_n
    instead of with is_stirling."""

    @pytest.mark.parametrize("n", range(6))
    def test_same_result_as_the_stirling_check(self, n):
        q_n = frozenset(iter_objects("stirling", n))
        for w in iter_objects("stirling", n):
            assert list(_walk(w, q_n.__contains__)) == list(orbit_members(w))

    @pytest.mark.parametrize("n", range(6))
    def test_a_scan_table_checks_by_its_keys(self, n):
        # the fs-symmetry loop checks by the keys of the dict from each word
        # of Q_n to its scan
        table = stirling_scans(n)
        for w in table:
            assert list(_walk(w, table.__contains__)) == list(orbit_members(w))

    def test_an_output_missing_from_the_table_raises(self):
        table = {w: r for w, r in stirling_scans(2).items() if w != word("1221")}
        with pytest.raises(IdentityViolationError,
                           match=r"^sliding 1 left in \(2, 2, 1, 1\) gave \(1, 2, 2, 1\)$"):
            list(_walk(word("2211"), table.__contains__))

    def test_within_replaces_the_stirling_check(self, monkeypatch):
        w = word("331221")
        walk = list(orbit_members(w))
        monkeypatch.setattr(actions_module, "is_stirling", lambda w: False)
        q_3 = frozenset(iter_objects("stirling", 3))
        assert list(_walk(w, q_3.__contains__)) == walk


class TestKernelsMatchTheSliceReference:
    def test_inputs_that_are_not_tuples(self):
        sigma = list(word("2447887332115665"))
        for v in range(1, 9):
            assert beta_set(sigma, [v]) == ref.slid_left(tuple(sigma), sigma.index(v), v)
            assert fs_action(sigma, [v]) == ref.toggled(tuple(sigma), v)
        assert fs_action(sigma, [2, 7]) == ref.fs_action(tuple(sigma), {2, 7})

    @pytest.mark.parametrize("n", range(7))
    def test_every_word_value_and_position(self, n):
        # the public moves on every word of Q_n against the slice-built
        # references: each beta move, each toggle, and all toggles at once
        for w in ref.stirling_words(n):
            assert fs_action(w, range(1, n + 1)) == ref.fs_action(w, range(1, n + 1))
            for v in range(1, n + 1):
                assert beta_set(w, {v}) == ref.slid_left(w, w.index(v), v)
                assert fs_action(w, {v}) == ref.toggled(w, v)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ref.stirling_words(5)), st.sets(st.integers(-3, 14)))
    def test_arbitrary_position_sets(self, w, positions):
        # the toggles of the values read at any positions, out of range
        # ones reading nothing
        values = {w[i - 1] for i in positions if 1 <= i <= len(w)}
        assert fs_action(w, values) == ref.fs_action(w, values)


class TestOnePassIndexSets:
    def test_all_small_words(self):
        for n in range(7):
            for w in iter_objects("stirling", n):
                assert index_sets(w) == ref.index_sets(w)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1, 5), max_size=10))
    def test_arbitrary_int_lists(self, w):
        assert index_sets(w) == ref.index_sets(w)
