"""CLI behavior: formats, exit codes, cache handling, byte stability."""
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from stirlab import objects, tables
from stirlab.cli import ORDER_LIMIT, POLY_LIMITS, _print_trivariate, main
from stirlab.grammar import TERM_LIMIT
from stirlab.identities import REGISTRY, IdentityCheck


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestEnumerate:
    def test_stirling_plain(self):
        code, out = run_cli("enumerate", "--class", "stirling", "--n", "2")
        assert code == 0
        assert out == "1122\n1221\n2211\n"

    def test_stirling_order_one(self):
        assert run_cli("enumerate", "--class", "stirling", "--n", "1")[1] == "11\n"

    def test_signed_plain(self):
        code, out = run_cli("enumerate", "--class", "signed", "--n", "1")
        assert out == "1\n-1\n"

    def test_matching_line_count(self):
        code, out = run_cli("enumerate", "--class", "matching", "--n", "2")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_json_stream(self):
        _, out = run_cli("--format", "json", "enumerate", "--class", "stirling",
                         "--n", "2")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == [1, 1, 2, 2]

    def test_csv_matching(self):
        _, out = run_cli("--format", "csv", "enumerate", "--class", "matching",
                         "--n", "2")
        assert out.splitlines()[0] == "1:2,3:4"

    def test_bound_violation_exits_2(self):
        code, _ = run_cli("enumerate", "--class", "stirling", "--n", "9")
        assert code == 2

    def test_bound_can_be_raised(self):
        code, out = run_cli("--bound", "9", "enumerate", "--class", "permutation",
                            "--n", "9")
        assert code == 0 and len(out.splitlines()) == 362880

    def test_plain_letters_are_spaced_beyond_n_9(self):
        class FirstLine(io.StringIO):
            # stops the stream once its first block of lines is written
            class Done(Exception):
                pass

            def write(self, s):
                super().write(s)
                if "\n" in s:
                    raise self.Done

        out = FirstLine()
        with pytest.raises(FirstLine.Done):
            main(["--bound", "10", "enumerate", "--class", "permutation", "--n", "10"],
                 out=out)
        assert out.getvalue().split("\n", 1)[0] == "1 2 3 4 5 6 7 8 9 10"


class TestStats:
    def test_fap_table(self):
        code, out = run_cli("stats", "--class", "stirling", "--n", "2",
                            "--stats", "fap")
        assert code == 0
        assert out == "fap\tcount\n1\t1\n2\t1\n3\t1\n"

    def test_signed_fdes(self):
        _, out = run_cli("stats", "--class", "signed", "--n", "1",
                         "--stats", "fdes")
        assert out == "fdes\tcount\n0\t1\n1\t1\n"

    def test_joint_csv_row_major(self):
        _, out = run_cli("--format", "csv", "stats", "--class", "stirling",
                         "--n", "2", "--stats", "lap,dasc,dp")
        lines = out.splitlines()
        assert lines[0] == "lap,dasc,dp,count"
        values = [tuple(map(int, row.split(",")[:3])) for row in lines[1:]]
        assert values == sorted(values)

    def test_json(self):
        _, out = run_cli("--format", "json", "stats", "--class", "stirling",
                         "--n", "3", "--stats", "lap,dasc,dp")
        obj = json.loads(out)
        assert obj["n"] == 3 and obj["stats"] == ["lap", "dasc", "dp"]
        assert sum(e["count"] for e in obj["entries"]) == 15

    def test_unknown_stat_exits_2(self):
        assert run_cli("stats", "--class", "stirling", "--n", "2",
                       "--stats", "bogus")[0] == 2

    @pytest.mark.parametrize("names", [",", "", " , "])
    def test_no_statistic_exits_2(self, capsys, names):
        assert run_cli("stats", "--class", "stirling", "--n", "2",
                       "--stats", names) == (2, "")
        assert capsys.readouterr().err == (
            f"stirlab: error: --stats {names!r} names no statistic\n"
        )


class TestPoly:
    def test_t2(self, tmp_path):
        code, out = run_cli("--cache-dir", str(tmp_path), "poly", "--name", "T",
                            "--n", "2")
        assert code == 0 and out == "x + x^2 + x^3\n"

    def test_g3(self, tmp_path):
        _, out = run_cli("--cache-dir", str(tmp_path), "poly", "--name", "G",
                         "--n", "3")
        assert out == "2*x^2 + x*y^2 + 4*x^2*y + x^3\n"

    def test_n0(self):
        assert run_cli("poly", "--name", "N", "--n", "0")[1] == "1\n"

    def test_json_schema(self, tmp_path):
        _, out = run_cli("--format", "json", "poly", "--name", "A", "--n", "3")
        assert json.loads(out) == {"var": "x", "coeffs": ["1", "4", "1"]}
        _, out = run_cli("--cache-dir", str(tmp_path), "--format", "json",
                         "poly", "--name", "P", "--n", "2")
        terms = json.loads(out)
        assert {"e": [1, 1, 0], "c": "1"} in terms

    def test_cache_files_written(self, tmp_path):
        run_cli("--cache-dir", str(tmp_path), "poly", "--name", "P", "--n", "3")
        assert (tmp_path / "p-3.json").exists()

    def test_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STIRLAB_CACHE", str(tmp_path / "envcache"))
        run_cli("poly", "--name", "T", "--n", "2")
        assert (tmp_path / "envcache" / "t-2.json").exists()


    def test_negative_n_exits_2(self, tmp_path, capsys):
        code, out = run_cli("poly", "--name", "A", "--n", "-1",
                            "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == "stirlab: error: n must be nonnegative, got -1\n"

    @pytest.mark.parametrize("name", sorted(POLY_LIMITS))
    def test_n_past_the_family_limit_exits_2(self, tmp_path, capsys, name):
        limit = POLY_LIMITS[name]
        code, out = run_cli("poly", "--name", name, "--n", str(limit + 1),
                            "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"stirlab: error: n={limit + 1} exceeds the limit {limit}"
            f" of poly --name {name}\n"
        )
        assert not list(tmp_path.iterdir())

    def test_limits_admit_every_benchmarked_size(self):
        # the largest poly command of each family in perfbench/workloads.py
        benchmarked = {"A": 300, "B": 300, "C": 150, "N": 150, "F": 150,
                       "M": 30, "T": 60, "P": 40, "G": 100}
        assert all(POLY_LIMITS[name] >= n for name, n in benchmarked.items())
        assert set(POLY_LIMITS) == set(benchmarked)


class TestGrammar:
    def test_derivative_from_rule_file(self, tmp_path):
        rules = tmp_path / "flag.rules"
        rules.write_text("x -> x*y*z\ny -> y*z^2\nz -> y^2*z\n")
        code, out = run_cli("grammar", "--rules", str(rules), "--start", "x*y",
                            "--order", "1")
        assert code == 0 and out == "x*y*z^2 + x*y^2*z\n"

    def test_order_zero(self, tmp_path):
        rules = tmp_path / "uvw.rules"
        rules.write_text("u -> u*v*w; v -> 2*u*w; w -> u*w\n")
        assert run_cli("grammar", "--rules", str(rules), "--start", "w",
                       "--order", "0")[1] == "w\n"

    def test_refined_second_derivative(self, tmp_path):
        rules = tmp_path / "refined.rules"
        rules.write_text(
            "x -> x*z*q; y -> y*z*p; z -> x*y*z; p -> x*y*z; q -> x*y*z\n"
        )
        _, out = run_cli("grammar", "--rules", str(rules), "--start", "z",
                         "--order", "2")
        assert out == "p*x*y*z^2 + q*x*y*z^2 + x^2*y^2*z\n"

    def test_syntax_error_exits_2(self, tmp_path):
        rules = tmp_path / "bad.rules"
        rules.write_text("x -> \n")
        assert run_cli("grammar", "--rules", str(rules), "--start", "x",
                       "--order", "1")[0] == 2

    def test_a_start_outside_ascii_exits_2(self, tmp_path, capsys):
        # an Arabic-Indic three is a digit to str.isdigit, not to the syntax
        rules = tmp_path / "flag.rules"
        rules.write_text("x -> x*y*z\ny -> y*z^2\nz -> y^2*z\n")
        assert run_cli("grammar", "--rules", str(rules), "--start", "\u0663*x",
                       "--order", "1") == (2, "")
        assert capsys.readouterr().err == (
            "stirlab: error: line 1, column 1: unexpected character '\u0663'\n")

    def test_missing_file_exits_2(self):
        assert run_cli("grammar", "--rules", "/nonexistent", "--start", "x",
                       "--order", "1")[0] == 2

    def test_order_past_the_limit_exits_2(self, tmp_path, capsys):
        # the benchmark derives the flag grammar to order 100, the limit
        rules = tmp_path / "flag.rules"
        rules.write_text("x -> x*y*z\ny -> y*z^2\nz -> y^2*z\n")
        argv = ["grammar", "--rules", str(rules), "--start", "x*y", "--order"]
        assert ORDER_LIMIT == 100
        code, out = run_cli(*argv, str(ORDER_LIMIT))
        assert code == 0 and out.startswith("x*y*z^200 + ")
        capsys.readouterr()
        assert run_cli(*argv, str(ORDER_LIMIT + 1)) == (2, "")
        assert capsys.readouterr().err == (
            f"stirlab: error: order {ORDER_LIMIT + 1} exceeds the grammar limit"
            f" {ORDER_LIMIT}\n"
        )

    def test_negative_order_exits_2(self, tmp_path, capsys):
        rules = tmp_path / "flag.rules"
        rules.write_text("x -> x*y*z\ny -> y*z^2\nz -> y^2*z\n")
        assert run_cli("grammar", "--rules", str(rules), "--start", "x",
                       "--order", "-1") == (2, "")
        assert capsys.readouterr().err == "stirlab: error: order must be nonnegative, got -1\n"

    def test_wide_grammar_stops_at_the_term_limit(self, tmp_path, capsys):
        # eight letters whose rules each add a product: D^n(a) has 108,289
        # terms at n = 13, past TERM_LIMIT, so order 100 stops there
        rules = tmp_path / "wide.rules"
        rules.write_text("a -> a*b + c; b -> b*c + d; c -> c*d + e; d -> d*e + f; "
                         "e -> e*f + g; f -> f*g + h; g -> g*h + a; h -> h*a + b\n")
        assert TERM_LIMIT == 100_000
        start = time.perf_counter()
        code, out = run_cli("grammar", "--rules", str(rules), "--start", "a",
                            "--order", "100")
        assert time.perf_counter() - start < 10
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "stirlab: error: the derivative of order 13 has 108289 terms,"
            f" past the grammar term limit {TERM_LIMIT}\n"
        )


class TestVerify:
    def test_single_identity_passes(self):
        code, out = run_cli("verify", "--identity", "gamma-eulerian",
                            "--max-n", "7")
        assert code == 0
        assert out.startswith("pass  gamma-eulerian (max_n=7)")

    def test_unknown_identity_exits_2(self):
        assert run_cli("verify", "--identity", "no-such")[0] == 2

    def test_bound_past_limit_exits_2(self):
        assert run_cli("verify", "--identity", "bona-equidistribution",
                       "--max-n", "99")[0] == 2

    @pytest.mark.parametrize("target", [("--identity", "t-self-inverse"),
                                        ("--all",)])
    def test_negative_bound_exits_2(self, target, capsys):
        code, out = run_cli("verify", *target, "--max-n", "-3")
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == "stirlab: error: bound must be nonnegative, got -3\n"

    def test_all_small_bound(self):
        code, out = run_cli("verify", "--all", "--max-n", "3")
        assert code == 0
        assert len(out.splitlines()) == len(REGISTRY)

    def test_a_check_that_compares_nothing_skips(self):
        skipping = ["flag-adin", "flag-convolution", "flag-dual", "gamma-eulerian",
                    "gamma-recurrence", "gamma-weighted-sums", "signed-des-2nA"]
        code, out = run_cli("verify", "--all", "--max-n", "0")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()
                if line.startswith("skip")] == skipping
        assert "skip  flag-adin (max_n=0) [0 ms]\n" in out
        assert sum(line.startswith("pass") for line in out.splitlines()) == 24
        _, out = run_cli("--format", "csv", "verify", "--all", "--max-n", "0")
        assert "flag-adin,0,skip,0.0,\n" in out and "matching-M,0,true," in out
        _, out = run_cli("--format", "json", "verify", "--all", "--max-n", "0")
        rows = {row["name"]: row for row in json.loads(out)}
        assert rows["flag-adin"] == {"name": "flag-adin", "params": {"max_n": 0},
                                     "pass": True, "millis": 0.0, "skipped": True}
        assert sorted(n for n, row in rows.items() if "skipped" in row) == skipping

    def test_json_report_schema(self):
        _, out = run_cli("--format", "json", "verify", "--identity",
                         "t-self-inverse", "--max-n", "4")
        report = json.loads(out)
        assert report[0]["name"] == "t-self-inverse"
        assert report[0]["pass"] is True
        assert report[0]["params"] == {"max_n": 4}

    def test_failure_exits_1(self, monkeypatch):
        import stirlab.identities as ids

        broken = IdentityCheck(
            "always-fails", "test stub", 2, 5, lambda bound: f"n={bound}: nope"
        )
        monkeypatch.setitem(ids.REGISTRY, "always-fails", broken)
        code, out = run_cli("verify", "--identity", "always-fails")
        assert code == 1
        assert "FAIL" in out and "witness: n=2: nope" in out

    def test_cross_check_failure_is_a_fail_not_a_traceback(self, monkeypatch):
        import stirlab.tables as tb

        # the closed form of N_n raises when 2^n does not divide its sum
        monkeypatch.setattr(tb, "_closed_weight", lambda n, k: 1)
        code, out = run_cli("verify", "--identity", "n-closed-form", "--max-n", "5")
        assert code == 1
        assert out.startswith("FAIL  n-closed-form (max_n=5)")
        assert "witness: closed form of N_1 is not integral: 2^1 N_1 = 1\n" in out

    def test_a_route_that_raises_is_a_fail_not_an_error(self, monkeypatch):
        import stirlab.tables as tb

        def broken(n):
            raise ValueError(f"need 1 <= i <= n, got n={n}")

        monkeypatch.setattr(tb, "f_poly", broken)
        code, out = run_cli("verify", "--all", "--max-n", "3")
        assert code == 1
        rows = [line for line in out.splitlines() if not line.startswith("  ")]
        assert len(rows) == 31
        failed = [row.split()[1] for row in rows if row.startswith("FAIL")]
        # the two identities whose routes read F_n
        assert failed == ["flag-adin", "t-egf-product"]
        assert "  witness: n=0: raised ValueError: need 1 <= i <= n, got n=0\n" in out
        assert "  witness: n=1: raised ValueError: need 1 <= i <= n, got n=1\n" in out

    def test_a_hand_written_runner_that_raises_is_a_fail(self, monkeypatch):
        import stirlab.identities as ids

        monkeypatch.setattr(ids, "stirling_scans", lambda n: {}[n])
        code, out = run_cli("verify", "--identity", "alpha-bijection", "--max-n", "2")
        assert code == 1
        assert "witness: raised KeyError: 0\n" in out

    @pytest.mark.parametrize("name, witness", [
        ("alpha-bijection", "sliding 2 left in (2, 2, 1, 1) gave (2, 2, 2, 1)"),
        ("fs-symmetry", "sliding 2 left in (3, 3, 2, 2, 1, 1) gave (2, 3, 3, 2, 2, 1)"),
    ])
    def test_a_bad_slide_is_a_fail_not_a_traceback(self, monkeypatch, name, witness):
        import stirlab.actions as actions

        slide = actions._slide_left

        def planted(word, first, v, check):
            # slides the next larger value: its output is never in Q_n
            return slide(word, first, v + 1, check)

        monkeypatch.setattr(actions, "_slide_left", planted)
        # only the membership check can catch it in these loops
        monkeypatch.setattr(actions, "is_stirling", lambda w: True)
        code, out = run_cli("verify", "--identity", name, "--max-n", "4")
        assert code == 1
        assert out.startswith(f"FAIL  {name} (max_n=4)")
        assert f"witness: {witness}" in out

    def test_csv_report(self):
        _, out = run_cli("--format", "csv", "verify", "--identity",
                         "gamma-vanishing", "--max-n", "4")
        lines = out.splitlines()
        assert lines[0] == "name,max_n,pass,millis,witness"
        assert lines[1].startswith("gamma-vanishing,4,true,")


class TestByteStability:
    def test_repeated_runs_identical(self):
        a = run_cli("stats", "--class", "stirling", "--n", "3",
                    "--stats", "lap,dasc,dp")
        b = run_cli("stats", "--class", "stirling", "--n", "3",
                    "--stats", "lap,dasc,dp")
        assert a == b
        a = run_cli("enumerate", "--class", "stirling", "--n", "3")
        b = run_cli("enumerate", "--class", "stirling", "--n", "3")
        assert a == b


GOLDEN = Path(__file__).parent / "golden"


# class, n and stats of each stats golden file
STATS_GOLDEN_RUNS = [("stirling", 6, "lap,dasc,dp"), ("signed", 3, "desA,fdes"),
                     ("matching", 4, "el,ol"), ("permutation", 5, "des")]


@pytest.mark.parametrize("fmt,suffix", [("plain", "txt"), ("json", "json"),
                                        ("csv", "csv")])
def test_stats_golden_bytes(fmt, suffix):
    for klass, n, stats in STATS_GOLDEN_RUNS:
        code, out = run_cli("--format", fmt, "stats", "--class", klass,
                            "--n", str(n), "--stats", stats)
        stem = f"stats_{klass}_{n}_{stats.replace(',', '_')}"
        assert code == 0, stem
        assert out == (GOLDEN / f"{stem}.{suffix}").read_text(), stem


@pytest.mark.parametrize("klass,n", [("stirling", 3), ("signed", 2),
                                     ("matching", 3), ("permutation", 3)])
@pytest.mark.parametrize("fmt,suffix", [("plain", "txt"), ("json", "json"),
                                        ("csv", "csv")])
def test_enumerate_golden_bytes(klass, n, fmt, suffix):
    code, out = run_cli("--format", fmt, "enumerate", "--class", klass, "--n", str(n))
    assert code == 0
    assert out == (GOLDEN / f"enumerate_{klass}_{n}.{suffix}").read_text()


@pytest.mark.parametrize("klass,n", [("stirling", 6), ("matching", 6), ("signed", 6),
                                     ("permutation", 7)])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_enumerate_blocks_join_to_the_per_object_lines(klass, n, fmt):
    # each order's output runs past the first block of 4096 lines
    lines = [ref.enumerate_line(klass, n, obj, fmt) for obj in ref.STREAMS[klass](n)]
    assert len(lines) > 4096
    assert run_cli("--format", fmt, "--bound", str(n), "enumerate", "--class", klass,
                   "--n", str(n)) == (0, "".join(line + "\n" for line in lines))


POLY_GOLDEN_RUNS = [("A", 12), ("B", 12), ("C", 12), ("N", 12), ("F", 12),
                    ("M", 8), ("T", 8), ("P", 6), ("G", 10)]


@pytest.mark.parametrize("name,n", POLY_GOLDEN_RUNS)
@pytest.mark.parametrize("fmt,suffix", [("plain", "txt"), ("json", "json"),
                                        ("csv", "csv")])
def test_poly_golden_bytes(tmp_path, name, n, fmt, suffix):
    code, out = run_cli("--format", fmt, "--cache-dir", str(tmp_path), "poly",
                        "--name", name, "--n", str(n))
    assert code == 0
    assert out == (GOLDEN / f"poly_{name}_{n}.{suffix}").read_text()
    # a second run reads the table cache and prints the same bytes
    assert run_cli("--format", fmt, "--cache-dir", str(tmp_path), "poly",
                   "--name", name, "--n", str(n)) == (code, out)


# P and G at their limits, past the golden files and the small rows the
# Hypothesis test of test_polynomials.py draws; G's row is keyed (i, j), as
# the CLI prints it
LARGEST_TRIVARIATE_ROWS = {
    "P": lambda: tables._p_row(POLY_LIMITS["P"]),
    "G": lambda: tables._gamma_row(POLY_LIMITS["G"]),
}


def triples(row):
    """A P or G row keyed (i, j, k), a G key (i, j) padded with k = 0."""
    return {(*e, 0) if len(e) == 2 else e: c for e, c in row.items()}


@pytest.mark.parametrize("name", sorted(LARGEST_TRIVARIATE_ROWS))
def test_the_largest_p_and_g_json_lines_match_the_reference(name):
    row = LARGEST_TRIVARIATE_ROWS[name]()
    (line,) = _print_trivariate(row, "json")
    assert line + "\n" == ref.tri_lines(triples(row), "json")


@pytest.mark.parametrize("name", sorted(LARGEST_TRIVARIATE_ROWS))
def test_the_largest_p_and_g_json_lines_peak_below_5_times_their_length(name):
    # the sorted keys, the term strings and the joined line: 3.1 (P) and
    # 2.4 (G) times the line; a dict and a list made per term for
    # json.dumps peaked at 13 and 7 times
    row = LARGEST_TRIVARIATE_ROWS[name]()
    tracemalloc.start()
    try:
        (line,) = _print_trivariate(row, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(line)


# rule file, start, order, golden file stem; the unsorted rules list their
# heads out of alphabetical order, and the constant start never derives
GRAMMAR_GOLDEN_RUNS = [
    ("flag", "x*y", 6, "flag_6"),
    ("refined", "z", 6, "refined_6"),
    ("gamma", "w", 6, "gamma_6"),
    ("unsorted", "x*z", 4, "unsorted_4"),
    ("flag", "7", 0, "const_7_0"),
]


@pytest.mark.parametrize("rules,start,order,stem", GRAMMAR_GOLDEN_RUNS)
@pytest.mark.parametrize("fmt,suffix", [("plain", "txt"), ("json", "json"),
                                        ("csv", "csv")])
def test_grammar_golden_bytes(rules, start, order, stem, fmt, suffix):
    code, out = run_cli("--format", fmt, "grammar", "--rules",
                        str(GOLDEN / f"grammar_{rules}.rules"), "--start", start,
                        "--order", str(order))
    assert code == 0
    assert out == (GOLDEN / f"grammar_{stem}.{suffix}").read_text()


# the grammar-deep benchmark commands: (rule-file name, grammar in
# stirlab.tables, start, order), each output's digest keyed in
# perfbench/digests.json as "grammar <name> <start> <order>"
GRAMMAR_DEEP_RUNS = [
    ("refined", "REFINED_GRAMMAR", "z", 20),
    ("gamma", "GAMMA_GRAMMAR", "w", 50),
    ("flag", "FLAG_GRAMMAR", "x*y", 100),
]


@pytest.mark.parametrize("name,attr,start,order", GRAMMAR_DEEP_RUNS)
def test_grammar_deep_outputs_match_the_benchmark_digests(tmp_path, name, attr, start, order):
    # the rule file as perfbench's set-up writes it, one rule per line
    grammar = getattr(tables, attr)
    rules = tmp_path / f"{name}.rules"
    rules.write_text("".join(f"{letter} -> {grammar.rules[letter]}\n"
                             for letter in sorted(grammar.rules)))
    code, out = run_cli("grammar", "--rules", str(rules), "--start", start,
                        "--order", str(order), "--format", "json")
    digests = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json")
                         .read_text())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[f"grammar {name} {start} {order}"]


@pytest.mark.parametrize("name,value_at_1", [
    ("A", math.factorial(1000)),
    ("B", 2**1000 * math.factorial(1000)),
], ids=["A", "B"])
def test_poly_at_n_1000(tmp_path, name, value_at_1):
    code, out = run_cli("--format", "json", "--cache-dir", str(tmp_path), "poly",
                        "--name", name, "--n", "1000")
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert len(coeffs) == (1000 if name == "A" else 1001)
    assert sum(map(int, coeffs)) == value_at_1


def test_poly_prints_coefficients_past_the_int_digit_limit(tmp_path):
    # A_400 has coefficients of more than 640 digits, the lowest limit the
    # interpreter accepts; main lifts the limit for the command and puts the
    # caller's back afterwards
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        runs = [run_cli("--format", fmt, "--cache-dir", str(tmp_path), "poly",
                        "--name", "A", "--n", "400") for fmt in ("plain", "json")]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    (code, plain), (json_code, js) = runs
    assert code == json_code == 0
    plain_coeffs = [term.split("*")[0] if "*" in term else
                    "1" if term.startswith("x") else term
                    for term in plain.strip().split(" + ")]
    assert max(map(len, plain_coeffs)) > 640
    assert sum(map(int, plain_coeffs)) == math.factorial(400)
    assert sum(map(int, json.loads(js)["coeffs"])) == math.factorial(400)


_VALUE_AT_1 = {"A": math.factorial, "B": lambda n: 2**n * math.factorial(n),
               "F": lambda n: 2**n * math.factorial(n)}


@pytest.mark.parametrize("name,n", [("A", 200), ("B", 200), ("C", 200),
                                    ("N", 200), ("F", 100), ("M", 60),
                                    ("T", 50), ("P", 30), ("G", 60)])
def test_poly_call_depth_does_not_grow_with_n(tmp_path, name, n):
    # with the recursion limit a few dozen frames above the caller, a
    # builder that recursed once per n would raise RecursionError here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        code, out = run_cli("--format", "json", "--cache-dir", str(tmp_path),
                            "poly", "--name", name, "--n", str(n))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    obj = json.loads(out)
    if isinstance(obj, dict):
        value = sum(map(int, obj["coeffs"]))
    else:
        value = sum(int(t["c"]) << (t["e"][1] if name == "G" else 0) for t in obj)
    assert value == _VALUE_AT_1.get(name, lambda n: math.prod(range(1, 2 * n, 2)))(n)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "stirlab", "verify", "--identity", "gamma-eulerian",
         "--max-n", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pass  gamma-eulerian (max_n=5)")


def test_poly_and_grammar_leave_the_verify_modules_unloaded(tmp_path):
    # a fresh interpreter, so that no other test's imports count; verify
    # then loads what it needs on its own
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    script = f"""if True:
        import io, json, sys
        from stirlab.cli import main
        out = io.StringIO()
        codes = [
            main(["--cache-dir", {str(tmp_path)!r}, "poly", "--name", "A",
                  "--n", "3"], out=out),
            main(["grammar", "--rules", {str(GOLDEN / "grammar_refined.rules")!r},
                  "--start", "z", "--order", "3"], out=out),
        ]
        loaded = [m for m in ("stirlab.identities", "stirlab.actions",
                              "stirlab.stats") if m in sys.modules]
        codes.append(main(["verify", "--identity", "t-recurrence"], out=out))
        print(json.dumps({{"codes": codes, "loaded": loaded}}))
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": [0, 0, 0], "loaded": []}


def test_clear_memos_empties_every_memo_and_changes_no_number(tmp_path):
    def runs(cache):  # verify to n = 5, millis dropped, and P_8 from an empty table cache
        verify = json.loads(run_cli("--format", "json", "verify", "--all", "--max-n", "5")[1])
        return ([{**r, "millis": 0} for r in verify],
                run_cli("--cache-dir", str(tmp_path / cache), "poly", "--name", "P", "--n", "8"))

    runs("first")  # fills the memos
    warm = runs("warm")
    # every memo of the package as perfbench's worker finds them: all warm
    memos = {obj for name, module in list(sys.modules.items()) if name.split(".")[0] == "stirlab"
             for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None))}
    assert len(memos) >= 9 and all(memo.cache_info().currsize for memo in memos)
    objects.clear_memos()
    assert [memo for memo in memos if memo.cache_info().currsize] == []
    assert runs("cold") == warm


def test_a_closed_stdout_exits_141_quietly(tmp_path):
    # A_1000 in JSON is megabytes, far more than a pipe holds, so the
    # command is still writing when the reader closes the pipe
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "stirlab", "--cache-dir", str(tmp_path),
         "poly", "--name", "A", "--n", "1000", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


def test_a_pipe_closed_mid_block_exits_141_quietly():
    # the first block of 4096 matchings of order 7 is about 190 kB, more
    # than a pipe holds, so the reader closes while a block is being written
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "stirlab", "enumerate", "--class", "matching", "--n", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert first == b"{1,2},{3,4},{5,6},{7,8},{9,10},{11,12},{13,14}\n"
    assert err == b""


# ---------------------------------------------------------------------------
# fuzzed argument lists: main returns 0, 1 or 2 or argparse exits 2; no other
# exception escapes.  Every value keeps an accepted command cheap: n at most
# 4 (30 for poly), bounds at most 4, and verify always ends with a small
# --max-n.  poly --n and grammar --order also draw large values: each is past
# the limit of most families, and the largest are past every limit, so only
# a command that ignored its limit could run long and trip the deadline.

_SMALL = ["-3", "-1", "0", "1", "2", "3", " 4", "x", "", "1e3"]
_LARGE = ["41", "61", "101", "151", "201", "1001", "100000",
          "123456789012345678901234567890"]
_CLASSES = ["stirling", "signed", "matching", "permutation", "bogus"]


def _fuzz_argv(paths):
    def pair(flag, values):
        return st.tuples(st.just(flag), st.sampled_from(values))

    junk = st.sampled_from(["--bogus", "-x", "bogus", "--n", "--", "--all"])
    common = [pair("--format", ["plain", "json", "csv", "xml"]),
              pair("--cache-dir", [paths["cache"], paths["file"]]),
              pair("--bound", _SMALL)]
    # each subcommand's own options, each drawn most of the time
    subcommands = {
        "enumerate": [pair("--class", _CLASSES), pair("--n", _SMALL)],
        "stats": [pair("--class", _CLASSES), pair("--n", _SMALL),
                  pair("--stats", ["lap,dasc,dp", "des", "desA,fdes", "el,ol",
                                   "bogus", ",,", "lap,lap"])],
        "poly": [pair("--name", [*"ABCFGMNPT", "Z", "a"]),
                 st.one_of(pair("--n", [*_SMALL, "30"]), pair("--n", _LARGE))],
        "grammar": [pair("--rules", [paths["rules"], paths["bad_rules"],
                                     paths["missing"], paths["cache"]]),
                    pair("--start", ["x", "x*y", "z^2", "x*", "2", "(x"]),
                    st.one_of(pair("--order", _SMALL), pair("--order", _LARGE))],
        "verify": [st.one_of(pair("--identity", [*sorted(REGISTRY), "bogus", ""]),
                             st.just(("--all",))),
                   pair("--max-n", _SMALL)],
        "bogus": [],
    }
    extra = st.lists(st.one_of(*common, junk.map(lambda t: (t,))), max_size=1)

    @st.composite
    def argv(draw):
        name = draw(st.sampled_from(sorted(subcommands)))
        out = [t for p in draw(extra) for t in p] + [name]
        for option in draw(st.permutations(subcommands[name])):
            if draw(st.integers(0, 7)):
                out += draw(option)
        out += [t for p in draw(extra) for t in p]
        if name == "verify":
            # the last --max-n wins: keep every verify run small
            out += ["--max-n", draw(st.sampled_from(_SMALL))]
        return out

    return argv()


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "flag.rules").write_text("x -> x*y*z; y -> y*z^2; z -> y^2*z\n")
    (root / "bad.rules").write_text("x -> x*(y\n")
    (root / "a_file").write_text("")
    return {"cache": str(root / "cache"), "file": str(root / "a_file"),
            "rules": str(root / "flag.rules"), "bad_rules": str(root / "bad.rules"),
            "missing": str(root / "missing" / "x.rules"), "root": root}


def test_fuzzed_arguments_exit_cleanly(fuzz_paths, monkeypatch):
    monkeypatch.setenv("STIRLAB_CACHE", str(fuzz_paths["root"] / "default-cache"))

    @settings(max_examples=300, deadline=10_000)
    @given(_fuzz_argv(fuzz_paths))
    def check(argv):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv, out=io.StringIO())
            except SystemExit as exc:
                assert exc.code == 2, argv
            else:
                assert code in (0, 1, 2), argv

    check()
