"""Command-line front end.

Subcommands: ``enumerate`` (stream objects), ``stats`` (joint distribution
tables), ``poly`` (named polynomial families), ``grammar`` (formal
derivatives from a rule file), ``verify`` (the identity registry).

Output is byte-stable for fixed flags: enumeration order and polynomial term
order are deterministic.  Exit codes: 0 success / all identities pass, 1 an
identity failed, 2 usage or resource errors.

The coefficient-table cache directory resolves from ``--cache-dir``, then
the STIRLAB_CACHE environment variable, then a per-user cache directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import identities, tables
from .errors import ResourceLimitError
from .grammar import GrammarSyntaxError, derive_n, parse_grammar, parse_poly
from .objects import (
    enumerate_matchings,
    enumerate_permutations,
    enumerate_signed,
    enumerate_stirling,
)
from .polynomials import XYZ, Poly, format_terms, monomial_str
from .stats import DistributionTable, distribution

_FORMATS = ("plain", "json", "csv")


def default_cache_dir() -> Path:
    env = os.environ.get("STIRLAB_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "stirlab"


# ---------------------------------------------------------------------------
# enumerate


_ENUMERATORS = {
    "stirling": enumerate_stirling,
    "signed": enumerate_signed,
    "matching": enumerate_matchings,
    "permutation": enumerate_permutations,
}


def _cmd_enumerate(args: argparse.Namespace, out) -> int:
    if args.n > args.bound:
        raise ResourceLimitError(
            f"n={args.n} exceeds the enumeration bound {args.bound}"
            " (raise it with --bound)"
        )
    stream = _ENUMERATORS[args.klass](args.n)
    if args.format == "plain":
        for obj in stream:
            print(obj, file=out)
    elif args.format == "json":
        for obj in stream:
            raw = _entries(obj)
            print(json.dumps([list(e) if isinstance(e, tuple) else e for e in raw]),
                  file=out)
    else:  # csv
        for obj in stream:
            cells = [
                f"{e[0]}:{e[1]}" if isinstance(e, tuple) else str(e)
                for e in _entries(obj)
            ]
            print(",".join(cells), file=out)
    return 0


def _entries(obj):
    if hasattr(obj, "blocks"):
        return obj.blocks
    return obj.word if hasattr(obj, "word") else obj.values


# ---------------------------------------------------------------------------
# stats


def _render_distribution(table: DistributionTable, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(table.to_json()), file=out)
        return
    header = list(table.stat_names) + ["count"]
    rows = [[*map(str, value), str(count)] for value, count in table.items_sorted()]
    if fmt == "csv":
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(row), file=out)
    else:
        print("\t".join(header), file=out)
        for row in rows:
            print("\t".join(row), file=out)


def _cmd_stats(args: argparse.Namespace, out) -> int:
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    table = distribution(args.klass, args.n, stats, max_n=args.bound)
    _render_distribution(table, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# poly


def _poly_families(args: argparse.Namespace) -> dict[str, Callable[[int], Poly | dict]]:
    """Each family's polynomial at n: a Poly in x, or for P and G the table's
    row n as a dict from (i, j, k) exponents of x, y, z to coefficients."""
    cache = tables.TableCache(args.cache_dir or default_cache_dir())
    return {
        "A": tables.a_poly,
        "B": tables.b_poly,
        "F": tables.f_poly,
        "M": tables.m_poly,
        "N": tables.n_poly,
        "C": tables.c_poly,
        "T": lambda n: Poly.from_counts(
            {k: tables.t_table(n, cache).value(n, k) for k in range(2 * n + 1)}
        ),
        "G": lambda n: {
            (i, j, 0): v
            for (nn, i, j), v in tables.gamma_table(n, cache).entries.items()
            if nn == n and v
        },
        "P": lambda n: {
            (i, j, k): v
            for (nn, i, j, k), v in tables.p_table(n, cache).entries.items()
            if nn == n and v
        },
    }


def _cmd_poly(args: argparse.Namespace, out) -> int:
    if args.n < 0:
        raise ValueError(f"n must be nonnegative, got {args.n}")
    poly = _poly_families(args)[args.name](args.n)
    if isinstance(poly, Poly):
        _print_univariate(poly, args.format, out)
    else:
        _print_trivariate(poly, args.format, out)
    return 0


def _print_univariate(poly: Poly, fmt: str, out) -> None:
    """Print a polynomial in x: JSON lists every coefficient from x^0 to the
    degree, zeros included; CSV lists the nonzero ones by exponent."""
    if fmt == "plain":
        print(poly, file=out)
        return
    terms = poly.terms_over(("x",))
    if fmt == "json":
        (top,) = max(terms, default=(-1,))
        coeffs = [str(terms.get((k,), 0)) for k in range(top + 1)]
        print(json.dumps({"var": "x", "coeffs": coeffs}), file=out)
    else:  # csv
        print("k,coeff", file=out)
        for (k,), c in sorted(terms.items()):
            print(f"{k},{c}", file=out)


def _print_trivariate(row: Mapping[tuple[int, int, int], int], fmt: str, out) -> None:
    """Print a P or G row by degree, then by exponent triple."""
    terms = sorted(row.items(), key=lambda t: (sum(t[0]), t[0]))
    if fmt == "plain":
        print(format_terms((monomial_str(XYZ, e), c) for e, c in terms), file=out)
    elif fmt == "json":
        print(json.dumps([{"e": list(e), "c": str(c)} for e, c in terms]), file=out)
    else:  # csv
        print("i,j,k,coeff", file=out)
        for (i, j, k), c in terms:
            print(f"{i},{j},{k},{c}", file=out)


# ---------------------------------------------------------------------------
# grammar


def _cmd_grammar(args: argparse.Namespace, out) -> int:
    grammar = parse_grammar(Path(args.rules).read_text())
    start = parse_poly(args.start)
    result = derive_n(start, grammar, args.order)
    if args.format == "plain":
        print(result, file=out)
    elif args.format == "json":
        print(json.dumps(result.to_json()), file=out)
    else:  # csv
        print("monomial,coeff", file=out)
        for e, c in result.sorted_terms():
            print(f"{monomial_str(result.names, e) or '1'},{c}", file=out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _render_results(results, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps([r.to_json() for r in results]), file=out)
        return
    if fmt == "csv":
        print("name,max_n,pass,millis,witness", file=out)
        for r in results:
            witness = (r.witness or "").replace(",", ";")
            print(f"{r.name},{r.bound},{str(r.passed).lower()},{r.millis},{witness}",
                  file=out)
        return
    for r in results:
        status = "pass" if r.passed else "FAIL"
        line = f"{status}  {r.name} (max_n={r.bound}) [{r.millis:.0f} ms]"
        if r.witness:
            line += f"\n      witness: {r.witness}"
        print(line, file=out)


def _cmd_verify(args: argparse.Namespace, out) -> int:
    if args.all:
        results = identities.run_all(args.max_n)
    else:
        results = [identities.run_identity(args.identity, args.max_n)]
    _render_results(results, args.format, out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# driver


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # per-subcommand copies use SUPPRESS so they never clobber earlier values
    def default(v):
        return argparse.SUPPRESS if suppress else v

    parser.add_argument("--format", choices=_FORMATS, default=default("plain"))
    parser.add_argument("--cache-dir", default=default(None),
                        help="coefficient-table cache (default: $STIRLAB_CACHE "
                        "or the user cache directory)")
    parser.add_argument("--bound", type=int, default=default(8),
                        help="enumeration bound on n (default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlab",
        description="Exact Stirling-permutation statistics, grammar "
        "derivatives, and identity verification.",
    )
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="stream all objects of one class")
    p.add_argument("--class", dest="klass", required=True,
                   choices=sorted(_ENUMERATORS))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", parents=[common],
                       help="print an exact joint distribution table")
    p.add_argument("--class", dest="klass", required=True,
                   choices=sorted(_ENUMERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stats", required=True,
                   help="comma-separated statistic names")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("poly", parents=[common],
                       help="print a named polynomial family member")
    p.add_argument("--name", required=True, choices=sorted("ABCFGMNPT"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("grammar", parents=[common],
                       help="derive a start expression under a rule file")
    p.add_argument("--rules", required=True, help="path to the rule file")
    p.add_argument("--start", required=True, help="seed polynomial expression")
    p.add_argument("--order", type=int, required=True,
                   help="number of derivative applications")
    p.set_defaults(func=_cmd_grammar)

    p = sub.add_parser("verify", parents=[common], help="run identity checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", help="one registered identity name")
    group.add_argument("--all", action="store_true", help="every identity")
    p.add_argument("--max-n", type=int, default=None,
                   help="bound override (per-identity default when omitted)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact coefficients outgrow the interpreter's default limit on digits
    # in int-to-str conversion (4300), in printing and in cache reads alike;
    # lift it for the command only
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args, out)
    except (ResourceLimitError, identities.UnknownIdentityError,
            GrammarSyntaxError, ValueError, OSError) as exc:
        print(f"stirlab: error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
