"""Command-line front end.

Subcommands: ``enumerate`` (stream objects), ``stats`` (joint
distributions), ``poly`` (named polynomial families), ``grammar`` (formal
derivatives from a rule file), ``verify`` (the identity registry).

Output is byte-stable for fixed flags: enumeration order and polynomial term
order are deterministic.  Each command returns its exit status and its lines
(``enumerate`` lazily), and :func:`main` alone writes them, 4096 lines a
write.  Exit codes: 0 success / all identities pass, 1 an identity failed,
2 usage or resource errors, 141 stdout closed early, wherever that happens.
``poly --n`` has a limit per family, ``grammar --order`` one limit and each
derivative one on its terms (:data:`POLY_LIMITS`, :data:`ORDER_LIMIT`,
:data:`stirlab.grammar.TERM_LIMIT`); past any of them a command exits 2.

The coefficient-table cache directory resolves from ``--cache-dir``, then
the STIRLAB_CACHE environment variable, then $XDG_CACHE_HOME/stirlab, then
~/.cache/stirlab.

A command loads only the submodules it uses: ``stats`` loads
:mod:`stirlab.stats` and ``verify`` the identity registry when they run, so
``poly`` and ``grammar`` never load either.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import tables
from .errors import ResourceLimitError, UnknownIdentityError
from .grammar import GrammarSyntaxError, derive_n, parse_grammar, parse_poly
from .objects import STREAMS
from .polynomials import XYZ, Poly, format_terms, monomial_str

_FORMATS = ("plain", "json", "csv")
# lines per write to the output stream
_CHUNK = 4096

# the largest n each poly family accepts, each about a second or less on a
# 2-core machine, and the largest grammar order
POLY_LIMITS = {"A": 1000, "B": 1000, "C": 200, "N": 200, "F": 150, "M": 60,
               "T": 60, "P": 40, "G": 100}
ORDER_LIMIT = 100


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


def _cmd_enumerate(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if args.n > args.bound:
        raise ResourceLimitError(
            f"n={args.n} exceeds the enumeration bound {args.bound}"
            " (raise it with --bound)"
        )
    stream = STREAMS[args.klass](args.n)
    if args.format == "json":
        return 0, map(json.dumps, stream)
    if args.klass == "matching":
        pair = "{%d,%d}" if args.format == "plain" else "%d:%d"
        return 0, (",".join(pair % b for b in obj) for obj in stream)
    sep = "," if args.format == "csv" else "" if args.n <= 9 else " "
    return 0, (sep.join(map(str, obj)) for obj in stream)


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args: argparse.Namespace) -> tuple[int, list[str]]:
    from .stats import distribution

    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    if not stats:
        raise ValueError(f"--stats {args.stats!r} names no statistic")
    counts = distribution(args.klass, args.n, stats, max_n=args.bound)
    if args.format == "json":
        entries = [{"value": list(v), "count": c} for v, c in counts.items()]
        return 0, [json.dumps({"class": args.klass, "n": args.n, "stats": stats,
                               "entries": entries})]
    sep = "," if args.format == "csv" else "\t"
    return 0, [sep.join([*stats, "count"]),
               *(sep.join(map(str, (*value, count))) for value, count in counts.items())]


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
            {k: tables.t_table(n, cache).row.get(k, 0) for k in range(2 * n + 1)}
        ),
        "G": lambda n: {
            (i, j, 0): v for (i, j), v in tables.gamma_table(n, cache).row.items()
        },
        "P": lambda n: tables.p_table(n, cache).row,
    }


def _cmd_poly(args: argparse.Namespace) -> tuple[int, list[str]]:
    if args.n < 0:
        raise ValueError(f"n must be nonnegative, got {args.n}")
    limit = POLY_LIMITS[args.name]
    if args.n > limit:
        raise ResourceLimitError(
            f"n={args.n} exceeds the limit {limit} of poly --name {args.name}"
        )
    poly = _poly_families(args)[args.name](args.n)
    if isinstance(poly, Poly):
        return 0, _print_univariate(poly, args.format)
    return 0, _print_trivariate(poly, args.format)


def _print_univariate(poly: Poly, fmt: str) -> list[str]:
    """The lines of a polynomial in x: JSON lists every coefficient from x^0
    to the degree, zeros included; CSV lists the nonzero ones by exponent."""
    if fmt == "plain":
        return [str(poly)]
    terms = poly.terms_over(("x",))
    if fmt == "json":
        (top,) = max(terms, default=(-1,))
        coeffs = [str(terms.get((k,), 0)) for k in range(top + 1)]
        return [json.dumps({"var": "x", "coeffs": coeffs})]
    return ["k,coeff", *(f"{k},{c}" for (k,), c in sorted(terms.items()))]


def _print_trivariate(row: Mapping[tuple[int, int, int], int], fmt: str) -> list[str]:
    """The lines of a P or G row, by degree, then by exponent triple.  JSON
    formats each term into the bytes ``json.dumps`` writes for
    ``{"e": [i, j, k], "c": "<c>"}`` with its default separators, with no
    dict or list made per term."""
    keys = sorted(row, key=lambda e: (sum(e), e))
    if fmt == "plain":
        return [format_terms((monomial_str(XYZ, e), row[e]) for e in keys)]
    if fmt == "json":
        term = '{"e": [%d, %d, %d], "c": "%d"}'
        return ["[%s]" % ", ".join([term % (*e, row[e]) for e in keys])]
    return ["i,j,k,coeff", *(f"{i},{j},{k},{row[i, j, k]}" for i, j, k in keys)]


# ---------------------------------------------------------------------------
# grammar


def _cmd_grammar(args: argparse.Namespace) -> tuple[int, list[str]]:
    if args.order < 0:
        raise ValueError(f"order must be nonnegative, got {args.order}")
    if args.order > ORDER_LIMIT:
        raise ResourceLimitError(
            f"order {args.order} exceeds the grammar limit {ORDER_LIMIT}"
        )
    grammar = parse_grammar(Path(args.rules).read_text())
    start = parse_poly(args.start)
    result = derive_n(start, grammar, args.order)
    if args.format == "plain":
        return 0, [str(result)]
    if args.format == "json":
        return 0, [json.dumps(result.to_json())]
    return 0, ["monomial,coeff", *(f"{monomial_str(result.names, e) or '1'},{c}"
                                   for e, c in result.sorted_terms())]


# ---------------------------------------------------------------------------
# verify


def _render_results(results, fmt: str) -> list[str]:
    if fmt == "json":
        return [json.dumps([r.to_json() for r in results])]
    if fmt == "csv":
        lines = ["name,max_n,pass,millis,witness"]
        for r in results:
            witness = (r.witness or "").replace(",", ";")
            status = "skip" if r.skipped else str(r.passed).lower()
            lines.append(f"{r.name},{r.bound},{status},{r.millis},{witness}")
        return lines
    lines = []
    for r in results:
        status = "skip" if r.skipped else "pass" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name} (max_n={r.bound}) [{r.millis:.0f} ms]")
        if r.witness:
            lines.append(f"      witness: {r.witness}")
    return lines


def _cmd_verify(args: argparse.Namespace) -> tuple[int, list[str]]:
    from . import identities

    if args.all:
        results = identities.run_all(args.max_n)
    else:
        results = [identities.run_identity(args.identity, args.max_n)]
    return 0 if all(r.passed for r in results) else 1, _render_results(results, args.format)


# ---------------------------------------------------------------------------
# driver


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # per-subcommand copies use SUPPRESS so they never clobber earlier values
    def default(v):
        return argparse.SUPPRESS if suppress else v

    parser.add_argument("--format", choices=_FORMATS, default=default("plain"))
    parser.add_argument("--cache-dir", default=default(None),
                        help="coefficient-table cache (default: $STIRLAB_CACHE, "
                        "$XDG_CACHE_HOME/stirlab or ~/.cache/stirlab)")
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
                   choices=sorted(STREAMS))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", parents=[common],
                       help="print an exact joint distribution table")
    p.add_argument("--class", dest="klass", required=True,
                   choices=sorted(STREAMS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stats", required=True,
                   help="comma-separated statistic names")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("poly", parents=[common],
                       help="print a named polynomial family member")
    p.add_argument("--name", required=True, choices=sorted(POLY_LIMITS))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("grammar", parents=[common],
                       help="derive a start expression under a rule file")
    p.add_argument("--rules", required=True, help="path to the rule file")
    p.add_argument("--start", required=True, help="seed polynomial expression")
    p.add_argument("--order", type=int, required=True,
                   help=f"number of derivative applications (at most {ORDER_LIMIT})")
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
        code, lines = args.func(args)
        lines = iter(lines)
        while chunk := list(islice(lines, _CHUNK)):
            out.write("\n".join(chunk))
            # the newline goes on its own: a write the reader cuts short
            # returns quietly, and only the next write or the flush raises
            out.write("\n")
        out.flush()
        return code
    except BrokenPipeError:
        if out is sys.stdout:  # the interpreter's last flush goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer it killed
    except (ResourceLimitError, UnknownIdentityError,
            GrammarSyntaxError, ValueError, OSError) as exc:
        print(f"stirlab: error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
