"""The four benchmark workloads: their commands, set-up and output checks.

Each workload is a list of ``stirlab`` command lines that one caller issues
in order, in process, through ``stirlab.cli.main(argv, out=buffer)``.  Every
command gets its own empty ``--cache-dir`` except in ``poly-warm``, whose
commands read the directories a separate set-up process filled.

The seed only shuffles the order of the independent commands of
``grammar-deep`` and the ``poly-*`` workloads; ``verify-max`` is a single
command that keeps the CLI's name order.  The commands themselves, and so
their outputs, do not depend on the seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-max", "grammar-deep", "poly-cold", "poly-warm")

DIGESTS_PATH = Path(__file__).with_name("digests.json")
# written by poly-warm's fill process into the work directory
COLD_DIGESTS = "cold-digests.json"

IDENTITY_COUNT = 31

# (rule-file name, grammar in stirlab.tables, start expression, order); the
# workload's set-up writes the package's three grammars out as rule files
GRAMMAR_RUNS = (
    ("refined", "REFINED_GRAMMAR", "z", 20),
    ("gamma", "GAMMA_GRAMMAR", "w", 50),
    ("flag", "FLAG_GRAMMAR", "x*y", 100),
)

# (family, n) for every poly command
POLY_RUNS = (
    ("A", 300),
    ("B", 300),
    ("C", 150),
    ("N", 150),
    ("F", 150),
    ("M", 30),
    ("T", 60),
    ("P", 40),
    ("G", 100),
)
# the families whose builders go through the on-disk table cache
CACHED_FAMILIES = ("T", "P", "G")


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``key`` names it independently of the paths in
    ``argv`` and is the key of its recorded output digest."""

    key: str
    argv: tuple[str, ...]
    cache_dir: Path


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!!, the number of Stirling permutations of order n."""
    return math.prod(range(1, 2 * n, 2))


def _signed_count(n: int) -> int:
    """2^n n!, the number of signed permutations of order n."""
    return 2**n * math.factorial(n)


def commands(workload: str, seed: int, work: Path) -> list[Command]:
    """The workload's command list for one repetition, rooted at ``work``."""
    if workload == "verify-max":
        return [_command("verify --all --max-n 20", work / "cache-verify")]
    if workload == "grammar-deep":
        cmds = [
            _command(
                f"grammar --rules {work / (name + '.rules')} --start {start} "
                f"--order {order}",
                work / f"cache-{name}",
                key=f"grammar {name} {start} {order}",
            )
            for name, _, start, order in GRAMMAR_RUNS
        ]
    elif workload in ("poly-cold", "poly-warm"):
        cmds = [
            _command(f"poly --name {name} --n {n}", work / f"cache-{name}")
            for name, n in POLY_RUNS
        ]
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    random.Random(seed).shuffle(cmds)
    return cmds


def fill_commands(work: Path) -> list[Command]:
    """The poly-cold commands that write the table cache poly-warm reads."""
    return [
        c for c in commands("poly-cold", 0, work)
        if c.key.split()[2] in CACHED_FAMILIES
    ]


def _command(text: str, cache_dir: Path, key: str | None = None) -> Command:
    argv = tuple(text.split()) + ("--format", "json", "--cache-dir", str(cache_dir))
    return Command(key or text, argv, cache_dir)


def set_up(workload: str, work: Path) -> None:
    """Create the empty cache directories and, for grammar-deep, the rule
    files.  Runs after ``import stirlab`` and counts toward set-up time."""
    from stirlab import tables

    for cmd in commands(workload, 0, work):
        cmd.cache_dir.mkdir(parents=True, exist_ok=True)
    if workload == "grammar-deep":
        for name, attr, _, _ in GRAMMAR_RUNS:
            grammar = getattr(tables, attr)
            text = "".join(
                f"{letter} -> {grammar.rules[letter]}\n"
                for letter in sorted(grammar.rules)
            )
            (work / f"{name}.rules").write_text(text)


# ---------------------------------------------------------------------------
# output checks


def digest(key: str, text: str) -> str:
    """SHA-256 of a command's output with its run-time fields removed.

    ``verify`` reports each identity's ``millis``, which differs from run
    to run; every other byte of every output is stable.  An output that is
    not a list of rows (a crashed command's) is hashed as it stands.
    """
    if key.startswith("verify"):
        try:
            rows = json.loads(text)
            for row in rows:
                row.pop("millis", None)
            text = json.dumps(rows)
        except (ValueError, TypeError, AttributeError):
            pass
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def check_output(key: str, code: int, text: str, digests: dict[str, str],
                 cold: str | None = None) -> str | None:
    """None when the command's exit code and output are right, else why not.

    Three checks: the exit code is 0; the output meets a closed-form
    invariant of its command; its digest equals the one recorded for the
    command at the seed commit.  A fourth, given ``cold``, the digest of
    the same command's output against an empty cache: the digests match.
    """
    if code != 0:
        return f"{key}: exit code {code}"
    try:
        problem = _check_content(key, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"unreadable output ({type(exc).__name__}: {exc})"
    if problem is not None:
        return f"{key}: {problem}"
    expected = digests.get(key)
    if expected is None:
        return f"{key}: no recorded digest"
    found = digest(key, text)
    if cold is not None and found != cold:
        return f"{key}: poly-warm output differs from poly-cold"
    if found != expected:
        return f"{key}: output digest differs from the recorded one"
    return None


def _check_content(key: str, obj) -> str | None:
    words = key.split()
    if words[0] == "verify":
        failed = [r["name"] for r in obj if r["pass"] is not True]
        if len(obj) != IDENTITY_COUNT:
            return f"{len(obj)} identity rows, expected {IDENTITY_COUNT}"
        if failed:
            return f"failed identities: {failed}"
        return None
    if words[0] == "grammar":
        _, name, _start, order = words
        return _check_grammar(name, int(order), obj)
    if words[0] == "poly":
        return _check_poly(words[2], int(words[4]), obj)
    return f"no check for command {key!r}"


def _check_grammar(name: str, n: int, terms: list) -> str | None:
    # refined D^n(z) encodes P_n, flag D^n(xy) the flag descents of B_n, and
    # collapsed D^n(w) the gamma vector, whose 2^j-weighted sum is N_n(1)
    if name == "gamma":
        total = sum(t["coeff"] * 2 ** t["monomial"].get("v", 0) for t in terms)
    else:
        total = sum(t["coeff"] for t in terms)
    expected = _signed_count(n) if name == "flag" else _double_factorial_odd(n)
    if total != expected:
        return f"weighted coefficient sum {total} != {expected}"
    return None


_POLY_TOTALS = {
    "A": math.factorial,
    "B": _signed_count,
    "F": _signed_count,
}


def _check_poly(name: str, n: int, obj) -> str | None:
    if isinstance(obj, dict):  # QPoly: {"var": "x", "coeffs": [...]}
        value = sum(int(c) for c in obj["coeffs"])
    elif name == "G":  # TriPoly terms x^i y^j, weighted by 2^j
        value = sum(int(t["c"]) * 2 ** t["e"][1] for t in obj)
    else:
        value = sum(int(t["c"]) for t in obj)
    expected = _POLY_TOTALS.get(name, _double_factorial_odd)(n)
    if value != expected:
        return f"value at 1 is {value}, expected {expected}"
    return None
