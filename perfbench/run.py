"""The stirlab benchmark: one workload, a closed loop of CLI commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-max --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh Python process (``worker.py``) with its own
scratch directory under ``.perfbench_work/``, so every memo cache starts
cold and ``~/.cache/stirlab`` is never touched.  Repetitions follow one
another until the next one would overrun ``--seconds``; there is always at
least one.  The last line of output is the JSON result; the lines before it
give medians, quartiles and sample counts.

Times are reported at a reference machine speed: each worker runs a speed
probe (``probe.py``) and scales its own times by it.

``--trace 0`` reports the end-to-end metrics (median over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, the share of wall time they cover,
and the tracing overhead.  The exit code is 0 whenever a result is printed,
including a result with ``"correct": false``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

# set-up samples per run: set-up-only processes top the repetitions' own
# samples up to MIN_SETUPS, for at most SETUP_BUDGET_S seconds
MIN_SETUPS = 31
SETUP_BUDGET_S = 8.0
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(workload: str, seed: int, work: Path, *flags: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("STIRLAB_CACHE", "XDG_CACHE_HOME", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work), "--spawned", repr(spawned),
            *flags]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError("worker printed no result") from exc
    return report


def _repetition(workload: str, seed: int, work: Path, trace: bool,
                setup_only: bool = False) -> dict:
    """One repetition in a fresh scratch directory.  poly-warm first fills
    its table cache in a separate process; the time until its last command
    ends is part of set-up."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    fill = None
    if workload == "poly-warm":
        fill = _spawn(workload, seed, work, "--fill")
    flags = ["--trace", "1"] if trace else []
    if setup_only:
        flags.append("--setup-only")
    rep = _spawn(workload, seed, work, *flags)
    shutil.rmtree(work)
    if fill is not None:
        rep["setup_s"] += fill["through_s"]
        if not setup_only:
            rep["attempted"] += fill["attempted"]
            rep["failures"] += fill["failures"]
    return rep


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _describe(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = _quartiles(values)
    return (f"{name:<24} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}"
            f"  n={len(values)}")


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run repetitions until the next would overrun ``seconds``; with
    ``trace``, each step is a pair of an untraced and a traced repetition,
    in alternating order.  Set-up-only processes then top the set-up
    samples up."""
    start = time.monotonic()
    plain, traced, reps = [], [], []

    def timed(traced_rep: bool, setup_only: bool = False) -> dict:
        rep = _repetition(workload, seed, work / f"rep{len(reps)}", traced_rep,
                          setup_only)
        reps.append(rep)
        return rep

    step = 0
    longest = 0.0
    while True:
        t = time.monotonic()
        if trace:
            order = (False, True) if step % 2 == 0 else (True, False)
            for traced_rep in order:
                (traced if traced_rep else plain).append(timed(traced_rep))
        else:
            plain.append(timed(False))
        step += 1
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > seconds:
            break
    topped = time.monotonic()
    while (not trace and len(reps) < MIN_SETUPS
           and time.monotonic() - topped < SETUP_BUDGET_S):
        timed(False, setup_only=True)
    setups = [r["setup_s"] for r in reps if "trace" not in r]
    return {"plain": plain, "traced": traced, "setups": setups}


def end_to_end(runs: dict) -> tuple[dict, list[str]]:
    plain = runs["plain"]
    series = {
        "wall_s": ("s", [r["wall_s"] for r in plain]),
        "setup_s": ("s", runs["setups"]),
        "peak_rss_mib": ("MiB", [r["peak_rss_mib"] for r in plain]),
    }
    lines = [_describe(name, unit, vals) for name, (unit, vals) in series.items()]
    lines += [
        _describe("wall_s as measured", "s", [r["wall_raw_s"] for r in plain]),
        _describe("speed factor", "x", [r["wall_factor"] for r in plain]),
    ]
    metrics = {
        name: {"value": statistics.median(vals), "unit": unit}
        for name, (unit, vals) in series.items()
    }
    return metrics, lines


def _ratio(hits: int, misses: int) -> float:
    """Hits over lookups; 0 when there were no lookups."""
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(runs: dict) -> tuple[dict, list[str], list[str]]:
    plain, traced = runs["plain"], runs["traced"]
    counts = traced[0]["trace"]["counts"]
    problems = []
    if any(r["trace"]["counts"] != counts for r in traced[1:]):
        problems.append("traced repetitions disagree on their counts")

    def c(name: str) -> int:
        return counts.get(name, 0)

    def self_s(layer: str) -> float:
        return statistics.median(r["trace"]["self_s"][layer] for r in traced)

    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    named = statistics.median(
        sum(r["trace"]["self_s"][layer] for layer in layers.LAYERS) / r["wall_s"]
        for r in traced
    )
    values = {
        "objects.words": (c("objects.words"), "count"),
        "objects.s": (self_s("objects"), "s"),
        "objects.memo_hit_ratio": (_ratio(c("objects.hits"), c("objects.misses")), "ratio"),
        "stats.records": (c("stats.records"), "count"),
        "stats.s": (self_s("stats"), "s"),
        "stats.memo_hit_ratio": (_ratio(c("stats.hits"), c("stats.misses")), "ratio"),
        "actions.calls": (c("actions.calls"), "count"),
        "actions.s": (self_s("actions"), "s"),
        "identities.checks": (c("identities.checks"), "count"),
        "identities.s": (self_s("identities"), "s"),
        "grammar.derive_steps": (c("grammar.derive_steps"), "count"),
        "grammar.terms_out": (c("grammar.terms_out"), "count"),
        "grammar.s": (self_s("grammar"), "s"),
        "polynomials.muls": (c("polynomials.muls"), "count"),
        "polynomials.s": (self_s("polynomials"), "s"),
        "tables.rows_built": (c("tables.row.misses"), "count"),
        "tables.row_memo_hit_ratio": (
            _ratio(c("tables.row.hits"), c("tables.row.misses")), "ratio"),
        "tables.s": (self_s("tables"), "s"),
        "tables.cache.loads": (c("tables.cache.loads"), "count"),
        "tables.cache.hits": (c("tables.cache.hits"), "count"),
        "tables.cache.stores": (c("tables.cache.stores"), "count"),
        "tables.cache.bytes_read": (c("tables.cache.bytes_read"), "B"),
        "tables.cache.bytes_written": (c("tables.cache.bytes_written"), "B"),
        "tables.cache.s": (self_s("tables.cache"), "s"),
        "cli.s": (self_s("cli"), "s"),
        "cli.bytes_out": (traced[0]["bytes_out"], "B"),
        "cli.cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
        "trace.coverage": (named, "ratio"),
        "trace.overhead": (traced_wall / plain_wall, "ratio"),
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    lines = [
        _describe("wall_s untraced", "s", [r["wall_s"] for r in plain]),
        _describe("wall_s traced", "s", [r["wall_s"] for r in traced]),
        _describe("as measured, untraced", "s", [r["wall_raw_s"] for r in plain]),
        _describe("as measured, traced", "s", [r["wall_raw_s"] for r in traced]),
    ] + [f"{name:<28} {v:.6g} {unit}" for name, (v, unit) in values.items()]
    return metrics, lines, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "stirlab" / "cli.py").is_file():
        print(f"perfbench: no stirlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / str(os.getpid())
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    reps = runs["plain"] + runs["traced"]
    failures = [f for r in reps for f in r["failures"]]
    if args.trace:
        metrics, lines, problems = per_layer(runs)
        failures += problems
    else:
        metrics, lines = end_to_end(runs)
    attempted = sum(r["attempted"] for r in reps)
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}")
    for line in lines:
        print(line)
    print(f"{'fail_ratio':<24} {len(failures)}/{attempted}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
