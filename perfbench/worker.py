"""One repetition of one workload, in a fresh Python process.

Started by ``run.py``; prints one JSON object as its last line of output.
Set-up time runs from the moment the parent spawned this process (the
``--spawned`` stamp, on the system-wide monotonic clock) to the moment the
first command may start: interpreter start, ``import stirlab`` (which parses
three grammars) and the workload's set-up.  The timed region runs the
workload's commands one after another in this process; every command starts
with the package's memo caches cold.  Output checks run after it.

The worker runs the speed probe (``probe.py``) from its start.  It reports
set-up and wall times both as measured and scaled to the probe's reference
speed, with the probe's own time left out, also out of the layers' self
times.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import layers
from probe import Probe
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_stirlab():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import stirlab.cli

    if Path(stirlab.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: stirlab imported from outside {src}")
    return stirlab.cli


def _package_memos() -> list:
    """Every lru_cache at module level in the imported stirlab package."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "stirlab" or name.startswith("stirlab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; the children term is the largest child
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024


def _cpu_s() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def check_results(results: list, cold: dict[str, str]) -> list[str]:
    """One failure at most per command: its exit code, closed-form total,
    recorded digest, and for poly-warm the digest of the cold output."""
    digests = workloads.load_digests()
    failures = []
    for key, code, text in results:
        problem = workloads.check_output(key, code, text, digests, cold.get(key))
        if problem is not None:
            failures.append(problem)
    return failures


def run(args: argparse.Namespace, probe: Probe) -> dict:
    work = Path(args.work)
    cli = _import_stirlab()
    if args.fill:
        cmds = workloads.fill_commands(work)
    else:
        cmds = workloads.commands(args.workload, args.seed, work)
    workloads.set_up(args.workload, work)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
        probe.on_tick = tracer.skip
    setup_s = (time.monotonic() - args.spawned - probe.spent) * probe.factor()
    report = {"setup_s": setup_s}
    if args.setup_only:
        return report

    memos = _package_memos()
    memo_counts = Counter()
    results = []
    wall_raw_s = cpu_raw_s = 0.0
    region = probe.mark()
    for cmd in cmds:
        out = io.StringIO()
        mark = probe.mark()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.enter("cli")
        try:
            code = cli.main(list(cmd.argv), out=out)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.leave()
        wall_raw_s += time.perf_counter() - t0 - probe.spent_since(mark)
        cpu_raw_s += _cpu_s() - cpu0 - probe.spent_since(mark)
        results.append((cmd.key, code, out.getvalue()))
        # every command starts with cold memos, as a command-line call in a
        # process of its own would.  This also keeps the command order (the
        # seed) from deciding how much memo data later commands find
        # resident: shared memos made poly-cold's peak RSS range from 110 to
        # 139 MiB across seeds.
        if tracer is not None:
            memo_counts += layers.memo_counts()
        for memo in memos:
            memo.cache_clear()
    peak = _peak_rss_mib()
    factor = probe.factor(region)
    # from spawning to the end of the last command: for the fill, the part
    # of poly-warm's set-up that fills the cache (its checks come after)
    through_s = (time.monotonic() - args.spawned - probe.spent) * probe.factor()

    # the fill's outputs are poly-cold's; poly-warm's must equal them
    cold_path = work / workloads.COLD_DIGESTS
    cold = {}
    if args.fill:
        cold_path.write_text(json.dumps(
            {key: workloads.digest(key, text) for key, _, text in results}))
    elif args.workload == "poly-warm":
        cold = json.loads(cold_path.read_text())
    report.update({
        "wall_raw_s": wall_raw_s,
        "wall_factor": factor,
        "wall_s": wall_raw_s * factor,
        "through_s": through_s,
        "cpu_s": cpu_raw_s * factor,
        "peak_rss_mib": peak,
        "attempted": len(results),
        "failures": check_results(results, cold),
        "bytes_out": sum(len(text.encode()) for _, _, text in results),
    })
    if tracer is not None:
        report["trace"] = {
            "self_s": {layer: s * factor for layer, s in tracer.self_s.items()},
            "counts": dict(tracer.counts + memo_counts),
        }
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="empty scratch directory")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before the parent spawned us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fill", action="store_true",
                        help="run the commands that fill poly-warm's table cache "
                             "and record their output digests")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args()
    probe = Probe()
    probe.start()
    report = run(args, probe)
    probe.stop()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
