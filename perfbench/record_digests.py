"""Record the SHA-256 digest of every benchmark command's output.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_digests.py

It writes ``perfbench/digests.json``, which the benchmark's output checks
compare against.  Outputs do not depend on the seed, so one run covers
every workload.
"""
from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from stirlab import cli

    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in ("verify-max", "grammar-deep", "poly-cold"):
            work = Path(tmp) / workload
            work.mkdir()
            workloads.set_up(workload, work)
            for cmd in workloads.commands(workload, 0, work):
                out = io.StringIO()
                code = cli.main(list(cmd.argv), out=out)
                found = workloads.digest(cmd.key, out.getvalue())
                problem = workloads.check_output(cmd.key, code, out.getvalue(),
                                                 {cmd.key: found})
                if problem is not None:
                    raise SystemExit(f"refusing to record a wrong output: {problem}")
                digests[cmd.key] = found
                print(cmd.key, digests[cmd.key], file=sys.stderr)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
