"""Tests of the benchmark itself: its output checks, the repeatability of
its traced counts, and the table-cache reload count of ``poly --name T``.

Tracing patches the imported package, so every traced run here happens in
a child process and the test process's own ``stirlab`` stays untouched.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import worker
import workloads
from probe import REF_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _python(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _traced_counts(work: Path, workload: str, seed: int) -> dict:
    work.mkdir()
    proc = _python(str(HERE / "worker.py"), "--workload", workload, "--seed",
                   str(seed), "--work", str(work), "--spawned", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failures"] == []
    named = sum(report["trace"]["self_s"][layer] for layer in layers.LAYERS)
    assert named >= 0.9 * report["wall_s"]
    return report["trace"]["counts"]


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced_counts(tmp_path / "first", "poly-cold", 3)
    second = _traced_counts(tmp_path / "second", "poly-cold", 3)
    assert first == second
    assert first["tables.cache.stores"] == len(workloads.CACHED_FAMILIES)


_T_LOADS = """
import io, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import layers
from stirlab import cli
tracer = layers.Tracer()
layers.install(tracer)
code = cli.main(["poly", "--name", "T", "--n", "{n}", "--cache-dir", {cache!r}],
                out=io.StringIO())
print(code, tracer.counts["tables.cache.loads"], tracer.counts["tables.cache.hits"])
"""


def test_poly_t_reloads_its_table_once_per_coefficient(tmp_path):
    # cli builds T_n coefficient by coefficient, calling tables.t_table for
    # each of the 2n+1 exponents; each call after the first re-reads the
    # JSON table from disk.  The count stays visible until that is fixed.
    n = 60
    script = _T_LOADS.format(perfbench=str(HERE), src=str(ROOT / "src"), n=n,
                             cache=str(tmp_path))
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    code, loads, hits = map(int, proc.stdout.split())
    assert code == 0
    assert loads == 2 * n + 1
    assert hits == 2 * n


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of a few small commands, rendered by the package under test."""
    from stirlab import cli

    cache = tmp_path_factory.mktemp("cache")
    found = {}
    for key in ("poly --name T --n 3", "poly --name G --n 4", "poly --name B --n 5"):
        out = io.StringIO()
        argv = key.split() + ["--format", "json", "--cache-dir", str(cache)]
        assert cli.main(argv, out=out) == 0
        found[key] = out.getvalue()
    return found


def test_check_output_accepts_right_outputs(outputs):
    digests = {key: workloads.digest(key, text) for key, text in outputs.items()}
    for key, text in outputs.items():
        assert workloads.check_output(key, 0, text, digests) is None


def test_check_output_rejects_a_changed_coefficient(outputs):
    key = "poly --name T --n 3"
    obj = json.loads(outputs[key])
    obj["coeffs"][1] = str(int(obj["coeffs"][1]) + 1)
    text = json.dumps(obj)
    problem = workloads.check_output(key, 0, text, {key: workloads.digest(key, text)})
    assert "value at 1" in problem


def test_check_output_rejects_a_wrong_gamma_weight(outputs):
    key = "poly --name G --n 4"
    obj = json.loads(outputs[key])
    obj[0]["e"][1] += 1
    text = json.dumps(obj)
    assert workloads.check_output(key, 0, text, {key: workloads.digest(key, text)})


def test_check_output_rejects_digest_mismatch_and_exit_code(outputs):
    key = "poly --name B --n 5"
    text = outputs[key]
    assert "digest" in workloads.check_output(key, 0, text, {key: "0" * 64})
    assert "no recorded digest" in workloads.check_output(key, 0, text, {})
    assert "exit code 2" in workloads.check_output(key, 2, text, {})


def test_check_output_rejects_a_failed_identity():
    rows = [{"name": f"id-{i}", "params": {"max_n": 3}, "pass": True, "millis": 1.0}
            for i in range(workloads.IDENTITY_COUNT)]
    rows[4]["pass"] = False
    key = "verify --all --max-n 20"
    text = json.dumps(rows)
    problem = workloads.check_output(key, 1, text, {key: workloads.digest(key, text)})
    assert "exit code 1" in problem
    problem = workloads.check_output(key, 0, text, {key: workloads.digest(key, text)})
    assert "id-4" in problem
    text = json.dumps(rows[:-1])
    problem = workloads.check_output(key, 0, text, {key: workloads.digest(key, text)})
    assert "identity rows" in problem


def test_a_crashed_command_is_one_failed_command():
    # a verify that raised leaves empty output, which is not JSON
    key = "verify --all --max-n 20"
    results = [(key, "RuntimeError: boom", ""), (key, 2, "usage: stirlab")]
    failures = worker.check_results(results, {})
    assert len(failures) == 2
    assert all("exit code" in f for f in failures)
    assert workloads.digest(key, "") == workloads.digest("other", "")


def test_check_output_rejects_a_warm_output_unlike_the_cold_one(outputs):
    key = "poly --name T --n 3"
    text = outputs[key]
    found = workloads.digest(key, text)
    problem = workloads.check_output(key, 0, text, {key: found}, "0" * 64)
    assert "differs from poly-cold" in problem
    assert workloads.check_output(key, 0, text, {key: found}, found) is None


def test_probe_scales_to_its_reference_speed():
    probe = Probe()
    assert probe.factor() == 1.0  # never started: times stay as measured
    probe.start()
    probe.stop()
    assert len(probe.samples) == 1
    assert probe.factor() == pytest.approx(REF_S / probe.samples[0])
    mark = probe.mark()
    assert probe.factor(mark) == probe.factor()  # falls back to the last sample
    assert probe.spent_since(mark) == 0.0


def test_recorded_digests_cover_every_command(tmp_path):
    keys = set(workloads.load_digests())
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 0, tmp_path):
            assert cmd.key in keys


def test_seed_shuffles_only_independent_commands(tmp_path):
    def order(workload, seed):
        return [c.key for c in workloads.commands(workload, seed, tmp_path)]

    assert order("poly-cold", 1) != order("poly-cold", 2)
    assert sorted(order("poly-cold", 1)) == sorted(order("poly-cold", 2))
    assert order("poly-cold", 5) == order("poly-cold", 5)
    assert order("verify-max", 1) == order("verify-max", 2)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _python("perfbench/run.py", "--workload", "poly-cold", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
