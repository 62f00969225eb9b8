"""Quick-mode checks of the benchmark itself: output contract, metric
names against BENCHMARK.json, counter self-checks, failure accounting and
refusal to run without sources.  Each run is a subprocess so the tracer's
patches never reach the test process."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS, Batch, CliBatch, Gf2Ladder  # noqa: E402

GATED_UNITS = {k: u for k, u in layers.UNITS.items() if k not in layers.UNGATED}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m for m in layers.PER_LAYER if m[0] not in layers.UNGATED]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_traced_run(workload):
    proc = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == GATED_UNITS
    # counts repeat exactly across traced passes, and every integrate call
    # shows one gradient evaluation per accepted step plus one
    assert out["metrics"]["trace.selfcheck_failures"]["value"] == 0, proc.stdout


def test_quick_untraced_run():
    proc = _run("gf2-ladder", trace=0)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("selftest", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_failure_accounting():
    """A raised op or a nonzero exit where 0 is due makes the run incorrect;
    a rejection case with the wrong exit code is failed but not wrong; ops
    that depend on a failed one still count as attempted."""
    results = []
    batch = Gf2Ladder.__new__(Gf2Ladder)
    Batch.__init__(batch)
    batch.tri_seeds = {64: 0}

    class Z2:
        @staticmethod
        def random_triangular(rng, n):
            raise RuntimeError("boom")

    batch.z2 = Z2
    batch._chain(results, 64)
    assert [(r.ok, r.wrong) for r in results] == [(False, True)] + [(False, False)] * 5

    cli = CliBatch.__new__(CliBatch)
    Batch.__init__(cli)
    cli.first_outputs = {}
    cli._call = lambda argv: (1, "", "uncaught RuntimeError")
    results = []
    cli._cli(results, "due_zero", ["index"])
    cli._cli(results, "due_three", ["hybrid"], expect=3)
    assert [(r.ok, r.wrong) for r in results] == [(False, True), (False, False)]
