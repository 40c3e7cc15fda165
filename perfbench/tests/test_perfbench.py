"""Self-tests of the benchmark, at reduced size.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import checks
from perfbench import run as bench

ROOT = Path(__file__).resolve().parents[2]
E2E = [m["name"] for m in bench.BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in bench.BENCHMARK["per_layer"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == E2E
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.UNITS[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced_prints_every_per_layer_metric(workload):
    result = _result("--workload", workload, "--seed", "3", "--trace", "1",
                     "--smoke")
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The phase spans account for (nearly) all of the traced window.
    assert 0.9 <= metrics["phase.coverage"] <= 1.0
    assert metrics["count.simulations"] >= 1
    assert metrics["sim.instructions"] > 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_and_untraced_passes_agree(tmp_path, workload):
    sessions = bench.Sessions(tmp_path, smoke=True, reference=False,
                              deadline=None)
    passes = [sessions.session(workload, 5, bench._pass(False, 1, trace))
              ["passes"][0] for trace in (False, True)]
    assert "phases" in passes[1] and "phases" not in passes[0]
    assert [r["digest"] for r in passes[0]["records"]] == \
        [r["digest"] for r in passes[1]["records"]]
    assert not checks.disagreements([p["records"] for p in passes])


def _real_records():
    """Records of one small trace under the four figure policies."""
    from perfbench.session import POLICIES
    from repro.bench.frontier import RunRequest
    from repro.bench.traces import TraceStore
    from repro.system.config import tiny_config
    from repro.system.system import System

    store = TraceStore()
    pairs = []
    for policy in POLICIES:
        request = RunRequest.single("HJ", "small", policy,
                                    config=tiny_config(),
                                    max_ops_per_thread=200, seed=1)
        trace = store.get_or_capture(request)
        result = System(request.config, policy).run(
            trace, max_ops_per_thread=200)
        pairs.append((request, result))
    return pairs


def test_corrupted_result_is_counted_in_failed_frac():
    pairs = _real_records()
    records = [checks.record(q, r) for q, r in pairs]
    assert checks.failures(records) == set()

    # Host-only reporting a memory-side PEI breaks the policy rule.
    request, result = pairs[1]
    stats = dict(result.stats)
    stats["pei.mem_executed"] = stats.get("pei.mem_executed", 0.0) + 1.0
    corrupted = list(records)
    corrupted[1] = checks.record(request, replace(result, stats=stats))
    assert checks.failures(corrupted) == {1}

    # One policy retiring a different instruction count breaks the trace rule.
    request, result = pairs[3]
    corrupted = list(records)
    corrupted[3] = checks.record(
        request, replace(result, instructions=result.instructions + 1))
    assert checks.failures(corrupted) == {3}

    # A digest that differs from the reference fails that request only.
    reference = [rec["digest"] for rec in records]
    reference[2] = "0" * checks.DIGEST_LEN
    assert checks.failures(records, reference) == {2}

    sessions = bench.Sessions(ROOT, smoke=True, reference=False,
                              deadline=None)
    verdict = bench._check(sessions, bench.WORKLOADS[0], 1,
                           [{"records": corrupted}])
    assert verdict["failed"] == 1 and verdict["attempted"] == 4


def test_reverse_pass_disagreement_fails_the_request():
    records = [{"digest": "a"}, {"digest": "b"}]
    leaked = [{"digest": "a"}, {"digest": "c"}]
    assert checks.disagreements([records, leaked]) == {1}
    assert checks.disagreements([records, records]) == set()


def test_caller_environment_cannot_change_the_work(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_OPS", "17")
    monkeypatch.setenv("REPRO_BENCH_SEED", "99")
    sessions = bench.Sessions(tmp_path, smoke=True, reference=False,
                              deadline=None)
    assert not any(k.startswith("REPRO_BENCH_") for k in sessions.env)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", bench.WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
