"""Tests for the columnar plan-cache accounting and configurable bound.

The ColumnPlan cache is pure harness state: its bound and its hit/miss
history shape host memory use and compile time, never simulated results.
These tests pin both halves of that contract — the counters surface
through transient (underscore-prefixed) result metadata and the runner
accounting, and results are bit-identical under any bound.
"""

import pytest

pytest.importorskip("numpy")

from repro.bench import runner
from repro.bench.frontier import RunRequest, simulate
from repro.core.dispatch import DispatchPolicy
from repro.cpu.trace import capture_trace
from repro.system import columnar
from repro.system.config import tiny_config
from repro.system.result import RunResult
from repro.system.system import System
from repro.workloads.registry import make_workload


@pytest.fixture(autouse=True)
def restore_plan_cache():
    yield
    columnar.set_plan_cache_limit(8)
    columnar._PLAN_CACHE.clear()


def captured_trace(n_values=2000, max_ops=300, seed=7):
    # The explicit key is digested into the trace fingerprint (which keys
    # the plan cache), so each seed gets its own entry even if two seeds
    # happened to produce identical streams.
    config = tiny_config()
    workload = make_workload("HG", "small", seed=seed, n_values=n_values)
    return capture_trace(workload, n_threads=config.n_cores,
                         page_size=config.page_size,
                         max_ops_per_thread=max_ops,
                         key={"workload": "HG", "seed": seed,
                              "n_values": n_values})


def replay(trace, policy=DispatchPolicy.HOST_ONLY):
    return System(tiny_config(), policy).run(trace)


class TestCounters:
    def test_miss_then_hit(self):
        trace = captured_trace()
        columnar._PLAN_CACHE.clear()
        before = columnar.plan_cache_counters()
        replay(trace)
        mid = columnar.plan_cache_counters()
        assert mid["misses"] == before["misses"] + 1
        replay(trace)
        after = columnar.plan_cache_counters()
        assert after["hits"] == mid["hits"] + 1
        assert after["misses"] == mid["misses"]

    def test_counters_returns_copy(self):
        counters = columnar.plan_cache_counters()
        counters["hits"] += 1000
        assert columnar.plan_cache_counters()["hits"] != counters["hits"]

    def test_result_carries_transient_delta(self):
        trace = captured_trace()
        result = replay(trace)
        delta = result.metadata["_plan_cache"]
        assert set(delta) == {"hits", "misses", "evictions"}
        assert delta["hits"] + delta["misses"] == 1

    def test_transient_metadata_excluded_from_dict(self):
        trace = captured_trace()
        result = replay(trace)
        assert "_plan_cache" in result.metadata
        payload = result.to_dict()
        assert "_plan_cache" not in payload["metadata"]
        assert not any(key.startswith("_") for key in payload["metadata"])
        # Round-tripping therefore drops it too.
        rebuilt = RunResult.from_dict(payload)
        assert "_plan_cache" not in rebuilt.metadata


class TestLimit:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            columnar.set_plan_cache_limit(0)

    def test_lowering_evicts(self):
        columnar._PLAN_CACHE.clear()
        traces = [captured_trace(seed=s) for s in (11, 12, 13)]
        for trace in traces:
            replay(trace)
        assert len(columnar._PLAN_CACHE) == 3
        before = columnar.plan_cache_counters()
        columnar.set_plan_cache_limit(1)
        assert len(columnar._PLAN_CACHE) == 1
        after = columnar.plan_cache_counters()
        assert after["evictions"] == before["evictions"] + 2

    def test_limit_one_thrashes_but_results_identical(self):
        """The bound is a memory/recompile trade: never a results change."""
        traces = [captured_trace(seed=s) for s in (11, 12)]
        columnar.set_plan_cache_limit(8)
        columnar._PLAN_CACHE.clear()
        wide = [replay(t).to_dict() for t in traces + traces]
        columnar.set_plan_cache_limit(1)
        columnar._PLAN_CACHE.clear()
        narrow = [replay(t).to_dict() for t in traces + traces]
        assert wide == narrow

    def test_four_policies_compile_one_plan(self):
        """One plan per trace: the paper's four policies share it, and each
        replay matches its generator run bit-for-bit.

        Locality-Aware replays twice: the first run fills the warm
        template's monitor part (the policies before it never touch the
        monitor), the second applies it.
        """
        trace = captured_trace()
        policies = (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY,
                    DispatchPolicy.LOCALITY_AWARE, DispatchPolicy.IDEAL_HOST,
                    DispatchPolicy.LOCALITY_AWARE)
        columnar._PLAN_CACHE.clear()
        before = columnar.plan_cache_counters()
        for policy in policies:
            generated = System(tiny_config(), policy).run(
                make_workload("HG", "small", seed=7, n_values=2000),
                max_ops_per_thread=300)
            assert replay(trace, policy).to_dict() == generated.to_dict()
        after = columnar.plan_cache_counters()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == len(policies) - 1


class TestSettings:
    def test_settings_field_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PLAN_CACHE", "3")
        assert runner.current_settings().plan_cache_limit == 3

    def test_bound_not_in_request_fingerprint(self, monkeypatch):
        """The bound must never key caches: results are bound-independent."""
        request = RunRequest.single(
            "HG", "small", DispatchPolicy.HOST_ONLY, n_values=2000)
        monkeypatch.setenv("REPRO_BENCH_PLAN_CACHE", "2")
        a = request.resolve(runner.current_settings()).fingerprint()
        monkeypatch.setenv("REPRO_BENCH_PLAN_CACHE", "8")
        b = request.resolve(runner.current_settings()).fingerprint()
        assert a == b

    def test_serial_batch_applies_limit(self):
        from repro.bench.frontier import execute_batch

        request = RunRequest.single(
            "HG", "small", DispatchPolicy.HOST_ONLY, config=tiny_config(),
            max_ops_per_thread=300, seed=7, n_values=2000)
        execute_batch([request], jobs=1, plan_cache_limit=2)
        assert columnar._PLAN_CACHE_LIMIT == 2


class TestBitIdentityAcrossEngines:
    def test_generator_and_replay_dicts_equal(self):
        """The transient annotation must not leak into serialized results."""
        request = RunRequest.single(
            "HG", "small", DispatchPolicy.HOST_ONLY, config=tiny_config(),
            max_ops_per_thread=300, seed=7, n_values=2000)
        trace = captured_trace(n_values=2000, max_ops=300)
        via_generator = simulate(request)
        via_replay = simulate(request, trace=trace)
        assert via_generator.to_dict() == via_replay.to_dict()
