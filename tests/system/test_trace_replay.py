"""Replay equivalence across the paper's configurations.

The trace-once/replay-many engine is only usable if replay is perfectly
invisible: for every workload family and every Figure 6 configuration,
``System.run(trace)`` must produce a ``RunResult`` byte-identical to
``System.run(workload)`` — cycles, every stats counter, per-core detail.
The generator loop is the reference; the columnar replay engine
(:mod:`repro.system.columnar`) must also leave the *machine* in the state
a generator run leaves (TLBs, page table, monitor), so runs after a replay
stay equivalent.  Inputs the columnar plan cannot replay raise
``TraceError`` rather than switching engines.  One workload per family
keeps the matrix cheap while covering the three stream shapes
(barrier-phased graph traversal, compute-dense ML kernels, chained
analytics probes).
"""

import dataclasses
import json

import pytest

from repro.core.dispatch import DispatchPolicy
from repro.cpu.trace import CompiledTrace, TraceError, capture_trace
from repro.system.config import tiny_config
from repro.system.system import System
from repro.workloads.registry import make_workload

#: One representative per Table 3 family.
FAMILY_WORKLOADS = (
    ("graph", "BFS"),
    ("ml", "SC"),
    ("analytics", "HJ"),
)

#: The paper's four execution configurations (Fig. 6 / Section 7).
PAPER_POLICIES = (
    DispatchPolicy.HOST_ONLY,
    DispatchPolicy.PIM_ONLY,
    DispatchPolicy.LOCALITY_AWARE,
    DispatchPolicy.IDEAL_HOST,
)

OPS_CAP = 400


def canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module", params=[name for _, name in FAMILY_WORKLOADS],
                ids=[f"{family}-{name}" for family, name in FAMILY_WORKLOADS])
def captured(request):
    """(name, trace): one capture per family, shared across policies."""
    name = request.param
    config = tiny_config()
    workload = make_workload(name, "small", seed=11)
    trace = capture_trace(workload, n_threads=config.n_cores,
                          max_ops_per_thread=OPS_CAP,
                          page_size=config.page_size)
    return name, trace


@pytest.mark.parametrize("policy", PAPER_POLICIES,
                         ids=[p.value for p in PAPER_POLICIES])
def test_replay_bit_identical(captured, policy):
    name, trace = captured
    generated = System(tiny_config(), policy).run(
        make_workload(name, "small", seed=11), max_ops_per_thread=OPS_CAP)
    replayed = System(tiny_config(), policy).run(
        trace, max_ops_per_thread=OPS_CAP)
    assert canon(replayed) == canon(generated)


def test_replay_is_deterministic(captured):
    """Two replays of one trace are bit-identical (no hidden state)."""
    name, trace = captured
    policy = DispatchPolicy.LOCALITY_AWARE
    first = System(tiny_config(), policy).run(trace, max_ops_per_thread=OPS_CAP)
    second = System(tiny_config(), policy).run(trace, max_ops_per_thread=OPS_CAP)
    assert canon(first) == canon(second)


def test_replay_metadata_records_effective_cap(captured):
    """Default-args replay records the cap that actually shaped the stream.

    The trace was cut at capture time under OPS_CAP, so ``run(trace)`` with
    no cap argument must record OPS_CAP — exactly what the generator run
    producing the same stream records — not None (the old drift).
    """
    name, trace = captured
    policy = DispatchPolicy.LOCALITY_AWARE
    generated = System(tiny_config(), policy).run(
        make_workload(name, "small", seed=11), max_ops_per_thread=OPS_CAP)
    replayed = System(tiny_config(), policy).run(trace)
    # Serialized metadata is the replay contract; the live dict may
    # additionally carry transient (underscore-prefixed) harness
    # annotations such as the columnar plan-cache delta.
    assert replayed.to_dict()["metadata"] == generated.to_dict()["metadata"]
    assert replayed.metadata["max_ops_per_thread"] == OPS_CAP


def test_columnar_restores_machine_state(captured):
    """Replay leaves the machine exactly as a generator run does.

    The columnar engine precomputes TLB outcomes and page-table effects;
    it must write the final TLB contents, hit/miss totals and page table
    back, so a second (generator-driven) run on the same System sees the
    state a first generator run would have left.
    """
    name, trace = captured
    policy = DispatchPolicy.LOCALITY_AWARE
    via_replay = System(tiny_config(), policy)
    via_replay.run(trace)
    after_replay = via_replay.run(make_workload(name, "small", seed=11),
                                  max_ops_per_thread=OPS_CAP)
    via_generator = System(tiny_config(), policy)
    via_generator.run(make_workload(name, "small", seed=11),
                      max_ops_per_thread=OPS_CAP)
    after_generator = via_generator.run(make_workload(name, "small", seed=11),
                                        max_ops_per_thread=OPS_CAP)
    assert canon(after_replay) == canon(after_generator)


def test_columnar_non_lru_replacement_identical(captured):
    """Non-LRU replacement skips the warm template but stays identical."""
    name, trace = captured
    config = dataclasses.replace(tiny_config(),
                                 cache_replacement_policy="random")
    policy = DispatchPolicy.LOCALITY_AWARE
    replayed = System(config, policy).run(trace)
    generated = System(config, policy).run(
        make_workload(name, "small", seed=11), max_ops_per_thread=OPS_CAP)
    assert canon(replayed) == canon(generated)


# ----------------------------------------------------------------------
# Inputs the columnar plan cannot replay raise; they never switch engines
# ----------------------------------------------------------------------


def test_replay_on_reused_system_raises(captured):
    name, trace = captured
    system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
    system.run(trace)
    with pytest.raises(TraceError, match=r"System\.run\(workload\)"):
        system.run(trace)


def test_replay_without_warm_start_raises(captured):
    name, trace = captured
    with pytest.raises(TraceError, match=r"System\.run\(workload\)"):
        System(tiny_config()).run(trace, warm_start=False)


def test_unmappable_trace_raises(captured):
    """Addresses outside the captured regions have no plan-time frame."""
    name, trace = captured
    payload = trace.to_payload()
    payload["regions"] = []
    # A new fingerprint: the original trace's plan may already be cached.
    payload["fingerprint"] = "regions-dropped"
    truncated = CompiledTrace.from_payload(payload)
    with pytest.raises(TraceError, match="outside the captured regions"):
        System(tiny_config()).run(truncated)


def test_distinct_traces_never_share_a_plan():
    """Two captures of one workload name at different sizes are different
    traces: the second replay must not reuse the first one's plan.

    Regression: the default capture fingerprint used to be the workload
    name alone, so PR-medium replayed on PR-small's plan (~1/3 of the
    generator run's cycles).
    """
    config = tiny_config()
    policy = DispatchPolicy.IDEAL_HOST
    traces = {size: capture_trace(make_workload("PR", size, seed=3),
                                  n_threads=config.n_cores,
                                  max_ops_per_thread=300,
                                  page_size=config.page_size)
              for size in ("small", "medium")}
    assert traces["small"].fingerprint != traces["medium"].fingerprint
    System(config, policy).run(traces["small"])
    replayed = System(config, policy).run(traces["medium"])
    generated = System(config, policy).run(
        make_workload("PR", "medium", seed=3), max_ops_per_thread=300)
    assert canon(replayed) == canon(generated)
