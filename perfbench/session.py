"""One benchmark session: set up a workload in a fresh process, run one pass.

``python -m perfbench.session '<json spec>'`` is started by
``perfbench/run.py`` (never by hand); the spec names the workload, seed,
size, the launch timestamp, the pass to run and the file the session
writes its result to, one JSON object::

    {"setup_s": ..., "passes": [{"wall_s": ..., "records": [...], ...}]}

A fresh process per session is what makes the sweep cold: the runner's
result memo, the trace memo and the columnar plan cache all live in
process memory, so a second pass in the same process would be warm.  A
sweep session therefore makes exactly one pass.  The hot replay repeats
its pass while the spec's ``budget_s`` allows, so one set-up serves
several timed rounds.

The session only calls the program's public entry points —
``repro.bench.runner`` (``prefetch``, ``set_jobs``, ``enable_disk_cache``,
``enable_trace_cache``, ``accounting``, ``frontier_summary``),
``repro.bench.sweep`` (``SweepSpec``, ``SweepRunner``),
``repro.bench.traces.TraceStore`` and ``System.run`` — and observes the
rest by wrapping boundary callables (:mod:`perfbench.tracing`).
"""

import cProfile
import json
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from perfbench import checks
from perfbench.tracing import PhaseTracer, fold_profile
from repro.bench import frontier, runner
from repro.bench.frontier import RunRequest
from repro.bench.sweep import SWEEPS, SweepRunner
from repro.bench.traces import TraceStore
from repro.core.dispatch import DispatchPolicy
from repro.system.config import scaled_config
from repro.system.system import System

#: The four dispatch policies of Figs. 6/7/12, in figure order.
POLICIES = (DispatchPolicy.IDEAL_HOST, DispatchPolicy.HOST_ONLY,
            DispatchPolicy.PIM_ONLY, DispatchPolicy.LOCALITY_AWARE)

#: PR, HJ and SC: the graph, join and column-scan families of Fig. 6.
FIGURE_WORKLOADS = ("PR", "HJ", "SC")

#: Full-size and smoke-size parameters.  Every value is passed explicitly
#: into the program, so no REPRO_BENCH_* variable can change the work.
#: The full sizes keep one timed pass at a few seconds, so a run holds
#: several passes and reports their median (see NOTES.md).
SIZES = {
    "full": {"replay_size": "medium", "replay_ops": 4000,
             "sweep_points": 128, "sweep_ops": 2000},
    "smoke": {"replay_size": "small", "replay_ops": 300,
              "sweep_points": 6, "sweep_ops": 300},
}


def _rusage_cpu() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_.ru_utime + self_.ru_stime
            + children.ru_utime + children.ru_stime)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest child's (Linux: KiB)."""
    self_ = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_ + children) / 1024.0


def sim_counts(results) -> Dict[str, float]:
    """Simulated model counts summed over a pass's results."""
    def total(key: str) -> float:
        return float(sum(r.stats.get(key, 0.0) for r in results))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    host, mem = total("pei.host_executed"), total("pei.mem_executed")
    return {
        "sim.cycles": float(sum(r.cycles for r in results)),
        "sim.instructions": float(sum(r.instructions for r in results)),
        "cache.l1_hit_ratio": ratio(total("l1.hits"), total("l1.accesses")),
        "cache.l3_hit_ratio": ratio(total("l3.hits"), total("l3.accesses")),
        "core.pei_issued": total("pei.issued"),
        "core.pei_mem_ratio": ratio(mem, host + mem),
        "core.dir_conflicts": total("pim_directory.conflicts"),
        "core.dir_wait_cycles": total("pim_directory.wait_cycles"),
        "core.monitor_accesses": total("locality_monitor.accesses"),
        "mem.offchip_request_bytes": total("offchip.request_bytes"),
        "mem.offchip_response_bytes": total("offchip.response_bytes"),
        "mem.dram_accesses": float(sum(r.dram_accesses for r in results)),
        "xbar.bytes": total("xbar.bytes"),
    }


@contextmanager
def _observe_batches(latencies: List[float]):
    """Record each simulated request's worker-side host latency.

    Wraps ``frontier.execute_batch`` (the runner calls it through the
    module attribute) and reads ``worker.dur_s`` off the envelopes it
    returns — one wrapper call per batch, so it costs nothing measurable.
    """
    original = frontier.execute_batch

    def observed(*args, **kwargs):
        envelopes = original(*args, **kwargs)
        latencies.extend(float(e["worker"]["dur_s"]) for e in envelopes)
        return envelopes

    frontier.execute_batch = observed
    try:
        yield
    finally:
        frontier.execute_batch = original


class _Window:
    """Times one measured region; optionally traces it."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.tracer = PhaseTracer() if trace else None
        self.profile = cProfile.Profile() if trace else None

    def __enter__(self):
        if self.trace:
            self.tracer.__enter__()
        self.cpu0 = _rusage_cpu()
        self.t0 = time.perf_counter()
        if self.trace:
            self.profile.enable()
        return self

    def __exit__(self, *exc):
        if self.trace:
            self.profile.disable()
        self.wall_s = time.perf_counter() - self.t0
        self.cpu_s = _rusage_cpu() - self.cpu0
        if self.trace:
            self.tracer.__exit__(*exc)

    def report(self) -> Dict:
        out = {"wall_s": self.wall_s, "cpu_s": self.cpu_s}
        if self.trace:
            out["phases"] = dict(self.tracer.self_s)
            out["layers"] = fold_profile(self.profile)
            out["boundary_calls"] = dict(self.tracer.calls)
        return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Fig8SweepFull:
    """The fig8-crossover sweep, exhaustive over a fixed grid, cold.

    Fresh result and trace caches in a temporary directory, in a fresh
    process (see the module docstring).
    """

    def __init__(self, seed: int, size: Dict, workdir: Path):
        self.tmp = Path(tempfile.mkdtemp(prefix="session-", dir=workdir))
        self.cache = runner.enable_disk_cache(self.tmp / "cache")
        runner.enable_trace_cache(self.tmp / "traces")
        self.spec = replace(SWEEPS["fig8-crossover"](size["sweep_points"]),
                            seed=seed, max_ops_per_thread=size["sweep_ops"])

    def requests(self) -> List[RunRequest]:
        return [request for index in range(len(self.spec.values))
                for request in self.spec.requests_for(index)]

    def execute(self, requests, reverse):
        if reverse:
            runner.prefetch(requests[::-1])
        else:
            SweepRunner(self.spec).run(full=True)

    def run_pass(self, reverse: bool, jobs: int, trace: bool) -> Dict:
        runner.set_jobs(jobs)
        requests = self.requests()
        latencies: List[float] = []
        with _observe_batches(latencies):
            with _Window(trace) as window:
                self.execute(requests, reverse)
        results = [self.cache.get(request) for request in requests]
        if any(result is None for result in results):
            raise RuntimeError("a simulated result was not persisted")
        acct = runner.accounting().snapshot()
        summary = runner.frontier_summary()
        workers = summary.get("workers", {})
        busy = sum(w["busy_s"] for w in workers.values())
        lookups = acct["plan_hits"] + acct["plan_misses"]
        out = window.report()
        out.update({
            "peak_rss_mb": _peak_rss_mb(),
            "latencies": latencies,
            "records": [checks.record(q, r) for q, r in zip(requests, results)],
            "sim": sim_counts(results),
            "counts": {
                "count.simulations": acct["simulations"],
                "count.trace_captures": acct["trace_captures"],
                "count.plan_misses": acct["plan_misses"],
                "count.plan_evictions": acct["plan_evictions"],
                "count.trace_decodes": acct["trace_decodes"],
                "count.cache_writes": self.cache.counters()["stores"],
                "ratio.plan_hit": (acct["plan_hits"] / lookups
                                   if lookups else 0.0),
            },
            "frontier": {
                "frontier.idle_s": max(0.0, jobs * summary["batch_wall_s"] - busy),
                "frontier.util_min": min(
                    (w["utilization"] for w in workers.values()), default=0.0),
            },
        })
        return out


class ReplayMediumHot:
    """Medium-input traces replayed on fresh machines with warm plans."""

    def __init__(self, seed: int, size: Dict, workdir: Path):
        self.requests = [
            RunRequest.single(name, size["replay_size"], policy,
                              config=scaled_config(),
                              max_ops_per_thread=size["replay_ops"],
                              seed=seed)
            for name in FIGURE_WORKLOADS for policy in POLICIES]
        store = TraceStore()
        self.traces = [store.get_or_capture(r) for r in self.requests]
        # Warm-up: one run per (trace, monitor use) compiles every
        # columnar plan and captures its warm template.
        for request, trace in zip(self.requests, self.traces):
            if request.policy in (DispatchPolicy.IDEAL_HOST,
                                  DispatchPolicy.LOCALITY_AWARE):
                self._simulate(request, trace)

    @staticmethod
    def _simulate(request: RunRequest, trace):
        system = System(request.config, request.policy)
        return system.run(trace, max_ops_per_thread=request.max_ops_per_thread)

    def run_pass(self, reverse: bool, jobs: int, trace: bool) -> Dict:
        order = list(range(len(self.requests)))
        if reverse:
            order.reverse()
        results = [None] * len(order)
        # Host wall and CPU time of each request, in request order.
        latencies = [0.0] * len(order)
        cpu = [0.0] * len(order)
        clock, cpu_clock = time.perf_counter, time.process_time
        with _Window(trace) as window:
            for i in order:
                t0, c0 = clock(), cpu_clock()
                results[i] = self._simulate(self.requests[i], self.traces[i])
                latencies[i] = clock() - t0
                cpu[i] = cpu_clock() - c0
        out = window.report()
        out.update({
            "peak_rss_mb": _peak_rss_mb(),
            "latencies": latencies,
            "request_cpu": cpu,
            "records": [checks.record(q, r)
                        for q, r in zip(self.requests, results)],
            "sim": sim_counts(results),
            "frontier": {"frontier.idle_s": 0.0, "frontier.util_min": 0.0},
        })
        if trace:
            # No runner here: count the boundary calls the tracer saw.
            # Nothing in this workload evicts plans or decodes shm traces.
            calls = out["boundary_calls"]
            lookups = calls["columnar._plan_for"]
            builds = calls["columnar._build_plan"]
            out["counts"] = {
                "count.simulations": calls["System.run"],
                "count.trace_captures": calls["TraceStore.get_or_capture"],
                "count.plan_misses": builds,
                "count.plan_evictions": 0,
                "count.trace_decodes": 0,
                "count.cache_writes": calls["BenchCache.put"],
                "ratio.plan_hit": (lookups - builds) / lookups if lookups else 0.0,
            }
        return out


WORKLOADS = {
    "replay-medium-hot": ReplayMediumHot,
    "fig8-sweep-full": Fig8SweepFull,
}


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    size = SIZES["smoke" if spec.get("smoke") else "full"]
    workload = WORKLOADS[spec["workload"]](
        spec["seed"], size, Path(spec["workdir"]))
    setup_s = time.monotonic() - spec["launch"]
    pass_ = spec["pass"]
    passes = []
    while True:
        passes.append(workload.run_pass(pass_["reverse"], pass_["jobs"],
                                        pass_["trace"]))
        if not isinstance(workload, ReplayMediumHot):
            break  # the sweep is warm after its first pass
        # Repeat while one more pass is expected to fit in the budget.
        spent = sum(p["wall_s"] for p in passes)
        if spent + spent / len(passes) > pass_["budget_s"]:
            break
    Path(spec["out"]).write_text(
        json.dumps({"setup_s": setup_s, "passes": passes}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
