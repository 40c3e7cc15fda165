"""The top-level simulated system and its run engine.

The engine interleaves the workload's per-thread operation streams in
approximate global-time order: a heap keyed by core time always advances the
laggard thread, and each popped thread processes a small batch of operations
before re-entering the heap.  Shared-resource contention (links, DRAM banks,
L3 banks, PCU logic) is handled by the resources themselves, so the engine
only has to keep threads roughly synchronized.

Two stream sources drive the same engine semantics:

* **generators** — the workload's functional algorithm runs as the stream
  is consumed.  This loop (in :meth:`System.run`) handles every machine
  state — fresh or reused, warm or cold start — and is the reference the
  replay-equivalence suites compare against; and
* a **CompiledTrace** — the streams were captured once by
  :func:`repro.cpu.trace.capture_trace` and replay through the columnar
  engine (:mod:`repro.system.columnar`), which precompiles the trace into
  per-op columns on a fresh, warm-started machine.  Replayed runs are
  bit-identical to generator-driven runs because operation streams never
  depend on the execution mode; a trace the columnar engine cannot replay
  raises :class:`~repro.cpu.trace.TraceError` instead of switching paths.
"""

import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Union

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import PIM_OPS
from repro.cpu.trace import (
    KIND_BARRIER,
    KIND_COMPUTE,
    KIND_FENCE,
    KIND_LOAD,
    KIND_PEI,
    KIND_STORE,
    CompiledTrace,
    TraceError,
)
from repro.energy.model import EnergyModel
from repro.energy.params import EnergyParams
from repro.obs.sampler import live_gauges
from repro.obs.telemetry import Telemetry
from repro.sim.stat_keys import SLOT_LOCALITY_MONITOR_EVICTIONS
from repro.system.builder import build_machine
from repro.system.config import SystemConfig, scaled_config
from repro.system.result import RunResult
from repro.vm.address_space import AddressSpace
from repro.workloads.base import Workload


class System:
    """A complete machine instance ready to run one workload.

    Machine state (caches, monitor, link counters) persists across ``run``
    calls; experiments create a fresh System per measured run so every
    configuration starts cold.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        policy: DispatchPolicy = DispatchPolicy.LOCALITY_AWARE,
        energy_params: Optional[EnergyParams] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config if config is not None else scaled_config()
        self.policy = policy
        self.machine = build_machine(self.config, policy)
        self.energy_model = EnergyModel(energy_params)
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.machine)

    # Convenience accessors --------------------------------------------

    @property
    def stats(self):
        return self.machine.stats

    @property
    def cores(self):
        return self.machine.cores

    @property
    def hierarchy(self):
        return self.machine.hierarchy

    @property
    def pmu(self):
        return self.machine.pmu

    @property
    def executor(self):
        return self.machine.executor

    @property
    def hmc(self):
        return self.machine.hmc

    # ------------------------------------------------------------------

    def run(
        self,
        workload: Union[Workload, CompiledTrace],
        max_ops_per_thread: Optional[int] = None,
        n_threads: Optional[int] = None,
        batch_window: float = 256.0,
        warm_start: bool = True,
    ) -> RunResult:
        """Simulate ``workload``; returns the collected metrics.

        ``workload`` may be a live :class:`Workload` (its generators drive
        the engine and the functional algorithm executes as a side effect)
        or a :class:`CompiledTrace` captured earlier, which replays through
        the columnar engine (:mod:`repro.system.columnar`) with identical
        results.  Trace replay needs a fresh System and ``warm_start=True``;
        a reused machine or a cold start raises :class:`TraceError` — run
        the live workload instead, which the generator loop below handles
        in every machine state.

        ``max_ops_per_thread`` caps each thread's operation count — the
        analogue of the paper's fixed two-billion-instruction simulation
        windows.  The cap cuts identical work in every configuration because
        operation streams never depend on the execution mode.

        ``warm_start`` emulates the paper's methodology of simulating after
        the initialization phase: the initialization sweep that wrote the
        data leaves the last-level cache and the locality monitor populated
        with the most recently initialized blocks.

        """
        if isinstance(workload, CompiledTrace):
            return self._run_trace(workload, max_ops_per_thread, n_threads,
                                   batch_window, warm_start)
        machine = self.machine
        space = AddressSpace(page_size=self.config.page_size)
        workload.prepare(space)
        if warm_start:
            spans = [(region.base, region.end)
                     for region in space.regions.values()]
            self._warm_caches(spans)
        if n_threads is None:
            n_threads = self.config.n_cores
        if n_threads > self.config.n_cores:
            raise ValueError(
                f"{n_threads} threads exceed {self.config.n_cores} cores"
            )
        generators = workload.make_threads(n_threads)
        if len(generators) != n_threads:
            raise RuntimeError(
                f"workload produced {len(generators)} threads, expected {n_threads}"
            )
        groups = workload.barrier_groups(n_threads)

        cores = machine.cores
        executor = machine.executor
        ops_done = [0] * n_threads
        group_active: Dict[int, int] = defaultdict(int)
        for group in groups:
            group_active[group] += 1
        barrier_arrived: Dict[int, List[int]] = defaultdict(list)
        parked_count = 0

        heap = [(cores[tid].time, tid) for tid in range(n_threads)]
        heapq.heapify(heap)
        telemetry = self.telemetry

        def release_group(group: int) -> None:
            nonlocal parked_count
            waiting = barrier_arrived[group]
            resume = max(cores[tid].time for tid in waiting)
            for tid in waiting:
                cores[tid].time = resume
                heapq.heappush(heap, (resume, tid))
            parked_count -= len(waiting)
            waiting.clear()

        def finish_thread(tid: int) -> None:
            group = groups[tid]
            group_active[group] -= 1
            waiting = barrier_arrived[group]
            if waiting and len(waiting) == group_active[group]:
                release_group(group)

        heappop, heappush = heapq.heappop, heapq.heappush
        # With no telemetry attached, the executor's obs-guard wrapper is a
        # dead frame on every PEI — bind past it.
        execute = (executor._execute if not executor.obs.enabled
                   else executor.execute)
        fence = executor.fence
        cap = max_ops_per_thread
        while heap:
            _, tid = heappop(heap)
            gen = generators[tid]
            gen_next = gen.__next__
            core = cores[tid]
            do_load, do_store = core.do_load, core.do_store
            do_compute = core.do_compute
            done = ops_done[tid]
            horizon = heap[0][0] + batch_window if heap else float("inf")
            parked = False
            finished = False
            while True:
                if cap is not None and done >= cap:
                    finished = True
                    break
                try:
                    op = gen_next()
                except StopIteration:
                    finished = True
                    break
                done += 1
                kind = op.kind
                if kind == KIND_LOAD:
                    do_load(op.addr, op.dep)
                elif kind == KIND_PEI:
                    execute(core, op.op, op.addr, op.wait_output, op.chain)
                elif kind == KIND_COMPUTE:
                    do_compute(op.insts)
                elif kind == KIND_STORE:
                    do_store(op.addr)
                elif kind == KIND_FENCE:
                    fence(core)
                elif kind == KIND_BARRIER:
                    group = op.group
                    barrier_arrived[group].append(tid)
                    parked_count += 1
                    parked = True
                    if len(barrier_arrived[group]) == group_active[group]:
                        release_group(group)
                    break
                else:
                    raise ValueError(f"unknown operation kind {kind}")
                if core.time > horizon:
                    break
            ops_done[tid] = done
            if finished:
                finish_thread(tid)
            elif not parked:
                heappush(heap, (core.time, tid))
            if telemetry is not None and heap:
                # The heap front is the laggard thread: once it passes an
                # interval boundary, every thread has simulated past it and
                # the cumulative counters are a faithful snapshot there.
                telemetry.on_progress(machine, heap[0][0])

        if parked_count:
            raise RuntimeError(
                "barrier deadlock: threads still parked when the run drained"
            )

        for core in cores:
            core.drain()
        return self._collect(workload.name, workload.footprint,
                             n_threads, max_ops_per_thread)

    # ------------------------------------------------------------------

    def _run_trace(
        self,
        trace: CompiledTrace,
        max_ops_per_thread: Optional[int],
        n_threads: Optional[int],
        batch_window: float,
        warm_start: bool,
    ) -> RunResult:
        """Replay a compiled trace through the columnar engine.

        The trace pins the stream-shaping inputs (thread count, ops cap,
        page size); mismatching replay arguments are rejected rather than
        silently producing a run that a generator-driven System would never
        have produced.
        """
        config = self.config
        if trace.page_size != config.page_size:
            raise TraceError(
                f"trace regions were laid out with page size "
                f"{trace.page_size}, config uses {config.page_size}")
        if n_threads is None:
            n_threads = trace.n_threads
        if n_threads != trace.n_threads:
            raise TraceError(
                f"trace was captured with {trace.n_threads} threads, "
                f"cannot replay with {n_threads}")
        if n_threads > config.n_cores:
            raise ValueError(
                f"{n_threads} threads exceed {config.n_cores} cores"
            )
        if (max_ops_per_thread is not None
                and max_ops_per_thread != trace.max_ops_per_thread):
            raise TraceError(
                f"trace was captured under ops cap "
                f"{trace.max_ops_per_thread}, cannot replay under "
                f"{max_ops_per_thread}")
        try:
            op_table = [PIM_OPS[m] for m in trace.op_mnemonics]
        except KeyError as exc:
            raise TraceError(
                f"trace references unknown PIM op {exc.args[0]!r}") from exc
        # The cap that actually shaped the stream: the trace was cut at
        # capture time, so a None argument inherits the captured cap.  The
        # generator path records the same value in the RunResult metadata
        # (a generator run producing the same stream must have been called
        # with exactly this cap).
        effective_cap = (max_ops_per_thread if max_ops_per_thread is not None
                         else trace.max_ops_per_thread)
        # Deferred import: repro.system.columnar needs numpy, and the
        # numpy-free consumers (repro.analysis, repro.verify) import
        # System — the columnar engine must stay off their import path.
        try:
            from repro.system import columnar
        except ImportError as exc:
            raise TraceError(
                f"trace replay needs numpy ({exc}); run the live workload "
                f"with System.run(workload) instead") from exc
        plan_before = columnar.plan_cache_counters()
        result = columnar.replay(self, trace, op_table, n_threads,
                                 batch_window, warm_start, effective_cap)
        # Transient (underscore-prefixed, dropped by to_dict): whether this
        # run's ColumnPlan was cached depends on what the process replayed
        # before, so the delta is scheduling observability, never part of
        # the result proper.
        plan_after = columnar.plan_cache_counters()
        result.metadata["_plan_cache"] = {
            key: plan_after[key] - plan_before[key] for key in plan_after}
        return result

    # ------------------------------------------------------------------

    def _warm_caches(self, spans: List[tuple]) -> None:
        """Touch every block of the given ``(base, end)`` spans in order.

        Inserts each block (clean) into the L3 and, when the policy uses the
        locality monitor, mirrors the access there — the state a real run
        would have right after its (skipped) initialization phase.  No
        statistics or timing are charged: the shared Stats object is
        suspended for the duration, so e.g. monitor evictions during warming
        (which a large footprint produces by the hundred thousand) never
        pollute the measured run.

        Spans are region extents and therefore page-aligned at the base
        (AddressSpace allocations are page-aligned), which lets the sweep
        translate once per page: within a page, physical blocks are
        contiguous, so the per-block virtual addresses never need to be
        formed at all.  The insert/observe sequence is exactly the naive
        per-block loop's.
        """
        machine = self.machine
        hierarchy = machine.hierarchy
        translate = machine.page_table.translate
        l3 = hierarchy.l3
        l3_insert = l3.insert
        block_size = self.config.block_size
        block_bits = hierarchy.block_bits
        page_size = self.config.page_size
        use_monitor = self.policy.uses_monitor
        observe = machine.monitor.observe_llc_access if use_monitor else None
        # The per-block loops below inline SetAssocArray.insert (LRU only)
        # and LocalityMonitor.observe_llc_access: the sweep touches every
        # block of the footprint, and at five-digit block counts the two
        # calls per block dominate the warm time.  ``slots`` identity is
        # stable under suspension, so the monitor-eviction slot can be
        # bound outside the ``with``.
        flat = hierarchy._lru
        if flat:
            l3_sets, l3_mask, l3_ways = l3.sets, l3._set_mask, l3.n_ways
            if use_monitor:
                mon = machine.monitor
                m_sets = mon._sets
                m_mask = mon.n_sets - 1
                m_ways = mon.n_ways
                m_set_bits = mon._set_bits
                m_tag_bits = mon.partial_tag_bits
                m_tag_mask = mon._tag_mask
                m_slots = mon._slots
        with machine.stats.suspended():
            for base, end in spans:
                for page_vaddr in range(base, end, page_size):
                    page_end = page_vaddr + page_size
                    if page_end > end:
                        page_end = end
                    count = (page_end - page_vaddr + block_size - 1) // block_size
                    first = translate(page_vaddr) >> block_bits
                    if not flat:
                        if observe is None:
                            for block in range(first, first + count):
                                l3_insert(block, dirty=False)
                        else:
                            for block in range(first, first + count):
                                l3_insert(block, dirty=False)
                                observe(block)
                        continue
                    for block in range(first, first + count):
                        line_set = l3_sets[block & l3_mask]
                        if block in line_set:
                            line_set.move_to_end(block)
                        else:
                            if len(line_set) >= l3_ways:
                                line_set.popitem(last=False)
                                l3.evictions += 1
                            line_set[block] = False
                        if not use_monitor:
                            continue
                        m_set = m_sets[block & m_mask]
                        value = block >> m_set_bits
                        tag = 0
                        while value:
                            tag ^= value & m_tag_mask
                            value >>= m_tag_bits
                        if tag in m_set:
                            m_set[tag] = False
                            m_set.move_to_end(tag)
                        else:
                            if len(m_set) >= m_ways:
                                m_set.popitem(last=False)
                                m_slots[SLOT_LOCALITY_MONITOR_EVICTIONS] += 1.0
                            m_set[tag] = False

    # ------------------------------------------------------------------

    def _collect(
        self,
        workload_name: str,
        footprint: int,
        n_threads: int,
        max_ops_per_thread: Optional[int],
    ) -> RunResult:
        machine = self.machine
        stats = machine.stats
        cycles = max(core.time for core in machine.cores)
        # Publish the live gauges through the same helper the interval
        # sampler uses, so a final telemetry sample matches RunResult.stats
        # exactly.
        for name, value in live_gauges(machine, cycles).items():
            stats.set(name, value)
        if self.telemetry is not None:
            self.telemetry.finalize(machine, cycles)
        per_core = [core.instructions for core in machine.cores]
        energy = self.energy_model.compute(stats)
        return RunResult(
            workload=workload_name,
            policy=self.policy.value,
            cycles=cycles,
            instructions=sum(per_core),
            per_core_instructions=per_core,
            stats=stats.to_dict(),
            energy=energy,
            metadata={
                "n_threads": n_threads,
                "max_ops_per_thread": max_ops_per_thread,
                "footprint_bytes": footprint,
                "config_l3_size": self.config.l3_size,
            },
        )
