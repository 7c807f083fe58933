"""The Spatula simulation engine.

Cycle-accurate discrete-event simulation of a whole factorization on the
machine of :class:`~repro.arch.config.SpatulaConfig`.  Components (PEs,
cache banks, NoC ports, HBM channels, the dispatcher, the supernode
scheduler) are modeled as reservation resources at single-cycle
resolution; PEs execute tasks at task granularity with fixed systolic
latencies, exactly the granularity the paper's own simulator uses
(Section 6).

The engine enforces the architecture's correctness rules and asserts them
at runtime: tasks dispatch only when their scoreboard dependences are
resolved, generators dispatch in-order (unless the dataflow ablation
widens the window), and supernodes launch only after all children are
fully factored.
"""

from __future__ import annotations

import heapq
import logging

import numpy as np

from repro.arch.cache import BankedCache
from repro.arch.config import SpatulaConfig
from repro.arch.generator import Generator
from repro.arch.memory import HBMModel
from repro.arch.noc import CrossbarPort
from repro.arch.pe import PE, PendingTask
from repro.arch.scheduler import SupernodeScheduler
from repro.arch.stats import SimReport
from repro.arch.systolic import task_input_tiles, task_latency
from repro.obs import MetricsRegistry, span
from repro.tasks.plan import FactorizationPlan
from repro.tasks.task import TaskType, TileRef

logger = logging.getLogger(__name__)

_A_ENTRY_BYTES = 12  # 8-byte value + 4-byte packed coordinate


class SpatulaSim:
    """One simulation run: construct, then :meth:`run` once."""

    def __init__(
        self,
        plan: FactorizationPlan,
        config: SpatulaConfig | None = None,
        matrix_name: str = "",
        executor=None,
        trace: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Args:
            plan: tiled execution plan (see repro.tasks.plan.build_plan).
            config: hardware configuration; defaults to the paper machine.
            matrix_name: label stamped into the report.
            executor: optional repro.arch.functional.TileExecutor; when
                given, every retired task also runs its numeric kernel so
                the simulation computes the real factorization (checkable
                with executor.verify()).
            trace: record a per-task execution trace in ``self.trace``
                (see repro.arch.trace for renderers/exporters).
            metrics: registry to export component counters into at end of
                run (a fresh one is created otherwise); the run costs the
                same either way — components count into plain slots during
                the run and are folded into the registry exactly once.
        """
        self.plan = plan
        self.config = config or SpatulaConfig.paper()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.config.tile != plan.tile:
            raise ValueError(
                f"plan tiled at T={plan.tile} but config tile is "
                f"{self.config.tile}; rebuild the plan"
            )
        self.matrix_name = matrix_name
        self.executor = executor
        self.trace: list | None = [] if trace else None
        # Task-graph dependences of each retired supernode, kept only when
        # tracing so attribution's critical path need not rebuild them.
        self._sn_deps: dict[int, list[list[int]]] | None = \
            {} if trace else None

        cfg = self.config
        self.hbm = HBMModel(cfg)
        self.cache = BankedCache(cfg, self.hbm)
        self.cache.classify_store = self._classify_store
        self.pes = [
            PE(index=i, n_slots=cfg.task_slots,
               port=CrossbarPort(cfg.pe_port_bytes_per_cycle),
               wport=CrossbarPort(cfg.pe_port_bytes_per_cycle))
            for i in range(cfg.n_pes)
        ]
        self.snsched = SupernodeScheduler(
            tree=plan.symbolic.tree, config=cfg
        )

        # Tile address space.
        self._addr_of: dict[TileRef, int] = {}
        self._ref_of: list[TileRef] = []

        # Active generators, keyed by supernode index.
        self.gens: dict[int, Generator] = {}
        self._free_pe_bindings = list(range(cfg.n_pes - 1, -1, -1))

        # Event queue.
        self._events: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self._now = 0
        # Earliest outstanding pe_try wakeup per PE (dedupe guard).
        self._pe_wake: list[int | None] = [None] * cfg.n_pes

        # Machine-wide free task slots (the sum of every PE's slots_free):
        # taken in _dispatch, returned when a task starts executing.
        self._free_slots = cfg.n_pes * cfg.task_slots
        # A derived config value, read once (every dispatch uses it).
        self._tile_transfer_cycles = cfg.tile_transfer_cycles

        # Resources with busy-until semantics.
        self._dispatcher_free = 0
        self._next_activation = 0

        # Statistics.
        self._machine_flops = 0
        self._n_tasks_done = 0
        self._n_tasks_total = 0
        self._sn_started: dict[int, int] = {}
        self._sn_intervals: list[tuple[int, int]] = []
        self._gen_peak_outstanding: list[int] = []
        self._last_cycle = 0
        # Live-data footprint tracking (Section 5.2's memory argument):
        # active fronts plus update matrices produced but not yet consumed
        # by their parent (the component post-order traversal minimizes).
        self._live_front_bytes = 0
        self._live_update_bytes = 0
        self.peak_live_front_bytes = 0

        # Compulsory input-traffic bytes per supernode.
        self._comp_bytes = self._compulsory_bytes()

    # -- setup helpers -----------------------------------------------------

    def _compulsory_bytes(self) -> np.ndarray:
        """Bytes of A read when assembling each supernode's front."""
        permuted = self.plan.symbolic.permuted
        col_nnz = np.diff(permuted.indptr)
        if self.plan.kind == "lu":
            row_nnz = np.diff(permuted.transpose().indptr)
            col_nnz = col_nnz + row_nnz
        out = np.zeros(self.plan.n_supernodes, dtype=np.int64)
        for sn in self.plan.symbolic.tree.supernodes:
            out[sn.index] = _A_ENTRY_BYTES * int(
                col_nnz[sn.first_col:sn.last_col + 1].sum()
            )
        return out

    def _addr(self, ref: TileRef) -> int:
        addr = self._addr_of.get(ref)
        if addr is None:
            addr = len(self._ref_of)
            self._addr_of[ref] = addr
            self._ref_of.append(ref)
        return addr

    def _classify_store(self, addr: int) -> str:
        ref = self._ref_of[addr]
        plan = self.plan.supernodes[ref.sn]
        p = plan.grid.n_pivot_blocks
        if plan.symmetric:
            is_result = ref.block_col < p
        else:
            is_result = min(ref.block_row, ref.block_col) < p
        return "store_result" if is_result else "store_spill"

    def _is_result_addr(self, addr: int) -> bool:
        return self._classify_store(addr) == "store_result"

    # -- event machinery -----------------------------------------------------

    def _schedule(self, cycle: int, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (int(cycle), self._seq, kind, payload))

    def _schedule_pe_try(self, pe_index: int, cycle: int) -> None:
        """Schedule a PE wakeup, keeping at most one live wakeup per PE
        (the earliest); redundant later wakeups are never enqueued and
        superseded ones are dropped when they fire."""
        cycle = int(cycle)
        current = self._pe_wake[pe_index]
        if current is not None and current <= cycle:
            return
        self._pe_wake[pe_index] = cycle
        self._schedule(cycle, "pe_try", pe_index)

    # -- supernode activation ---------------------------------------------------

    def _activate(self, sn_index: int, cycle: int) -> None:
        graph = self.plan.task_graph(sn_index, order=self.config.order)
        gen = Generator(
            sn=sn_index, graph=graph, window=self.config.dataflow_window
        )
        if self.config.policy == "inter":
            gen.pe_binding = self._free_pe_bindings.pop()
        self.gens[sn_index] = gen
        self._n_tasks_total += graph.n_tasks
        self._sn_started[sn_index] = cycle
        self._live_front_bytes += self._front_bytes(sn_index)
        self._track_peak_footprint()
        if self.executor is not None:
            self.executor.init_front(sn_index)
        # Compulsory read of A's entries for this front.
        self.hbm.read_bulk(int(self._comp_bytes[sn_index]), cycle,
                           "comp_load")
        if graph.n_tasks == 0:
            # Degenerate empty supernode (cannot occur for n_cols >= 1, but
            # keep the engine total): complete immediately.
            self._finish_supernode(gen, cycle)

    def _front_bytes(self, sn_index: int) -> int:
        from repro.symbolic.tiling import front_tile_footprint_bytes

        plan = self.plan.supernodes[sn_index]
        return front_tile_footprint_bytes(plan.grid, plan.symmetric)

    def _update_bytes(self, sn_index: int) -> int:
        sn = self.plan.symbolic.tree.supernodes[sn_index]
        u = sn.n_update_rows
        entries = u * (u + 1) // 2 if self.plan.kind == "cholesky" \
            else u * u
        return entries * 8

    def _track_peak_footprint(self) -> None:
        self.peak_live_front_bytes = max(
            self.peak_live_front_bytes,
            self._live_front_bytes + self._live_update_bytes,
        )

    def _finish_supernode(self, gen: Generator, cycle: int) -> None:
        self._live_front_bytes -= self._front_bytes(gen.sn)
        # This supernode's update matrix stays live until the parent
        # consumes it; its children's updates are now consumed.
        self._live_update_bytes += self._update_bytes(gen.sn)
        for child in self.plan.symbolic.tree.supernodes[gen.sn].children:
            self._live_update_bytes -= self._update_bytes(child)
        self._track_peak_footprint()
        self._gen_peak_outstanding.append(gen.peak_outstanding)
        del self.gens[gen.sn]
        if self._sn_deps is not None:
            self._sn_deps[gen.sn] = gen.graph.deps
        if gen.pe_binding >= 0:
            self._free_pe_bindings.append(gen.pe_binding)
        self._sn_intervals.append((self._sn_started[gen.sn], cycle))
        self.snsched.complete(gen.sn)

    # -- dispatch --------------------------------------------------------------

    def _pick_pe(self, gen: Generator) -> PE | None:
        """The PE for ``gen``'s next task: its bound PE under ``inter``;
        otherwise the PE with the most free slots, then the earliest-free
        array, then the lowest index.  None when no eligible PE has a
        free slot."""
        if gen.pe_binding >= 0:
            pe = self.pes[gen.pe_binding]
            return pe if pe.n_slots > len(pe.pending) else None
        best: PE | None = None
        best_free = 0
        for pe in self.pes:
            free = pe.n_slots - len(pe.pending)
            if free > best_free or (
                free == best_free and free > 0
                and pe.array_free < best.array_free
            ):
                best, best_free = pe, free
        return best

    def _dispatch(self, gen: Generator, task_index: int, pe: PE,
                  now: int) -> None:
        cfg = self.config
        t0 = max(now, self._dispatcher_free)
        self._dispatcher_free = t0 + cfg.dispatch_interval
        task = gen.graph.tasks[task_index]
        gen.mark_dispatched(task_index)
        self._free_slots -= 1

        miss_kind = (
            "gather_load" if task.ttype is TaskType.GATHER else "factor_load"
        )
        transfer = self._tile_transfer_cycles
        done_times: list[int] = []
        for ref in task_input_tiles(task):
            ready = self.cache.load(self._addr(ref), t0, miss_kind)
            done_times.append(pe.reserve_port(ready, transfer))
        # Runnable once the destination tile and the first input pair have
        # arrived; the remaining inputs stream through the FIFO.
        lead = max(done_times[:3])
        item = PendingTask(
            gen_sn=gen.sn,
            task_index=task_index,
            op_ready=lead,
            stream_done=max(done_times),
            latency=task_latency(task, cfg),
            dispatched_at=t0,
        )
        pe.add_pending(item)
        self._schedule_pe_try(pe.index, max(lead, pe.array_free))

    def _pump(self, now: int) -> None:
        cfg = self.config
        # Launch ready supernodes onto free generators.
        while (
            len(self.gens) < self.snsched.max_in_flight
            and self.snsched.has_ready()
        ):
            if now < self._next_activation:
                self._schedule(self._next_activation, "pump", None)
                break
            sn = self.snsched.pop_ready()
            self._activate(sn, now)
            self._next_activation = now + cfg.activation_interval

        # Dispatch, biased toward older (smaller-index) supernodes: each
        # dispatch goes to the oldest generator with a ready task and an
        # eligible PE.  One ascending pass finds the same sequence, since
        # a dispatch never readies an older generator's task, and under
        # intra+inter / intra an older generator skipped for want of a PE
        # means no PE had a slot.  Under inter each generator owns its PE,
        # so a full PE skips only its own generator.
        if self._free_slots == 0:
            return
        for sn in sorted(self.gens):
            gen = self.gens[sn]
            ready = gen.ready_tasks()
            while ready:
                pe = self._pick_pe(gen)
                if pe is None:
                    break
                self._dispatch(gen, ready[0], pe, now)
                if self._free_slots == 0:
                    return
                ready = gen.ready_tasks()

    # -- event handlers -----------------------------------------------------------

    def _on_pe_try(self, pe_index: int, now: int) -> None:
        if self._pe_wake[pe_index] != now:
            return  # superseded by an earlier wakeup
        self._pe_wake[pe_index] = None
        pe = self.pes[pe_index]
        if pe.array_free > now:
            if pe.pending:
                self._schedule_pe_try(pe_index, pe.array_free)
            return
        item = pe.pick_runnable(now)
        if item is None:
            wake = pe.next_wakeup()
            if wake is not None and wake > now:
                self._schedule_pe_try(pe_index, wake)
            return
        task = self.gens[item.gen_sn].graph.tasks[item.task_index]
        end = pe.start_execution(item, now, task.ttype)
        self._free_slots += 1
        if self.trace is not None:
            from repro.arch.trace import TraceEvent

            self.trace.append(TraceEvent(
                pe=pe_index, start=now, end=end, ttype=task.ttype.value,
                sn=item.gen_sn, task_index=item.task_index,
                dispatch=item.dispatched_at, op_ready=item.op_ready,
            ))
        self._schedule(end, "exec_done",
                       (pe_index, item.gen_sn, item.task_index))
        if pe.pending:
            self._schedule_pe_try(pe_index, max(end, pe.next_wakeup()))

    def _on_exec_done(self, payload: tuple, now: int) -> None:
        pe_index, gen_sn, task_index = payload
        pe = self.pes[pe_index]
        gen = self.gens[gen_sn]
        task = gen.graph.tasks[task_index]
        # Write the destination tile back to the cache (write direction).
        port_done = pe.reserve_write_port(now, self._tile_transfer_cycles)
        wb_done = self.cache.store(self._addr(task.dest), port_done)
        self._schedule(wb_done, "task_final",
                       (pe_index, gen_sn, task_index))
        # The array is free: try the next runnable task.
        if pe.pending:
            self._schedule_pe_try(pe_index, now)

    def _on_task_final(self, payload: tuple, now: int) -> None:
        _pe_index, gen_sn, task_index = payload
        gen = self.gens[gen_sn]
        task = gen.graph.tasks[task_index]
        self._machine_flops += task.flops
        self._n_tasks_done += 1
        if self.executor is not None:
            self.executor.execute(task)
        gen.on_complete(task_index)
        if gen.done:
            self._finish_supernode(gen, now)
        self._pump(now)

    # -- main loop --------------------------------------------------------------

    def run(self) -> SimReport:
        """Execute the simulation and return the report."""
        logger.debug(
            "simulating %s: %d supernodes on %d PEs",
            self.matrix_name or "<unnamed>", self.plan.n_supernodes,
            self.config.n_pes,
        )
        with span("sim.run"):
            self._pump(0)
            while self._events:
                cycle, _seq, kind, payload = heapq.heappop(self._events)
                self._now = max(self._now, cycle)
                if kind == "pe_try":
                    self._on_pe_try(payload, cycle)
                elif kind == "exec_done":
                    self._on_exec_done(payload, cycle)
                elif kind == "task_final":
                    self._on_task_final(payload, cycle)
                elif kind == "pump":
                    self._pump(cycle)
                else:
                    raise AssertionError(f"unknown event kind {kind}")
            if not self.snsched.all_done:
                raise AssertionError(
                    "simulation ended with unfinished supernodes "
                    f"({self.snsched.n_completed}/{self.plan.n_supernodes});"
                    " scheduler deadlock"
                )
            end = self.cache.flush_results(self._now, self._is_result_addr)
            end = max(end, self.hbm.drain_cycle(), self._now)
            self._last_cycle = int(end)
            report = self._report()
        logger.info("simulated %s", report.summary())
        return report

    def _export_metrics(self, registry: MetricsRegistry) -> None:
        """Fold every component's raw counters into the registry.

        Runs exactly once, at end of run — the hierarchical names here
        (``sim.*``, ``pe.*``, ``noc.*``, ``cache.*``, ``hbm.*``,
        ``scheduler.*``, ``generator.*``) are the registry namespace
        documented in docs/OBSERVABILITY.md.
        """
        registry.gauge("sim.cycles").set(self._last_cycle)
        registry.gauge("sim.n").set(self.plan.symbolic.n)
        registry.counter("sim.tasks").inc(self._n_tasks_done)
        registry.counter("sim.supernodes").inc(self.plan.n_supernodes)
        registry.counter("sim.machine_flops").inc(self._machine_flops)
        registry.counter("sim.algorithmic_flops").inc(
            self.plan.symbolic.flops
        )
        registry.gauge("sim.peak_live_front_bytes").set(
            self.peak_live_front_bytes
        )

        busy: dict[TaskType, int] = {t: 0 for t in TaskType}
        port_stalls = wport_stalls = 0
        port_busy = wport_busy = 0
        for pe in self.pes:
            registry.counter(f"pe.{pe.index}.busy_cycles").inc(
                pe.busy_total
            )
            registry.counter(f"pe.{pe.index}.port_stall_cycles").inc(
                pe.port.stall_cycles
            )
            registry.counter(f"pe.{pe.index}.wport_stall_cycles").inc(
                pe.wport.stall_cycles
            )
            for ttype, cycles in pe.busy_by_type.items():
                busy[ttype] += cycles
            port_stalls += pe.port.stall_cycles
            wport_stalls += pe.wport.stall_cycles
            port_busy += pe.port.busy_cycles
            wport_busy += pe.wport.busy_cycles
        for ttype, cycles in busy.items():
            registry.counter(f"pe.busy_cycles.{ttype.value}").inc(cycles)
        registry.counter("noc.port.stall_cycles").inc(port_stalls)
        registry.counter("noc.port.busy_cycles").inc(port_busy)
        registry.counter("noc.wport.stall_cycles").inc(wport_stalls)
        registry.counter("noc.wport.busy_cycles").inc(wport_busy)

        self.cache.stats.export_metrics(registry)
        self.hbm.export_metrics(registry)
        self.snsched.export_metrics(registry)
        gen_hist = registry.histogram("generator.peak_outstanding_tasks")
        for peak in self._gen_peak_outstanding:
            gen_hist.observe(peak)

    def attribution(self) -> dict:
        """Performance attribution for this finished run (schema-v2
        ``RunArtifact.attribution``): per-PE cycle accounting, what-if
        estimates, the critical path, and the utilization timeline.

        Requires ``trace=True`` — the decomposition walks the executed
        timeline's gaps (see :mod:`repro.obs.attribution`).
        """
        from repro.arch.trace import utilization_timeline
        from repro.obs.attribution import attribute_cycles, critical_path

        if self.trace is None:
            raise ValueError(
                "attribution needs the execution trace; construct the sim "
                "with trace=True"
            )
        accounting = attribute_cycles(
            self.trace, self._last_cycle, self.config.n_pes,
            self._sn_intervals, self.metrics,
        )
        path = critical_path(self.trace, self.plan,
                             order=self.config.order,
                             graph_deps=self._sn_deps)
        return {
            "cycles": accounting.to_dict(),
            "critical_path": path.to_dict(),
            "utilization_timeline": [
                round(float(u), 4)
                for u in utilization_timeline(self.trace,
                                              self.config.n_pes)
            ],
        }

    def _report(self) -> SimReport:
        self._export_metrics(self.metrics)
        return SimReport.from_registry(
            self.metrics,
            config=self.config,
            matrix_name=self.matrix_name,
            kind=self.plan.kind,
            sn_intervals=list(self._sn_intervals),
        )


def simulate(
    matrix,
    kind: str = "cholesky",
    config: SpatulaConfig | None = None,
    ordering: str = "amd",
    matrix_name: str = "",
    symbolic=None,
    plan: FactorizationPlan | None = None,
    check_numerics: bool = False,
    metrics: MetricsRegistry | None = None,
) -> SimReport:
    """Convenience one-call simulation of factoring ``matrix`` on Spatula.

    Args:
        matrix: a :class:`repro.sparse.CSCMatrix` (ignored if ``plan`` is
            given).
        kind: "cholesky" or "lu".
        config: hardware configuration (paper config by default).
        ordering: fill-reducing ordering for the symbolic phase.
        matrix_name: label stamped into the report.
        symbolic: reuse an existing symbolic factorization.
        plan: reuse an existing tiled plan (fastest path for sweeps).
        check_numerics: execute every task's numeric kernel during the
            simulation and assert the computed factor reconstructs the
            matrix (slower; a deep end-to-end check of the scheduler).
        metrics: registry to collect component counters into (see
            :class:`SpatulaSim`).
    """
    from repro.symbolic.analyze import symbolic_factorize
    from repro.tasks.plan import build_plan

    config = config or SpatulaConfig.paper()
    if plan is None:
        if symbolic is None:
            symbolic = symbolic_factorize(matrix, kind=kind,
                                          ordering=ordering)
        plan = build_plan(symbolic, tile=config.tile,
                          supertile=config.supertile)
    executor = None
    if check_numerics:
        from repro.arch.functional import TileExecutor

        executor = TileExecutor(plan, matrix)
    report = SpatulaSim(plan, config, matrix_name=matrix_name,
                        executor=executor, metrics=metrics).run()
    if executor is not None:
        executor.verify()
    return report
