"""Cycle accounting and critical-path analysis (the "why is it slow" layer).

The simulator's counters say *what* happened (misses, stall cycles,
traffic); this module says *where the time went* and *what fixing each
limiter would buy* — the top-down attribution story behind the paper's
evaluation (Section 7, Figures 16-19).

Cycle accounting
----------------
:func:`attribute_cycles` decomposes every PE's ``sim.cycles`` into seven
disjoint buckets:

* ``compute``         — the array is executing a task;
* ``cache_stall``     — exposed operand wait apportioned to the cache
                        (MSHR occupancy + bank-port conflicts);
* ``noc_stall``       — exposed operand wait apportioned to crossbar-port
                        contention;
* ``hbm_wait``        — exposed operand wait apportioned to HBM channel
                        occupancy;
* ``dependency_wait`` — the PE is idle with no dispatched work while at
                        least one supernode is in flight (tasks exist but
                        their dependences are unresolved);
* ``scheduler_idle``  — the PE is idle and *no* supernode is in flight
                        (tree-level serialization / activation throttling);
* ``load_imbalance``  — the tail after the PE's last task retires, while
                        the rest of the machine finishes.

The decomposition is *conservative and complete*: all arithmetic is
integer, every idle cycle lands in exactly one bucket, and per-PE bucket
sums equal ``sim.cycles`` exactly (checked by
:meth:`CycleAttribution.check_conservation`, asserted in tests).

The split of exposed operand wait across cache/NoC/HBM uses the
components' own stall counters as proportions (``cache.mshr_stall_cycles``
+ ``cache.bank_wait_cycles`` vs ``noc.*.stall_cycles`` vs
``hbm.channel_wait_cycles``); when all three are zero the wait is the
baseline transfer pipeline and is charged to ``cache_stall``.

What-if estimates are first-order: "removing bucket B saves its mean
per-PE cycles" — a useful ranking of limiters, not a re-simulation (the
test suite validates the infinite-HBM prediction against actual sims with
``hbm_gbs_per_phy`` effectively infinite; see docs/OBSERVABILITY.md for
caveats).

Critical path
-------------
:func:`critical_path` joins the executed :class:`~repro.arch.trace
.TraceEvent` timeline with the task-graph dependence structure and
extracts the longest duration-weighted dependence chain.  Because every
successor starts at or after its dependences end, the chain's summed
duration *lower-bounds* the observed makespan (``cp_cycles <=
sim.cycles``, asserted in tests).  Each inter-task gap on the path is
split into dependency/scheduling wait (before the successor's dispatch)
and resource wait (dispatch to execution start).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

#: Bucket names, in the order render() and the HTML report display them.
BUCKETS = (
    "compute",
    "cache_stall",
    "noc_stall",
    "hbm_wait",
    "dependency_wait",
    "scheduler_idle",
    "load_imbalance",
)


class _Coverage:
    """Integer-interval coverage queries over merged [start, end) spans."""

    def __init__(self, intervals: list[tuple[int, int]]) -> None:
        merged: list[list[int]] = []
        for start, end in sorted(intervals):
            if end <= start:
                continue
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self._starts = [m[0] for m in merged]
        self._ends = [m[1] for m in merged]
        self._prefix = [0]
        for start, end in merged:
            self._prefix.append(self._prefix[-1] + (end - start))

    def covered(self, a: int, b: int) -> int:
        """Cycles of [a, b) lying inside any interval."""
        if b <= a or not self._starts:
            return 0
        lo = bisect.bisect_right(self._ends, a)
        hi = bisect.bisect_left(self._starts, b)
        total = 0
        for i in range(lo, hi):
            total += min(b, self._ends[i]) - max(a, self._starts[i])
        return total


@dataclass
class CycleAttribution:
    """Per-PE cycle-bucket decomposition of one simulation run."""

    total_cycles: int
    n_pes: int
    per_pe: list[dict[str, int]]
    compute_by_type: dict[str, int] = field(default_factory=dict)
    what_if: dict[str, int] = field(default_factory=dict)

    # -- aggregate views ----------------------------------------------------

    def totals(self) -> dict[str, int]:
        """Machine-wide bucket sums (in PE-cycles)."""
        out = {b: 0 for b in BUCKETS}
        for buckets in self.per_pe:
            for b in BUCKETS:
                out[b] += buckets.get(b, 0)
        return out

    def fractions(self) -> dict[str, float]:
        """Bucket fractions of total PE-cycles (sums to 1.0)."""
        denom = self.total_cycles * self.n_pes or 1
        return {b: v / denom for b, v in self.totals().items()}

    def check_conservation(self) -> None:
        """Raise AssertionError unless every PE's buckets sum exactly to
        ``total_cycles`` — the accounting's correctness invariant."""
        for pe, buckets in enumerate(self.per_pe):
            got = sum(buckets.values())
            if got != self.total_cycles:
                raise AssertionError(
                    f"PE {pe}: buckets sum to {got}, not "
                    f"{self.total_cycles}"
                )

    def tree(self) -> dict:
        """Top-down attribution tree (PE-cycles at every node).

        ``sim.cycles`` -> {compute by task type} | {memory stalls by
        component} | {idle by cause}.
        """
        totals = self.totals()
        compute_children = [
            {"name": ttype, "cycles": cycles}
            for ttype, cycles in sorted(self.compute_by_type.items(),
                                        key=lambda kv: -kv[1])
            if cycles > 0
        ]
        memory = {
            "name": "memory_stall",
            "cycles": (totals["cache_stall"] + totals["noc_stall"]
                       + totals["hbm_wait"]),
            "children": [
                {"name": b, "cycles": totals[b]}
                for b in ("cache_stall", "noc_stall", "hbm_wait")
            ],
        }
        idle = {
            "name": "idle",
            "cycles": (totals["dependency_wait"] + totals["scheduler_idle"]
                       + totals["load_imbalance"]),
            "children": [
                {"name": b, "cycles": totals[b]}
                for b in ("dependency_wait", "scheduler_idle",
                          "load_imbalance")
            ],
        }
        return {
            "name": "sim.cycles",
            "cycles": self.total_cycles * self.n_pes,
            "children": [
                {"name": "compute", "cycles": totals["compute"],
                 "children": compute_children},
                memory,
                idle,
            ],
        }

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "n_pes": self.n_pes,
            "per_pe": [dict(b) for b in self.per_pe],
            "compute_by_type": dict(self.compute_by_type),
            "what_if": dict(self.what_if),
            "tree": self.tree(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CycleAttribution":
        return cls(
            total_cycles=data["total_cycles"],
            n_pes=data["n_pes"],
            per_pe=[{k: int(v) for k, v in b.items()}
                    for b in data["per_pe"]],
            compute_by_type={k: int(v) for k, v in
                             data.get("compute_by_type", {}).items()},
            what_if={k: int(v) for k, v in
                     data.get("what_if", {}).items()},
        )

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """ASCII top-down attribution tree with percentages."""
        denom = self.total_cycles * self.n_pes or 1
        lines = [f"cycle attribution over {self.total_cycles} cycles x "
                 f"{self.n_pes} PEs"]

        def walk(node: dict, depth: int) -> None:
            pct = 100.0 * node["cycles"] / denom
            lines.append(f"{'  ' * depth}{node['name']:<24}"
                         f"{node['cycles']:>14}  {pct:>5.1f}%")
            for child in node.get("children", []):
                walk(child, depth + 1)

        walk(self.tree(), 0)
        if self.what_if:
            lines.append("what-if (first-order estimates):")
            for name, cycles in sorted(self.what_if.items()):
                delta = 100.0 * (cycles - self.total_cycles) \
                    / (self.total_cycles or 1)
                lines.append(f"  {name:<28}~{cycles:>12} cycles "
                             f"({delta:+.1f}% vs actual)")
        return "\n".join(lines)


def _split_memory_wait(wait: int, cache_w: int, noc_w: int,
                       hbm_w: int) -> tuple[int, int, int]:
    """Apportion one PE's exposed operand wait across the memory system.

    Integer-exact: the three parts always sum to ``wait``.  With no stall
    evidence at all, the wait is the baseline cache-pipeline transfer time
    and is charged entirely to the cache.
    """
    total = cache_w + noc_w + hbm_w
    if wait <= 0:
        return 0, 0, 0
    if total == 0:
        return wait, 0, 0
    cache = wait * cache_w // total
    noc = wait * noc_w // total
    hbm = wait - cache - noc
    return cache, noc, hbm


def attribute_cycles(
    events: list,
    total_cycles: int,
    n_pes: int,
    sn_intervals: list[tuple[int, int]],
    registry,
) -> CycleAttribution:
    """Decompose a run's cycles into the :data:`BUCKETS` per PE.

    Args:
        events: executed :class:`~repro.arch.trace.TraceEvent` records
            (``SpatulaSim(..., trace=True)``).
        total_cycles: the run's ``sim.cycles``.
        n_pes: number of PEs in the configuration.
        sn_intervals: (start, end) in-flight interval of every supernode —
            distinguishes dependency wait (some supernode active) from
            scheduler idle (none active).
        registry: the run's :class:`~repro.obs.MetricsRegistry`; supplies
            the component stall counters used to apportion operand wait.
    """
    coverage = _Coverage(list(sn_intervals))
    cache_w = int(registry.value("cache.mshr_stall_cycles")
                  + registry.value("cache.bank_wait_cycles"))
    noc_w = int(registry.value("noc.port.stall_cycles")
                + registry.value("noc.wport.stall_cycles"))
    hbm_w = int(registry.value("hbm.channel_wait_cycles"))

    by_pe: list[list] = [[] for _ in range(n_pes)]
    for e in events:
        by_pe[e.pe].append(e)
    compute_by_type: dict[str, int] = {}

    per_pe: list[dict[str, int]] = []
    for pe_events in by_pe:
        pe_events.sort(key=lambda e: (e.start, e.end))
        buckets = {b: 0 for b in BUCKETS}
        operand_wait = 0
        prev_end = 0
        for e in pe_events:
            gap_start, gap_end = prev_end, e.start
            if gap_end > gap_start:
                # The gap splits at the next task's dispatch and operand
                # arrival: [gap_start, dispatch) nothing was in the slot;
                # [dispatch, op_ready) exposed memory wait; [op_ready,
                # gap_end) event-ordering residue, treated like the
                # pre-dispatch segment.
                d = min(max(e.dispatch, gap_start), gap_end) \
                    if e.dispatch >= 0 else gap_end
                r = min(max(e.op_ready, d), gap_end) \
                    if e.op_ready >= 0 else d
                operand_wait += r - d
                for a, b in ((gap_start, d), (r, gap_end)):
                    if b > a:
                        inflight = coverage.covered(a, b)
                        buckets["dependency_wait"] += inflight
                        buckets["scheduler_idle"] += (b - a) - inflight
            buckets["compute"] += e.end - e.start
            compute_by_type[e.ttype] = (
                compute_by_type.get(e.ttype, 0) + e.end - e.start
            )
            prev_end = e.end
        # The tail after the last retire is the classic imbalance bucket:
        # this PE has run dry while the machine finishes elsewhere.  A PE
        # that never ran anything is pure imbalance too.
        buckets["load_imbalance"] += max(0, total_cycles - prev_end)
        cache, noc, hbm = _split_memory_wait(operand_wait, cache_w,
                                             noc_w, hbm_w)
        buckets["cache_stall"] += cache
        buckets["noc_stall"] += noc
        buckets["hbm_wait"] += hbm
        per_pe.append(buckets)

    attribution = CycleAttribution(
        total_cycles=int(total_cycles),
        n_pes=n_pes,
        per_pe=per_pe,
        compute_by_type=compute_by_type,
    )
    attribution.what_if = _what_if(attribution)
    attribution.check_conservation()
    return attribution


def _what_if(attribution: CycleAttribution) -> dict[str, int]:
    """First-order limiter estimates: removing a bucket saves its mean
    per-PE cycles off the makespan (never below the compute bound)."""
    n = attribution.n_pes or 1
    totals = attribution.totals()
    floor = max((b["compute"] for b in attribution.per_pe), default=0)

    def minus(*names: str) -> int:
        saved = sum(totals[b] for b in names) // n
        return max(floor, attribution.total_cycles - saved)

    return {
        "infinite_hbm_bw_cycles": minus("hbm_wait"),
        "perfect_cache_cycles": minus("cache_stall"),
        "zero_noc_stall_cycles": minus("noc_stall"),
        "perfect_balance_cycles": minus("load_imbalance"),
        "infinite_memory_cycles": minus("cache_stall", "noc_stall",
                                        "hbm_wait"),
    }


# -- critical path -------------------------------------------------------------


@dataclass
class PathStep:
    """One executed task on the critical path, with its leading gap."""

    sn: int
    task_index: int
    ttype: str
    pe: int
    start: int
    end: int
    gap_dependency: int = 0   # pre-dispatch wait since the previous step
    gap_resource: int = 0     # dispatch -> execution-start wait

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "sn": self.sn, "task_index": self.task_index,
            "ttype": self.ttype, "pe": self.pe,
            "start": self.start, "end": self.end,
            "gap_dependency": self.gap_dependency,
            "gap_resource": self.gap_resource,
        }


@dataclass
class CriticalPath:
    """The longest duration-weighted dependence chain of one run."""

    cp_cycles: int
    total_cycles: int
    steps: list[PathStep]

    @property
    def slack_cycles(self) -> int:
        """Observed cycles not explained by the chain's task durations
        (gaps on the path + start-up/drain outside it)."""
        return self.total_cycles - self.cp_cycles

    def by_task_type(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.ttype] = out.get(s.ttype, 0) + s.duration
        return out

    def by_supernode(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.steps:
            out[s.sn] = out.get(s.sn, 0) + s.duration
        return out

    def top_supernodes(self, k: int = 5) -> list[tuple[int, int]]:
        """The k supernodes carrying the most critical-path cycles."""
        return sorted(self.by_supernode().items(),
                      key=lambda kv: -kv[1])[:k]

    def top_task_types(self, k: int = 5) -> list[tuple[str, int]]:
        return sorted(self.by_task_type().items(),
                      key=lambda kv: -kv[1])[:k]

    def gap_breakdown(self) -> dict[str, int]:
        """Total inter-step wait on the path, by cause."""
        return {
            "dependency": sum(s.gap_dependency for s in self.steps),
            "resource": sum(s.gap_resource for s in self.steps),
        }

    def to_dict(self) -> dict:
        return {
            "cp_cycles": self.cp_cycles,
            "total_cycles": self.total_cycles,
            "n_steps": len(self.steps),
            "by_task_type": self.by_task_type(),
            "top_supernodes": [
                {"sn": sn, "cycles": cycles}
                for sn, cycles in self.top_supernodes()
            ],
            "gaps": self.gap_breakdown(),
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CriticalPath":
        return cls(
            cp_cycles=data["cp_cycles"],
            total_cycles=data["total_cycles"],
            steps=[PathStep(
                sn=s["sn"], task_index=s["task_index"], ttype=s["ttype"],
                pe=s["pe"], start=s["start"], end=s["end"],
                gap_dependency=s.get("gap_dependency", 0),
                gap_resource=s.get("gap_resource", 0),
            ) for s in data.get("steps", [])],
        )

    def render(self, max_steps: int = 12) -> str:
        pct = 100.0 * self.cp_cycles / (self.total_cycles or 1)
        lines = [
            f"critical path: {self.cp_cycles} of {self.total_cycles} "
            f"cycles ({pct:.0f}%), {len(self.steps)} tasks",
            "top task types: " + ", ".join(
                f"{t} {c}" for t, c in self.top_task_types()),
            "top supernodes: " + ", ".join(
                f"S{sn} {c}" for sn, c in self.top_supernodes()),
            "path waits: " + ", ".join(
                f"{k} {v}" for k, v in self.gap_breakdown().items()),
        ]
        shown = self.steps[-max_steps:]
        if len(self.steps) > len(shown):
            lines.append(f"  ... {len(self.steps) - len(shown)} earlier "
                         "steps elided ...")
        for s in shown:
            waits = ""
            if s.gap_dependency or s.gap_resource:
                waits = (f"  (+{s.gap_dependency} dep, "
                         f"+{s.gap_resource} res)")
            lines.append(
                f"  S{s.sn:<5}#{s.task_index:<5}{s.ttype:<16}"
                f"[{s.start}, {s.end}) on PE{s.pe}{waits}"
            )
        return "\n".join(lines)


def critical_path(events: list, plan, order: str = "bf",
                  graph_deps: dict[int, list[list[int]]] | None = None
                  ) -> CriticalPath:
    """Extract the longest weighted dependence chain of an executed run.

    Dependences joined per event: the intra-supernode edges of
    ``plan.task_graph(sn)``, plus — for a supernode's entry tasks (no
    intra deps) — the last-retiring event of each child supernode (the
    scheduler launches a supernode only after its children fully factor,
    so the edge is always respected by the executed timeline).
    ``graph_deps[sn]``, when given, is that graph's ``deps`` as the run
    kept it, which spares rebuilding the graph.

    The returned ``cp_cycles`` is a guaranteed lower bound on the
    observed makespan: every successor's start is >= all its
    dependences' ends, so summed durations along any chain fit inside
    the final event's end cycle.
    """
    if not events:
        return CriticalPath(cp_cycles=0, total_cycles=0, steps=[])
    by_key = {(e.sn, e.task_index): e for e in events}
    sns = sorted({e.sn for e in events})
    if graph_deps is None:
        graph_deps = {sn: plan.task_graph(sn, order=order).deps
                      for sn in sns}
    last_of_sn: dict[int, object] = {}
    for e in events:
        last = last_of_sn.get(e.sn)
        if last is None or e.end > last.end:
            last_of_sn[e.sn] = e
    children_of = {
        sn: [c for c in plan.symbolic.tree.supernodes[sn].children
             if c in last_of_sn]
        for sn in sns
    }

    def deps(e) -> list:
        intra = [by_key[(e.sn, d)] for d in graph_deps[e.sn][e.task_index]
                 if (e.sn, d) in by_key]
        if intra:
            return intra
        return [last_of_sn[c] for c in children_of[e.sn]]

    # Dependences always end at or before a successor starts, so ascending
    # start order is a topological order of the executed DAG.
    ordered = sorted(events, key=lambda e: (e.start, e.end, e.pe))
    dp: dict[tuple[int, int], int] = {}
    pred: dict[tuple[int, int], tuple[int, int] | None] = {}
    for e in ordered:
        best, best_key = 0, None
        for d in deps(e):
            key = (d.sn, d.task_index)
            if dp[key] > best:
                best, best_key = dp[key], key
        dp[(e.sn, e.task_index)] = best + e.duration
        pred[(e.sn, e.task_index)] = best_key

    tail_key = max(dp, key=lambda k: dp[k])
    chain: list = []
    key: tuple[int, int] | None = tail_key
    while key is not None:
        chain.append(by_key[key])
        key = pred[key]
    chain.reverse()

    steps: list[PathStep] = []
    prev_end = None
    for e in chain:
        gap_dep = gap_res = 0
        if prev_end is not None and e.start > prev_end:
            gap = e.start - prev_end
            if e.dispatch >= 0:
                gap_dep = min(max(e.dispatch - prev_end, 0), gap)
            gap_res = gap - gap_dep
        steps.append(PathStep(
            sn=e.sn, task_index=e.task_index, ttype=e.ttype, pe=e.pe,
            start=e.start, end=e.end,
            gap_dependency=gap_dep, gap_resource=gap_res,
        ))
        prev_end = e.end
    total = max(e.end for e in events)
    return CriticalPath(cp_cycles=dp[tail_key], total_cycles=total,
                        steps=steps)
