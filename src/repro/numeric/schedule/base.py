"""The job and stats model of the numeric phase.

A :class:`SupernodeJob` describes one numeric factorization as
per-supernode tasks — assembly of a frontal matrix from A's entries
plus the children's update matrices, a blocked partial factorization,
and storage of the resulting factor block(s).  The dispatcher
(:mod:`repro.numeric.schedule.dag`) decides *when and on which thread*
each supernode runs.

The stored factor is bitwise equal for every worker count, because each
supernode's computation is a pure function of its assembled front
(children extend-added in fixed ascending order) and the blocked
kernels are deterministic.

The dispatcher returns a :class:`ScheduleStats` — the evidence record
the attribution layer turns into idle / load-imbalance numbers
(ready-queue depth, dispatch latency, per-worker busy/idle seconds).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Longest ready-depth / latency series kept verbatim in attribution
#: output; longer series are decimated (aggregates are exact regardless).
MAX_SERIES = 256


class WorkerLanes:
    """Per-worker-thread busy/task accounting.

    Each executing thread accumulates into its own lane (keyed by thread
    identity); ``dict.setdefault`` and per-lane list mutation are
    GIL-atomic enough for the accounting here (each lane is only ever
    written by its own thread).
    """

    def __init__(self) -> None:
        self._lanes: dict[int, list[float]] = {}

    def record(self, seconds: float) -> None:
        lane = self._lanes.setdefault(threading.get_ident(), [0.0, 0.0])
        lane[0] += seconds
        lane[1] += 1.0

    def busy(self) -> list[float]:
        return [lane[0] for lane in self._lanes.values()]

    def tasks(self) -> list[int]:
        return [int(lane[1]) for lane in self._lanes.values()]


def _decimate(series: list, limit: int = MAX_SERIES) -> list:
    if len(series) <= limit:
        return list(series)
    idx = np.linspace(0, len(series) - 1, limit).astype(int)
    return [series[i] for i in idx]


@dataclass
class ScheduleStats:
    """What one numeric-phase run looked like, for attribution and metrics.

    Attributes:
        workers: requested worker count (1 = the serial loop).
        wall_s: wall-clock from dispatch through the last completion.
        dispatched: tasks executed on pool worker threads.
        inline_tasks: tasks run inline on the calling thread.
        worker_busy_s: per-worker-thread busy seconds (the inline lane
            is not included).
        worker_tasks: per-worker-thread task counts.
        ready_depth: ready-queue depth sampled at each dispatch.
        dispatch_latency_s: per-task ready-to-running latency samples.
    """

    workers: int
    wall_s: float = 0.0
    dispatched: int = 0
    inline_tasks: int = 0
    worker_busy_s: list[float] = field(default_factory=list)
    worker_tasks: list[int] = field(default_factory=list)
    ready_depth: list[int] = field(default_factory=list)
    dispatch_latency_s: list[float] = field(default_factory=list)

    def worker_idle_s(self) -> list[float]:
        """Per-worker idle seconds (wall minus busy, floored at 0)."""
        return [max(0.0, self.wall_s - b) for b in self.worker_busy_s]

    def idle_seconds(self) -> float:
        """Total idle seconds across worker lanes."""
        return float(sum(self.worker_idle_s()))

    def task_imbalance(self) -> float:
        """Max-over-mean deviation of per-worker task counts (0 = even)."""
        if not self.worker_tasks:
            return 0.0
        mean = sum(self.worker_tasks) / len(self.worker_tasks)
        if mean <= 0.0:
            return 0.0
        return max(self.worker_tasks) / mean - 1.0

    def summary(self) -> dict:
        """The attribution-ready dict view of this run."""
        depth = np.asarray(self.ready_depth, dtype=float)
        lat = np.asarray(self.dispatch_latency_s, dtype=float)
        return {
            "workers": self.workers,
            "wall_s": self.wall_s,
            "dispatched": self.dispatched,
            "inline_tasks": self.inline_tasks,
            "worker_busy_s": list(self.worker_busy_s),
            "worker_idle_s": self.worker_idle_s(),
            "worker_tasks": list(self.worker_tasks),
            "idle_s": self.idle_seconds(),
            "task_imbalance": self.task_imbalance(),
            "ready_depth": {
                "mean": float(depth.mean()) if depth.size else 0.0,
                "max": int(depth.max()) if depth.size else 0,
                "series": _decimate(self.ready_depth),
            },
            "dispatch_latency_ms": {
                "mean": float(lat.mean() * 1e3) if lat.size else 0.0,
                "max": float(lat.max() * 1e3) if lat.size else 0.0,
            },
        }


class SupernodeJob:
    """One numeric factorization as schedulable per-supernode tasks.

    Owns the state previously closured inside ``multifrontal_cholesky``
    / ``multifrontal_lu``: the pattern-cached numeric context, the
    permuted input values, the in-flight update matrices, and the
    per-supernode outputs.  :meth:`compute` is the task body the
    dispatcher runs; it is safe to call concurrently for *independent*
    supernodes (each task writes only its own slots and consumes only
    its children's — all of which completed first).

    Subclasses implement the kind-specific ``_factor`` step.
    """

    def __init__(self, ctx, permuted_data: np.ndarray, block: int) -> None:
        symbolic = ctx.symbolic
        tree = symbolic.tree
        self.ctx = ctx
        self.symbolic = symbolic
        self.supernodes = tree.supernodes
        self.child_maps = tree.child_maps
        self.n_supernodes = tree.n_supernodes
        self.sn_parent = ctx.sn_parent
        self.permuted_data = permuted_data
        self.block = block
        self.updates: list[np.ndarray | None] = [None] * self.n_supernodes
        #: Per-supernode wall-clock seconds (disjoint slots, no locking).
        self.busy = np.zeros(self.n_supernodes)

    def compute(self, i: int) -> None:
        """Assemble, extend-add, factor, and store supernode ``i``."""
        t0 = time.perf_counter()
        sn = self.supernodes[i]
        size = sn.front_size
        values = np.zeros((size, size))
        values.flat[self.ctx.flat_pos[i]] = \
            self.permuted_data[self.ctx.data_idx[i]]
        # Extend-add children in fixed (ascending) order so the result
        # does not depend on which worker computed each child.
        for child in sn.children:
            pos = self.child_maps[child]
            if pos is None:
                continue
            child_update = self.updates[child]
            self.updates[child] = None
            values[pos[:, None], pos] += child_update
        self._factor(i, sn, values)
        if sn.parent >= 0 and sn.n_update_rows > 0:
            self.updates[i] = values[sn.n_cols:, sn.n_cols:].copy()
        self.busy[i] = time.perf_counter() - t0

    def check_consumed(self) -> None:
        """Every update matrix must have been extend-added exactly once."""
        if any(u is not None for u in self.updates):
            raise AssertionError("unconsumed update matrices remain")

    # -- kind-specific --------------------------------------------------------

    def _factor(self, i: int, sn, values: np.ndarray) -> None:
        raise NotImplementedError
