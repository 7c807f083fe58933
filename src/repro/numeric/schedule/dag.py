"""Serial and barrier-free DAG execution of the numeric phase.

With one worker the supernodes run inline in ascending index order (a
valid bottom-up traversal).  With more, each supernode carries a
dependence count (its number of etree children); completion of a child
decrements the parent's count, and the parent is submitted to the
thread pool the moment the count hits zero.  This is the CKTSO-style
pipelined task-graph numeric phase: a slow supernode only delays its
own ancestors, never unrelated subtrees.

Bit-identity is preserved because the *result* of each supernode task
is order-independent (children extend-added in fixed ascending order
inside ``SupernodeJob.compute``); only the execution interleaving
changes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs.spans import get_tracer

from .base import ScheduleStats, SupernodeJob, WorkerLanes


def run_dag(job: SupernodeJob, workers: int) -> ScheduleStats:
    """Run every supernode of ``job``: inline for ``workers <= 1``,
    dataflow-style on a ``workers``-thread pool otherwise."""
    total = job.n_supernodes
    stats = ScheduleStats(workers)
    t_start = time.perf_counter()

    if workers <= 1 or total <= 1:
        # Ascending index order is a valid bottom-up traversal
        # (children are always numbered before their parents).
        for i in range(total):
            job.compute(i)
        stats.inline_tasks = total
        stats.wall_s = time.perf_counter() - t_start
        return stats

    deps = [len(job.supernodes[i].children) for i in range(total)]

    cond = threading.Condition()
    state = {"submitted": 0, "finished": 0, "error": None, "ready": 0}
    ready_at: dict[int, float] = {}
    lanes = WorkerLanes()
    tracer = get_tracer()
    traced = tracer.listening

    def submit(pool: ThreadPoolExecutor, i: int, now: float) -> None:
        # Caller holds ``cond``.
        ready_at[i] = now
        state["submitted"] += 1
        state["ready"] += 1
        stats.ready_depth.append(state["ready"])
        pool.submit(run_task, pool, i)

    def run_task(pool: ThreadPoolExecutor, i: int) -> None:
        t0 = time.perf_counter()
        with cond:
            state["ready"] -= 1
            if state["error"] is not None:
                # Drain without computing once a task has failed.
                state["finished"] += 1
                cond.notify()
                return
        stats.dispatch_latency_s.append(t0 - ready_at[i])
        try:
            if traced:
                with tracer.task_span("numeric.supernode", sn=i):
                    job.compute(i)
            else:
                job.compute(i)
        except BaseException as exc:  # noqa: BLE001 - repropagated below
            with cond:
                if state["error"] is None:
                    state["error"] = exc
                state["finished"] += 1
                cond.notify()
            return
        t1 = time.perf_counter()
        lanes.record(t1 - t0)
        with cond:
            parent = int(job.sn_parent[i])
            if parent >= 0 and state["error"] is None:
                deps[parent] -= 1
                if deps[parent] == 0:
                    submit(pool, parent, t1)
            state["finished"] += 1
            cond.notify()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        with cond:
            now = time.perf_counter()
            for i in range(total):
                if deps[i] == 0:
                    submit(pool, i, now)
            # Done when nothing is in flight and either everything ran
            # or an error stopped further submissions.
            while not (
                state["finished"] == state["submitted"]
                and (state["error"] is not None or state["finished"] == total)
            ):
                cond.wait()
    if state["error"] is not None:
        raise state["error"]

    stats.dispatched = total
    stats.worker_busy_s = lanes.busy()
    stats.worker_tasks = lanes.tasks()
    stats.wall_s = time.perf_counter() - t_start
    return stats
