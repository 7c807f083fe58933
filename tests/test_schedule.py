"""Tests for the numeric-phase dispatcher (:mod:`repro.numeric.schedule`).

Covers level-set edge cases (empty forest, chains, stars, multi-root
forests), bit-identity of the DAG dispatcher against the serial loop
across the verify fuzz-suite generator families at several worker
counts, DAG dependence ordering and error handling, per-process
attribution, and the ``numeric.sched.*`` metrics surface.
"""

import threading
import time

import numpy as np
import pytest

from repro.numeric import SparseSolver, multifrontal_cholesky
from repro.numeric.engine import (
    last_factor_attribution,
    merge_factor_attributions,
)
from repro.numeric.schedule import run_dag
from repro.obs.metrics import global_registry
from repro.symbolic.analyze import symbolic_factorize
from repro.symbolic.etree import etree_level_sets
from repro.verify.generators import build_case, family_names


def _children_of(sn_parent):
    children = [[] for _ in range(len(sn_parent))]
    for i, p in enumerate(sn_parent):
        if int(p) >= 0:
            children[int(p)].append(i)
    return children


# -- etree level-set edge cases ------------------------------------------------


def test_level_sets_empty():
    assert etree_level_sets(np.empty(0, dtype=np.int64)) == []


def test_level_sets_single_chain():
    n = 9
    parent = np.arange(1, n + 1, dtype=np.int64)
    parent[-1] = -1
    levels = etree_level_sets(parent)
    assert len(levels) == n
    assert all(len(level) == 1 for level in levels)
    assert [int(level[0]) for level in levels] == list(range(n))


def test_level_sets_star():
    n = 12
    parent = np.full(n, n - 1, dtype=np.int64)
    parent[-1] = -1
    levels = etree_level_sets(parent)
    assert len(levels) == 2
    assert list(levels[0]) == list(range(n - 1))
    assert list(levels[1]) == [n - 1]


def test_level_sets_multi_root_forest():
    # Two stars: {0,1}->2 and {3,4}->5.
    parent = np.array([2, 2, -1, 5, 5, -1], dtype=np.int64)
    levels = etree_level_sets(parent)
    assert len(levels) == 2
    assert list(levels[0]) == [0, 1, 3, 4]
    assert list(levels[1]) == [2, 5]


# -- bit-identity across worker counts ----------------------------------------


def _factor_bits(matrix, kind, workers):
    solver = SparseSolver(matrix, kind=kind, workers=workers)
    lower, upper = solver.factor_csc()
    parts = [lower.indptr, lower.indices, lower.data]
    if upper is not None:
        parts += [upper.indptr, upper.indices, upper.data]
    return parts


@pytest.mark.parametrize("family", [
    f for f in family_names() if not f.startswith("struct_singular")
])
def test_bit_identity_fuzz_families(family):
    """Factors at workers 1/2/4 (serial loop, DAG dispatcher) are
    bitwise equal on every non-singular fuzz-suite generator family
    (Cholesky and LU)."""
    for seed in (3, 11):
        case = build_case(family, seed, max_n=36)
        assert case.expect == "ok"
        ref = _factor_bits(case.matrix, case.kind, workers=1)
        for workers in (1, 2, 4):
            got = _factor_bits(case.matrix, case.kind, workers)
            assert len(ref) == len(got)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b), \
                    f"factor differs for {family}@{seed} w{workers}"


# -- DAG dispatcher on synthetic trees -----------------------------------------


class _FakeSupernode:
    def __init__(self, children):
        self.children = children


class _FakeJob:
    """Minimal SupernodeJob stand-in recording completion order."""

    def __init__(self, sn_parent, fail_at=None, sleep_s=0.0):
        self.sn_parent = np.asarray(sn_parent, dtype=np.int64)
        self.n_supernodes = len(self.sn_parent)
        self.supernodes = [
            _FakeSupernode(children)
            for children in _children_of(self.sn_parent)
        ]
        self.fail_at = fail_at
        self.sleep_s = sleep_s
        self.order = []
        self._lock = threading.Lock()

    def compute(self, i):
        if i == self.fail_at:
            raise RuntimeError(f"task {i} failed")
        if self.sleep_s:
            time.sleep(self.sleep_s)
        with self._lock:
            self.order.append(int(i))


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(n - 1):
        parent[i] = int(rng.integers(i + 1, n))
    return parent


def test_dag_respects_dependencies():
    parent = _random_tree(60, seed=42)
    job = _FakeJob(parent, sleep_s=0.001)
    stats = run_dag(job, workers=4)
    assert sorted(job.order) == list(range(60))
    position = {node: k for k, node in enumerate(job.order)}
    for i in range(60):
        p = int(parent[i])
        if p >= 0:
            assert position[i] < position[p], \
                f"node {i} must finish before its parent {p}"
    assert stats.dispatched == 60
    assert sum(stats.worker_tasks) == 60
    assert len(stats.ready_depth) == 60


def test_dag_inline_path_is_ascending():
    job = _FakeJob(_random_tree(20, seed=7))
    stats = run_dag(job, workers=1)
    assert job.order == list(range(20))
    assert stats.inline_tasks == 20
    assert stats.dispatched == 0


def test_dag_error_propagates_without_hanging():
    parent = _random_tree(40, seed=3)
    job = _FakeJob(parent, fail_at=5, sleep_s=0.001)
    with pytest.raises(RuntimeError, match="task 5 failed"):
        run_dag(job, workers=4)


def test_dag_failure_propagates_promptly():
    """A failing task stops the run without computing the rest.  24
    sleeping leaves at 0.3 s over 4 workers take >= 1.8 s to run in
    full; after the failure, queued tasks drain without computing, so
    only the handful already running are waited out."""
    n = 25
    parent = np.full(n, n - 1, dtype=np.int64)
    parent[-1] = -1
    job = _FakeJob(parent, fail_at=0, sleep_s=0.3)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="task 0 failed"):
        run_dag(job, workers=4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.2, f"failure took {elapsed:.2f}s to surface"


# -- process attribution -------------------------------------------------------


def test_procs_workers_return_attribution_views(tmp_path, capsys):
    """``solve --procs`` workers hand every factorization's attribution
    view back in their results; the parent merges them into the
    artifact, with or without a telemetry run."""
    import json

    from repro.cli import main

    art = tmp_path / "run.json"
    assert main(["solve", "suite:bmwcra_1@0.3", "--procs", "2",
                 "--repeat", "2", "--metrics", str(art)]) == 0
    capsys.readouterr()
    attribution = json.loads(art.read_text())["attribution"]
    assert "numeric" not in attribution      # the parent factored nothing
    merged = attribution["numeric_processes"]
    assert merged["n_processes"] == 2
    # one cold factorization + --repeat refactorizations per worker
    assert merged["factorizations"] == 2 * 3
    views = merged["processes"]
    assert {v["role"] for v in views} == {"worker"}
    assert len({v["pid"] for v in views}) == 2
    assert merged["seconds"] == pytest.approx(
        sum(v["seconds"] for v in views))
    assert merged["seconds"] > 0.0


def test_merge_factor_attributions_sums_views():
    views = [
        {"pid": 1, "role": "main", "seconds": 0.5, "busy_seconds": 0.25,
         "parallel_tasks": 3},
        {"pid": 1, "role": "main", "seconds": 0.25, "busy_seconds": 0.25,
         "parallel_tasks": 1},
        {"pid": 2, "role": "worker", "seconds": 1.0, "busy_seconds": 0.5,
         "parallel_tasks": 0},
    ]
    merged = merge_factor_attributions(views)
    assert merged["processes"] is views
    assert merged["n_processes"] == 2
    assert merged["factorizations"] == 3
    assert merged["seconds"] == pytest.approx(1.75)
    assert merged["busy_seconds"] == pytest.approx(1.0)
    assert merged["parallel_tasks"] == 4


def test_main_role_attribution_has_schedule_evidence(spd_medium):
    symbolic = symbolic_factorize(spd_medium)
    multifrontal_cholesky(spd_medium, symbolic, workers=2)
    att = last_factor_attribution()
    assert att is not None
    sched = att["schedule"]
    assert sched["workers"] == 2
    assert sched["dispatched"] > 0
    assert sched["ready_depth"]["max"] >= 1
    assert len(sched["ready_depth"]["series"]) == sched["dispatched"]
    assert sched["dispatch_latency_ms"]["mean"] >= 0.0
    assert len(sched["worker_busy_s"]) == len(sched["worker_idle_s"])


# -- dispatch metrics surface --------------------------------------------------


def test_sched_metrics_exported(spd_medium):
    symbolic = symbolic_factorize(spd_medium)
    multifrontal_cholesky(spd_medium, symbolic, workers=2)
    snap = global_registry().snapshot()
    for name in (
        "numeric.sched.ready_depth.mean",
        "numeric.sched.ready_depth.max",
        "numeric.sched.dispatch_latency_ms.mean",
        "numeric.sched.dispatch_latency_ms.max",
        "numeric.sched.idle_s",
        "numeric.sched.worker_tasks.imbalance",
    ):
        assert name in snap


def test_sched_metrics_watched():
    from repro.obs.artifact import WATCHED_METRICS

    for name, direction in [
        ("numeric.sched.idle_s", "lower"),
        ("numeric.sched.dispatch_latency_ms.mean", "lower"),
        ("numeric.sched.ready_depth.mean", "higher"),
        ("numeric.sched.worker_tasks.imbalance", "lower"),
        ("numeric.speedup.dag", "higher"),
    ]:
        assert WATCHED_METRICS[name] == direction
