"""Multifrontal execution engine: pattern-cached contexts + metrics.

This module is the machinery shared by :func:`multifrontal_cholesky` and
:func:`multifrontal_lu`:

* **Pattern-cached numeric context** (:class:`NumericContext`): for a fixed
  symbolic analysis, the permutation of A's values into the permuted matrix
  and the scatter of those values into every supernode's frontal matrix are
  pure functions of the nonzero pattern.  They are resolved *once* into
  flat index maps and cached on the symbolic object, so each numeric
  (re)factorization assembles every front with two fancy-indexing
  operations instead of per-entry Python loops — the amortized-analysis
  serving pattern of CKTSO-style circuit simulation.

* **Traversal**: :mod:`repro.numeric.schedule` runs the supernode
  tasks — serially, or on a thread-pool DAG dispatcher for
  ``workers > 1`` — bit-identical for every worker count.

* **Metrics export** (:func:`export_factor_metrics`): kernel FLOP rates,
  level widths, dispatch evidence (ready-queue depth, dispatch latency,
  per-worker busy/idle), and worker occupancy land in the process-global
  :func:`repro.obs.global_registry` so run artifacts (and
  ``repro report --diff``) make numeric-engine regressions visible.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.numeric.schedule.base import ScheduleStats
from repro.obs.metrics import global_registry
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization
from repro.symbolic.etree import etree_level_sets

__all__ = [
    "NumericContext",
    "export_factor_metrics",
    "last_factor_attribution",
    "merge_factor_attributions",
    "numeric_context",
    "row_permutation_data_map",
]


def _as_int_index(data: np.ndarray) -> np.ndarray:
    return np.asarray(data, dtype=np.int64)


def _arange_csc(n_rows: int, n_cols: int, rows: np.ndarray,
                cols: np.ndarray) -> CSCMatrix:
    """CSC of the given pattern whose values are the source entry indices.

    Entry values are ``arange(nnz)`` floats; after conversion, ``.data``
    tells for every CSC slot which source entry landed there (exact for any
    nnz < 2**53; patterns here are orders of magnitude smaller).
    """
    vals = np.arange(len(rows), dtype=np.float64)
    return CSCMatrix.from_coo(COOMatrix(n_rows, n_cols, rows, cols, vals))


def row_permutation_data_map(matrix: CSCMatrix,
                             row_perm: np.ndarray) -> np.ndarray:
    """Index map for applying a row permutation to a fixed CSC pattern.

    Returns ``idx`` such that for any matrix ``M`` with this pattern, the
    row-permuted matrix (rows mapped through ``inverse(row_perm)``, as
    :func:`repro.ordering.pivoting.apply_static_pivoting` builds it) has
    ``data == M.data[idx]`` on its own fixed pattern.
    """
    inverse = np.empty_like(row_perm)
    inverse[row_perm] = np.arange(len(row_perm))
    coo = matrix.to_coo()
    tagged = _arange_csc(matrix.n_rows, matrix.n_cols,
                         inverse[coo.rows], coo.cols)
    return _as_int_index(tagged.data)


class NumericContext:
    """Precomputed per-pattern index maps for fast numeric factorization.

    Built once per (symbolic analysis, matrix pattern) and cached on the
    symbolic object; every subsequent factorization with the same pattern
    reuses the maps, turning front assembly into pure NumPy gathers.

    Attributes:
        perm_data: ``permuted.data == matrix.data[perm_data]``.
        flat_pos / data_idx: per-supernode scatter maps;
            ``front.flat[flat_pos[i]] = permuted_data[data_idx[i]]``
            initializes supernode ``i``'s front from A's entries (both the
            L and — for LU — the U part).
        sn_parent: supernode parent array (``-1`` for roots) — the task
            dependence structure the DAG dispatcher consumes.
        levels: supernode level sets (leaves first); their widths are
            the schedule's available parallelism in the attribution
            view.
    """

    def __init__(self, symbolic: SymbolicFactorization,
                 matrix: CSCMatrix) -> None:
        self.symbolic = symbolic
        if matrix.n_rows != symbolic.n or matrix.n_cols != symbolic.n:
            raise ValueError(
                "matrix pattern does not match the symbolic analysis; "
                "run symbolic_factorize on this matrix first"
            )
        self.src_indptr = matrix.indptr.copy()
        self.src_indices = matrix.indices.copy()

        n = matrix.n_rows
        perm = symbolic.perm
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n)
        coo = matrix.to_coo()
        tagged = _arange_csc(n, n, inverse[coo.rows], inverse[coo.cols])
        analyzed = symbolic.permuted
        if not (np.array_equal(tagged.indptr, analyzed.indptr)
                and np.array_equal(tagged.indices, analyzed.indices)):
            raise ValueError(
                "matrix pattern does not match the symbolic analysis; "
                "run symbolic_factorize on this matrix first"
            )
        self.perm_data = _as_int_index(tagged.data)

        tree = symbolic.tree
        self.sn_parent = np.array([sn.parent for sn in tree.supernodes],
                                  dtype=np.int64)
        self.levels = etree_level_sets(self.sn_parent)

        # A's at-or-below-diagonal entries: the L part of every front.
        lower_maps = self._front_maps(analyzed.indptr, analyzed.indices,
                                      0, False, None)
        if symbolic.kind == "lu":
            upper_maps = self._build_row_maps(analyzed)
            self.flat_pos = [
                np.concatenate([lo[0], up[0]])
                for lo, up in zip(lower_maps, upper_maps)
            ]
            self.data_idx = [
                np.concatenate([lo[1], up[1]])
                for lo, up in zip(lower_maps, upper_maps)
            ]
        else:
            self.flat_pos = [m[0] for m in lower_maps]
            self.data_idx = [m[1] for m in lower_maps]

    # -- construction helpers ------------------------------------------------

    def _front_maps(self, indptr: np.ndarray, indices: np.ndarray,
                    offset: int, row_major: bool, src: np.ndarray | None
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-supernode (front flat position, data index) pairs for the
        entries ``(i, j)`` of a CSC pattern with ``i >= j + offset``.

        Column ``j`` belongs to the supernode that factors it, and ``i``
        is looked up in that supernode's front rows by one
        ``searchsorted`` over the keys ``supernode * n + row`` of every
        front (already sorted: supernodes are in column order and their
        rows are sorted).  Entries whose ``i`` is not a front row are
        dropped.  The flat position is ``pos * size + local`` (the entry
        lands in column ``local`` of the front) or, with ``row_major``,
        ``local * size + pos`` (row ``local``).  ``src`` maps entry slots
        to data indices (the slot itself when ``None``).  Entries keep
        their CSC order: per supernode, by column, then by row.
        """
        supernodes = self.symbolic.tree.supernodes
        n = len(indptr) - 1
        n_sn = len(supernodes)
        if n_sn == 0:
            return []
        sizes = np.array([sn.front_size for sn in supernodes],
                         dtype=np.int64)
        first = np.array([sn.first_col for sn in supernodes],
                         dtype=np.int64)
        sn_of_col = np.repeat(
            np.arange(n_sn, dtype=np.int64),
            [sn.n_cols for sn in supernodes],
        )
        row_start = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        keys = (np.repeat(np.arange(n_sn, dtype=np.int64), sizes) * n
                + np.concatenate([sn.rows for sn in supernodes]))

        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        entry = np.flatnonzero(indices >= cols + offset)
        col = cols[entry]
        sn = sn_of_col[col]
        key = sn * n + indices[entry]
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        ok = keys[at] == key
        entry, col, sn, at = entry[ok], col[ok], sn[ok], at[ok]
        pos = at - row_start[sn]
        local = col - first[sn]
        flat = (local * sizes[sn] + pos if row_major
                else pos * sizes[sn] + local)
        data = entry if src is None else src[entry]
        bounds = np.searchsorted(sn, np.arange(n_sn + 1))
        return [(flat[lo:hi], data[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _build_row_maps(self, analyzed: CSCMatrix
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-supernode maps for A's strictly-right-of-diagonal row
        entries (the U part of LU fronts), via a tagged transpose."""
        n = analyzed.n_rows
        cols = np.repeat(np.arange(n, dtype=np.int64),
                         np.diff(analyzed.indptr))
        # "Columns" of the tagged transpose are rows of the permuted
        # matrix; its data slots carry the permuted-data index.
        t = _arange_csc(n, n, cols, analyzed.indices.copy())
        return self._front_maps(t.indptr, t.indices, 1, True,
                                _as_int_index(t.data))

    # -- queries -------------------------------------------------------------

    def matches(self, matrix: CSCMatrix) -> bool:
        """True if this context was built for ``matrix``'s pattern."""
        return (
            np.array_equal(self.src_indptr, matrix.indptr)
            and np.array_equal(self.src_indices, matrix.indices)
        )

    def permuted_data(self, matrix: CSCMatrix) -> np.ndarray:
        """Values of ``matrix.permuted(symbolic.perm)`` without the
        COO round trip."""
        return matrix.data[self.perm_data]


def numeric_context(symbolic: SymbolicFactorization,
                    matrix: CSCMatrix) -> NumericContext:
    """Get (or build and cache) the numeric context for a pattern."""
    ctx = getattr(symbolic, "_numeric_ctx", None)
    if ctx is None or not ctx.matches(matrix):
        ctx = NumericContext(symbolic, matrix)
        symbolic._numeric_ctx = ctx
    return ctx


# -- attribution and metrics export --------------------------------------------


# Attribution view of the most recent factorization in this process (see
# last_factor_attribution); written by export_factor_metrics under
# _attribution_lock.  Each process has its own copy: `solve --procs`
# workers hand theirs back in their results (merge_factor_attributions).
_last_attribution: dict | None = None
_attribution_lock = threading.Lock()


def last_factor_attribution() -> dict | None:
    """The numeric-engine attribution view of the most recent
    factorization in this process: the level-width series (available
    parallelism over the elimination-tree schedule), dispatch evidence
    (ready-queue depth, dispatch latency, per-worker busy/idle lanes),
    worker occupancy, and wall/busy seconds.  Embedded into solve run
    artifacts as the ``attribution.numeric`` section — the
    software-engine analogue of the simulator's cycle accounting.
    ``None`` before any factorization."""
    with _attribution_lock:
        return _last_attribution


def merge_factor_attributions(views: list[dict]) -> dict:
    """Fold per-factorization attribution views, each tagged with the
    ``pid`` and ``role`` of the process that ran it, into the
    ``attribution.numeric_processes`` section: seconds, busy seconds and
    parallel tasks summed, the views kept for drill-down."""
    return {
        "processes": views,
        "n_processes": len({v["pid"] for v in views}),
        "seconds": sum(v.get("seconds", 0.0) for v in views),
        "busy_seconds": sum(v.get("busy_seconds", 0.0) for v in views),
        "parallel_tasks": int(sum(v.get("parallel_tasks", 0)
                                  for v in views)),
        "factorizations": len(views),
    }


def export_factor_metrics(
    symbolic: SymbolicFactorization,
    seconds: float,
    block_size: int,
    levels: list[np.ndarray],
    busy_seconds: float,
    stats: ScheduleStats,
) -> None:
    """Report one numeric factorization into the global metrics registry
    and this process's last-factorization attribution view."""
    global _last_attribution
    workers = stats.workers
    parallel_tasks = stats.dispatched
    widths = [len(level) for level in levels]
    n_sn = sum(widths)
    attribution = {
        "level_widths": widths,
        # mean runnable supernodes per level — the schedule's available
        # parallelism, independent of worker count
        "avg_parallelism": (n_sn / len(levels)) if levels else 0.0,
        "serial_levels": sum(1 for w in widths if w <= 1),
        "workers": workers,
        "parallel_tasks": parallel_tasks,
        "seconds": seconds,
        "busy_seconds": busy_seconds,
        "occupancy": (
            min(1.0, busy_seconds / (seconds * workers))
            if workers > 1 and seconds > 0.0 else 1.0
        ),
        "schedule": stats.summary(),
    }
    with _attribution_lock:
        _last_attribution = attribution

    reg = global_registry()
    reg.counter("numeric.factor.count").inc()
    reg.counter("numeric.factor.seconds").inc(seconds)
    reg.counter("numeric.factor.flops").inc(symbolic.flops)
    if seconds > 0.0:
        reg.gauge("numeric.factor.gflops_per_s").set(
            symbolic.flops / seconds / 1e9
        )
    reg.gauge("numeric.factor.block_size").set(block_size)
    reg.gauge("numeric.factor.workers").set(workers)
    reg.counter("numeric.parallel.tasks").inc(parallel_tasks)
    if workers > 1 and seconds > 0.0:
        reg.gauge("numeric.parallel.occupancy").set(
            min(1.0, busy_seconds / (seconds * workers))
        )
    reg.gauge("numeric.levels.count").set(len(levels))
    width_hist = reg.histogram("numeric.levels.width")
    for level in levels:
        width_hist.observe(len(level))

    sched = attribution["schedule"]
    reg.gauge("numeric.sched.ready_depth.mean").set(
        sched["ready_depth"]["mean"]
    )
    reg.gauge("numeric.sched.ready_depth.max").set(
        sched["ready_depth"]["max"]
    )
    reg.gauge("numeric.sched.dispatch_latency_ms.mean").set(
        sched["dispatch_latency_ms"]["mean"]
    )
    reg.gauge("numeric.sched.dispatch_latency_ms.max").set(
        sched["dispatch_latency_ms"]["max"]
    )
    reg.gauge("numeric.sched.idle_s").set(sched["idle_s"])
    reg.gauge("numeric.sched.worker_tasks.imbalance").set(
        sched["task_imbalance"]
    )
