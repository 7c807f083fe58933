"""cold_solve and timestep: the numeric solver, closed loop.

The seed drives the value updates and right-hand sides; the matrices
are the suite's fixed synthetic instances.
"""

from __future__ import annotations

import math
import time

import numpy as np

from measure import (analysis_counts, mean_of_medians, median, summary,
                     tail)
from repro.numeric.cache import analysis_cache
from repro.numeric.solver import SparseSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.suite import get_matrix
from spec import RESIDUAL_TOL


class _Checked:
    """Residual checks, with an optional deliberately corrupted first
    answer (the smoke check proves a wrong answer is counted)."""

    def __init__(self, corrupt: bool) -> None:
        self.corrupt = corrupt

    def ok(self, solver: SparseSolver, matrix: CSCMatrix, x: np.ndarray,
           b: np.ndarray) -> bool:
        if self.corrupt:
            x = x + 1.0
            self.corrupt = False
        return solver.residual_norm(matrix, x, b) < RESIDUAL_TOL


def normalized_tail(samples: list[list[float]]) -> tuple[float, float]:
    """Tail of a mix of cases: pool each sample divided by its case's
    median, take the tail of that pool, and scale it back by the mean
    of the medians.  Unlike a tail of the raw pool, it does not jump
    between cases whose costs differ by several times."""
    meds = [median(s) for s in samples]
    pooled = [v / m for s, m in zip(samples, meds) if m for v in s]
    value, pct = tail(pooled)
    return value * math.fsum(meds) / len(meds), pct


class ColdSolve:
    """Each op: SparseSolver(A, use_cache=False) + one seeded solve."""

    def __init__(self, cfg, seed: int, corrupt: bool = False) -> None:
        self.cfg = cfg
        self.n_cases = len(cfg.matrices)
        self.rng = np.random.default_rng(seed)
        self.check = _Checked(corrupt)
        self.analyses: dict[int, object] = {}
        self.matrices: list[CSCMatrix] = []

    def reset(self) -> None:
        self.matrices = []

    def build(self) -> None:
        self.matrices = [get_matrix(m.name, m.scale)
                         for m in self.cfg.matrices]

    def new_samples(self) -> list[list[float]]:
        return [[] for _ in self.cfg.matrices]

    def op(self, case: int) -> tuple[float, bool]:
        matrix = self.matrices[case]
        b = self.rng.standard_normal(matrix.n_rows)
        t0 = time.perf_counter()
        solver = SparseSolver(matrix, kind=self.cfg.matrices[case].kind,
                              use_cache=False)
        x = solver.solve(b)
        seconds = time.perf_counter() - t0
        self.samples[case].append(seconds)
        self.analyses.setdefault(case, solver.symbolic)
        return seconds, self.check.ok(solver, matrix, x, b)

    def op_ms(self) -> float:
        return 1e3 * mean_of_medians(self.samples)

    def headline(self) -> dict:
        return {"cold_solve_s.p50": mean_of_medians(self.samples)}

    def counts(self) -> dict:
        return analysis_counts([self.analyses[i]
                                for i in sorted(self.analyses)])

    def detail(self) -> dict:
        return {"cold_solve_s": {m.label: summary(s) for m, s in
                                 zip(self.cfg.matrices, self.samples)}}


class ValueUpdate:
    """Seeded value updates of one matrix that keep its pattern, and keep
    an SPD matrix SPD.

    The suite matrices are strictly diagonally dominant with a positive
    diagonal.  An update scales each off-diagonal pair (i, j), (j, i) by
    one factor in [0.8, 1] and each diagonal entry by one in [1, 1.1], so
    dominance, symmetry and so positive definiteness are kept.
    """

    def __init__(self, matrix: CSCMatrix) -> None:
        self.base = matrix
        cols = np.repeat(np.arange(matrix.n_cols), np.diff(matrix.indptr))
        rows = matrix.indices
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        keys = lo.astype(np.int64) * matrix.n_rows + hi
        _, self.pair = np.unique(keys, return_inverse=True)
        self.n_pairs = int(self.pair.max()) + 1
        self.diag = rows == cols

    def updated(self, rng: np.random.Generator) -> CSCMatrix:
        u = rng.random(self.n_pairs)[self.pair]
        factor = np.where(self.diag, 1.0 + 0.1 * u, 1.0 - 0.2 * u)
        m = self.base
        return CSCMatrix(m.n_rows, m.n_cols, m.indptr, m.indices,
                         m.data * factor)


class _Tenant(ValueUpdate):
    """A matrix, its value updates and its warm solver."""

    def __init__(self, matrix: CSCMatrix, kind: str) -> None:
        super().__init__(matrix)
        self.solver = SparseSolver(matrix, kind=kind)
        self.steps = 0


class Timestep:
    """Each op: refactorize on new values, then a k=1 solve; every
    ``panel_every``-th step of a matrix also solves a k-column panel."""

    def __init__(self, cfg, seed: int, corrupt: bool = False) -> None:
        self.cfg = cfg
        self.n_cases = len(cfg.matrices)
        self.rng = np.random.default_rng(seed)
        self.check = _Checked(corrupt)
        self.tenants: list[_Tenant] = []

    def reset(self) -> None:
        # Set-up is the first analysis of each pattern: a cached one
        # from the previous rep would skip it.
        self.tenants = []
        analysis_cache().clear()

    def build(self) -> None:
        self.tenants = [_Tenant(get_matrix(m.name, m.scale), m.kind)
                        for m in self.cfg.matrices]

    def new_samples(self) -> list[dict[str, list[float]]]:
        return [{"step": [], "refactorize": [], "k1": [], "k32": []}
                for _ in self.cfg.matrices]

    def op(self, case: int) -> tuple[float, bool]:
        tenant = self.tenants[case]
        solver = tenant.solver
        matrix = tenant.updated(self.rng)
        b = self.rng.standard_normal(matrix.n_rows)
        t0 = time.perf_counter()
        solver.refactorize(matrix)
        t1 = time.perf_counter()
        x = solver.solve(b)
        t2 = time.perf_counter()
        samples = self.samples[case]
        samples["refactorize"].append(t1 - t0)
        samples["k1"].append(t2 - t1)
        samples["step"].append(t2 - t0)
        seconds = t2 - t0
        ok = self.check.ok(solver, matrix, x, b)
        tenant.steps += 1
        if tenant.steps % self.cfg.panel_every == 0:
            panel = self.rng.standard_normal((matrix.n_rows,
                                              self.cfg.panel_k))
            t0 = time.perf_counter()
            xs = solver.solve(panel)
            t1 = time.perf_counter()
            samples["k32"].append(t1 - t0)
            seconds += t1 - t0
            ok = self.check.ok(solver, matrix, xs, panel) and ok
        return seconds, ok

    def _ms(self, key: str) -> float:
        return 1e3 * mean_of_medians([s[key] for s in self.samples])

    def op_ms(self) -> float:
        return self._ms("step")

    def headline(self) -> dict:
        refactorize_tail, _ = normalized_tail(
            [s["refactorize"] for s in self.samples])
        return {
            "refactorize_ms.p50": self._ms("refactorize"),
            "refactorize_ms.tail": 1e3 * refactorize_tail,
            "solve_k1_ms.p50": self._ms("k1"),
            "solve_k32_ms.p50": self._ms("k32"),
        }

    def counts(self) -> dict:
        return analysis_counts([t.solver.symbolic for t in self.tenants])

    def detail(self) -> dict:
        out = {key: {m.label: summary(s[key]) for m, s in
                     zip(self.cfg.matrices, self.samples)}
               for key in ("refactorize", "k1", "k32")}
        value, pct = normalized_tail([s["refactorize"]
                                      for s in self.samples])
        out["refactorize_tail"] = {"ms": 1e3 * value, "pct": round(pct, 2)}
        return out
