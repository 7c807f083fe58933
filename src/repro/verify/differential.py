"""Differential execution of one input across configuration axes.

For a single fuzz case, :func:`run_case` runs the same mathematical
problem through many configurations of the stack and asserts the results
agree exactly where the implementation guarantees it and within
conditioning-aware tolerances elsewhere:

==================  =========================================================
axis                contract
==================  =========================================================
``workers``         bit-identical factors for every worker count (the PR 2
                    level-scheduling guarantee)
``refactorize``     ``refactorize`` with unchanged values reproduces the
                    fresh factorization bit-for-bit
``block_size``      different panel widths change floating-point summation
                    order: solutions agree within conditioning-aware
                    tolerance
``ordering``        amd / rcm / nd produce different factors but the same
                    solution (tolerance), and all stay backward-stable
``solve_method``    the supernodal panel solve and the plain CSC
                    substitution oracle agree
``rhs``             a k-column panel solve matches k independent
                    single-vector solves
``kind``            for SPD inputs, Cholesky and LU agree on the solution
``oracle``          backward error bounded; forward error vs scipy
                    ``splu`` / dense LAPACK bounded below the cond cliff
``sim_tasks``       the cycle-level simulator executes the same task count
                    for every PE count, the functional executor retires
                    exactly that many tasks, and its factor reconstructs A
``outcome``         every configuration agrees on solvable-vs-singular;
                    ``expect="singular"`` cases must fail everywhere
==================  =========================================================

The sweep is deterministic given the case (right-hand sides derive from
``case.seed``), which is what makes shrinking and replay possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.numeric.solver import SparseSolver
from repro.sparse.csc import CSCMatrix
from repro.verify.generators import FuzzCase
from repro.verify.oracle import (
    backward_error,
    backward_tolerance,
    check_against_oracle,
    condition_estimate,
    forward_tolerance,
)

# Exception types that mean "this configuration rejected the input" (as
# opposed to crashing): all deliberate rejections in the stack raise
# ValueError; LAPACK raises LinAlgError on numerically singular systems.
REJECTION_ERRORS = (ValueError, np.linalg.LinAlgError,
                    FloatingPointError, ZeroDivisionError)


@dataclass(frozen=True)
class SweepAxes:
    """The configuration space one case is swept over."""

    orderings: tuple[str, ...] = ("amd", "rcm", "nd")
    workers: tuple[int, ...] = (1, 4)
    block_sizes: tuple[int, ...] = (8, 48)
    rhs: int = 4
    check_kind_cross: bool = True
    check_sims: bool = True
    sim_max_n: int = 24

    @classmethod
    def quick(cls) -> "SweepAxes":
        """Cheaper sweep for shrinking predicates and smoke tests.

        Keeps every ordering (a bug may only surface under one fill
        pattern) but drops the expensive kind/simulator cross-checks.
        """
        return cls(workers=(1, 4), block_sizes=(8,), rhs=2,
                   check_kind_cross=False, check_sims=False)


# Axes whose mismatches are interchangeable for shrinking purposes: they
# all say "the numeric result is wrong somewhere", and a shrunk matrix
# frequently moves the symptom between them (e.g. an ordering-agreement
# failure collapsing into a direct oracle failure once only one ordering
# survives).
NUMERIC_AXES = frozenset({
    "oracle", "ordering", "block_size", "solve_method", "rhs", "kind",
    "workers", "refactorize",
})


def equivalent_axes(axes: set[str]) -> frozenset[str]:
    """Expand mismatch axes to their interchangeable group."""
    expanded = set(axes)
    if expanded & NUMERIC_AXES:
        expanded |= NUMERIC_AXES
    return frozenset(expanded)


@dataclass
class Mismatch:
    """One detected disagreement."""

    case: str
    axis: str
    detail: str
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"case": self.case, "axis": self.axis,
                "detail": self.detail, "config": self.config}


@dataclass
class CaseResult:
    """Outcome of differentially executing one case."""

    case: FuzzCase
    outcome: str = "ok"          # "ok" | "rejected" | "mismatch"
    checks: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    cond: float = float("nan")

    @property
    def failed(self) -> bool:
        return bool(self.mismatches)


def factor_fingerprint(solver: SparseSolver) -> tuple[np.ndarray, ...]:
    """The exact bytes of a solver's factor (for bit-identity checks)."""
    lower, upper = solver.factor_csc()
    parts = [lower.indptr, lower.indices, lower.data]
    if upper is not None:
        parts += [upper.indptr, upper.indices, upper.data]
    return tuple(parts)


def _identical(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)
    )


def _build(case: FuzzCase, ordering: str, workers: int = 1,
           block_size: int | None = None) -> SparseSolver:
    return SparseSolver(case.matrix, kind=case.kind, ordering=ordering,
                        workers=workers, block_size=block_size)


def run_case(case: FuzzCase, axes: SweepAxes | None = None) -> CaseResult:
    """Differentially execute one fuzz case across the sweep axes."""
    axes = axes or SweepAxes()
    result = CaseResult(case=case)
    n = case.matrix.n_rows
    rng = np.random.default_rng(case.seed)
    b = rng.standard_normal(n)

    def report(axis: str, detail: str, **config) -> None:
        result.mismatches.append(Mismatch(
            case=case.name, axis=axis, detail=detail, config=config))

    # -- outcome consistency: does every configuration accept the input? --
    outcomes: dict[tuple, str] = {}
    solvers: dict[str, SparseSolver] = {}
    for ordering in axes.orderings:
        result.checks += 1
        try:
            solvers[ordering] = _build(case, ordering)
            outcomes[(ordering,)] = "ok"
        except REJECTION_ERRORS as exc:
            outcomes[(ordering,)] = f"rejected({type(exc).__name__})"
    accepted = [o for o in axes.orderings if outcomes[(o,)] == "ok"]
    if accepted and len(accepted) != len(axes.orderings):
        report("outcome",
               "configurations disagree on solvability: "
               + ", ".join(f"{o}={outcomes[(o,)]}" for o in axes.orderings))
        result.outcome = "mismatch"
        return result
    if not accepted:
        result.outcome = "rejected"
        if case.expect == "ok":
            report("outcome", "input unexpectedly rejected everywhere: "
                   + outcomes[(axes.orderings[0],)])
        return result
    if case.expect == "singular":
        report("outcome",
               "expected-singular input was accepted by every config")
        result.outcome = "mismatch"
        return result

    result.cond = condition_estimate(case.matrix)
    perturbed = any(
        getattr(s._lu, "perturbed_pivots", 0) for s in solvers.values()
    )
    fwd_tol = forward_tolerance(result.cond, n)
    base_order = accepted[0]
    base = solvers[base_order]
    base_x = base.solve(b)
    solutions = {base_order: base_x}

    # -- oracle: backward error always, forward error below the cliff ----
    result.checks += 1
    oracle = check_against_oracle(case.matrix, base_x, b,
                                  perturbed=perturbed, cond=result.cond)
    if not oracle.ok:
        report("oracle", oracle.detail, ordering=base_order)

    # -- workers: bit-identical factors ----------------------------------
    base_fp = factor_fingerprint(base)
    for w in axes.workers:
        if w == 1:
            continue
        result.checks += 1
        fp = factor_fingerprint(_build(case, base_order, workers=w))
        if not _identical(base_fp, fp):
            report("workers",
                   f"factor not bit-identical at workers={w}",
                   ordering=base_order, workers=w)

    # -- refactorize: bit-identical to a fresh factorization -------------
    result.checks += 1
    base.refactorize(case.matrix)
    if not _identical(base_fp, factor_fingerprint(base)):
        report("refactorize",
               "refactorize with unchanged values changed the factor",
               ordering=base_order)

    # -- block sizes: tolerance agreement --------------------------------
    for bs in axes.block_sizes:
        result.checks += 1
        xb = _build(case, base_order, block_size=bs).solve(b)
        rel = _rel_diff(xb, base_x)
        if rel > fwd_tol:
            report("block_size",
                   f"solution drift {rel:.3e} > {fwd_tol:.3e} "
                   f"at block_size={bs}",
                   ordering=base_order, block_size=bs)

    # -- orderings: same solution, all backward-stable -------------------
    for ordering in accepted[1:]:
        result.checks += 1
        x = solvers[ordering].solve(b)
        solutions[ordering] = x
        bwd = backward_error(case.matrix, x, b)
        tol = backward_tolerance(n, perturbed=perturbed)
        if bwd > tol:
            report("ordering",
                   f"backward error {bwd:.3e} > {tol:.3e} "
                   f"under ordering={ordering}", ordering=ordering)
        rel = _rel_diff(x, base_x)
        if rel > fwd_tol:
            report("ordering",
                   f"solutions disagree by {rel:.3e} > {fwd_tol:.3e} "
                   f"({base_order} vs {ordering})", ordering=ordering)

    # -- solve methods: supernodal vs plain CSC substitution -------------
    result.checks += 1
    x_csc = base.solve(b, method="csc")
    rel = _rel_diff(x_csc, base_x)
    if rel > fwd_tol:
        report("solve_method",
               f"supernodal and csc solves disagree by {rel:.3e} "
               f"> {fwd_tol:.3e}", ordering=base_order)

    # -- k-RHS panel vs independent single-vector solves ------------------
    if axes.rhs > 1:
        result.checks += 1
        panel = rng.standard_normal((n, axes.rhs))
        X = base.solve(panel)
        worst = max(
            _rel_diff(X[:, j], base.solve(panel[:, j]))
            for j in range(axes.rhs)
        )
        if worst > fwd_tol:
            report("rhs",
                   f"panel solve deviates from single-RHS solves by "
                   f"{worst:.3e} > {fwd_tol:.3e} (k={axes.rhs})",
                   ordering=base_order, rhs=axes.rhs)

    # -- kind cross-check: Cholesky vs LU on SPD inputs -------------------
    # Static-pivoted LU perturbs tiny pivots, so its raw forward error on
    # ill-conditioned inputs is ~cond * sqrt(eps) — meaningless to compare
    # directly.  The documented companion is iterative refinement: refine
    # the LU solve, then both sides should agree to ~cond * eps.  Beyond
    # ~1e8 even refined solutions share too few digits to compare.
    if (axes.check_kind_cross and case.kind == "cholesky"
            and case.expect == "ok" and result.cond < 1e8):
        result.checks += 1
        try:
            lu_solver = SparseSolver(case.matrix, kind="lu",
                                     ordering=base_order)
            x_lu = lu_solver.solve_refined(case.matrix, b).x
        except REJECTION_ERRORS as exc:
            report("kind",
                   f"LU rejected an input Cholesky accepted: "
                   f"{type(exc).__name__}: {exc}")
        else:
            rel = _rel_diff(x_lu, base_x)
            if rel > fwd_tol:
                report("kind",
                       f"Cholesky and refined LU disagree by {rel:.3e} "
                       f"> {fwd_tol:.3e}", ordering=base_order)

    # -- simulator cross-checks -------------------------------------------
    if axes.check_sims and n <= axes.sim_max_n and not case.hard:
        result.checks += 1
        mismatch = _check_simulators(case)
        if mismatch is not None:
            report("sim_tasks", mismatch)

    if result.mismatches:
        result.outcome = "mismatch"
    return result


def _rel_diff(x: np.ndarray, y: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)), 1e-300)
    return float(np.linalg.norm(np.asarray(x) - np.asarray(y))) / scale


def _check_simulators(case: FuzzCase) -> str | None:
    """Cycle-sim vs functional-executor task-count and numeric agreement.

    Returns a mismatch description, or None when everything agrees.
    """
    from repro.arch.config import SpatulaConfig
    from repro.arch.functional import TileExecutor
    from repro.arch.sim import SpatulaSim, simulate
    from repro.symbolic.analyze import symbolic_factorize
    from repro.tasks.plan import build_plan

    try:
        symbolic = symbolic_factorize(case.matrix, kind=case.kind,
                                      ordering="amd")
        config = SpatulaConfig.tiny()
        plan = build_plan(symbolic, tile=config.tile,
                          supertile=config.supertile)
        executor = TileExecutor(plan, case.matrix)
        report = SpatulaSim(plan, config, matrix_name=case.name,
                            executor=executor).run()
        executor.verify()
    except AssertionError as exc:
        return f"functional executor failed verification: {exc}"
    except REJECTION_ERRORS as exc:
        return (f"simulator rejected an input the solver accepted: "
                f"{type(exc).__name__}: {exc}")
    if executor.tasks_executed != report.n_tasks:
        return (f"functional executor retired {executor.tasks_executed} "
                f"tasks but the cycle sim reports {report.n_tasks}")
    other = simulate(case.matrix, kind=case.kind, plan=plan,
                     config=SpatulaConfig.tiny(n_pes=1))
    if other.n_tasks != report.n_tasks:
        return (f"task count depends on PE count: {other.n_tasks} at "
                f"1 PE vs {report.n_tasks} at {config.n_pes} PEs")
    return None
