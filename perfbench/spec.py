"""What the benchmark runs, and what each reported number means.

Every workload parameter lives here as a frozen dataclass, so the smoke
check can shrink a workload with ``dataclasses.replace`` and the numbers a
later change is judged by are fixed in one place.

Metric naming.  The result line of ``run.py`` must carry the same
end-to-end metrics on every workload, so the end-to-end set is
workload-neutral (``setup_s``, ``peak_rss_mb``, ``op_ms.p50``) and each
workload defines its operation (see ``OP_DEFINITION``).  The
workload-specific headline numbers (``cold_solve_s.p50``,
``refactorize_ms.*``, ``serve_latency_ms.*`` ...) and every layer number
are per-layer metrics, printed by a ``--trace 1`` run; a workload reports
0 for a layer it never calls.
"""

from __future__ import annotations

from dataclasses import dataclass

# Every timing is reported as a median plus the highest percentile that
# keeps at least this many samples beyond it (the percentile is recorded).
TAIL_BEYOND = 10

# Relative residual ||Ax - b|| / ||b|| every solve must meet.  Direct
# solves of these diagonally dominant matrices reach ~1e-15.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Matrix:
    """One suite matrix at one scale (see repro.sparse.suite)."""

    name: str
    kind: str           # "cholesky" | "lu"
    scale: float = 1.0

    @property
    def label(self) -> str:
        return f"{self.name}@{self.scale:g}"


@dataclass(frozen=True)
class ColdSolve:
    """Each operation is the new-pattern path: ``SparseSolver(A,
    use_cache=False)`` (ordering, symbolic analysis, first factorization)
    plus one seeded k=1 solve, rotating over the matrices.  At scale
    0.35 a 20 s run makes five or more operations per matrix."""

    matrices: tuple[Matrix, ...] = (
        Matrix("Serena", "cholesky", 0.35),     # 3-D, large fronts
        Matrix("G3_circuit", "cholesky", 0.35), # circuit, tiny supernodes
        Matrix("atmosmodd", "lu", 0.35),        # 3-D, unsymmetric
        Matrix("FullChip", "lu", 0.35),         # circuit, unsymmetric
    )
    # Set-up only builds the matrices (~40 ms), so take more reps.
    setup_reps: int = 5


@dataclass(frozen=True)
class Timestep:
    """The paper's usage loop (Fig. 2): analysis and first factorization
    are set-up; each step refactorizes one matrix with seeded new values
    on its fixed pattern and solves one right-hand side, and every
    ``panel_every``-th step also solves a ``panel_k``-column panel."""

    matrices: tuple[Matrix, ...] = (
        Matrix("Serena", "cholesky", 0.5),      # large fronts
        Matrix("G3_circuit", "cholesky", 0.5),  # many tiny supernodes
        Matrix("FullChip", "lu", 0.5),          # many tiny supernodes, LU
    )
    panel_every: int = 4
    panel_k: int = 32
    setup_reps: int = 3


@dataclass(frozen=True)
class SimCase:
    name: str
    matrix: Matrix
    cache_mb: float | None = None   # None: the paper configuration's cache


@dataclass(frozen=True)
class Simulate:
    """``SpatulaSim(plan, cfg).run()`` over plans built in set-up, with
    each matrix's suite-recommended ordering (as ``repro simulate``).
    The two Serena cases use the cache/HBM models in opposite ways: the
    paper's 16 MB cache takes no misses, 1 MB (the smallest size the
    bank x way geometry allows) misses thousands of times."""

    cases: tuple[SimCase, ...] = (
        SimCase("serena_paper", Matrix("Serena", "cholesky", 0.5)),
        SimCase("serena_1mb", Matrix("Serena", "cholesky", 0.5), 1.0),
        SimCase("atmosmodd_paper", Matrix("atmosmodd", "lu", 0.5)),
    )
    setup_reps: int = 3


@dataclass(frozen=True)
class ServeOpen:
    """An in-process ``SolveServer`` with three circuit tenants, driven by
    one generator thread on an open-loop schedule: Poisson arrivals,
    tenants taken in turn, and each tenant refactorizes after every
    ``refactorize_every`` of its solves (a FIFO barrier beside reads).

    The first ``nominal_share`` of the run holds ``nominal_rps``; the
    rest steps up ``ladder_rps``, one equal slice per rung, stopping at
    the first rung that misses ``latency_limit_ms`` at its tail or whose
    backlog grows."""

    tenants: tuple[Matrix, ...] = (
        Matrix("G3_circuit", "cholesky", 0.25),
        Matrix("rajat31", "lu", 0.25),
        Matrix("TSOPF_b2383", "lu", 0.5),
    )
    refactorize_every: int = 32
    # Pad-32 solves take 13-30 ms and the tenants share one interpreter
    # lock, so an unbatched server saturates near 40 requests/s; at
    # 12/s it is about a third busy and queueing adds little noise.
    nominal_rps: float = 12.0
    nominal_share: float = 0.75
    ladder_rps: tuple[float, ...] = (15.0, 30.0, 45.0, 68.0)
    latency_limit_ms: float = 100.0
    # A run whose generator submitted any request later than this after
    # its due time is flagged: its latencies include the generator's own
    # stall, not only the server's.  Waking from a sleep can wait one
    # 5 ms interpreter switch interval for a busy worker thread.
    gen_late_flag_ms: float = 20.0
    setup_reps: int = 3


WORKLOADS = {
    "cold_solve": ColdSolve(),
    "timestep": Timestep(),
    "simulate": Simulate(),
    "serve_open": ServeOpen(),
}

# What ``op_ms.p50`` measures on each workload.
OP_DEFINITION = {
    "cold_solve": "mean over matrices of the median cold solve",
    "timestep": "mean over matrices of the median refactorize + k=1 solve",
    "simulate": "mean over cases of the median SpatulaSim build + run",
    "serve_open": "mean over tenants of the median request latency from "
                  "its due time at nominal_rps",
}

# name -> (unit, better); must match BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_ms.p50": ("ms", "lower"),
}

LAYERS = (
    "ordering", "symbolic", "numeric.engine", "numeric",
    "numeric.supernodal_solve", "tasks", "arch", "serve",
)

# Simulated statistics reported per simulate case: name -> (unit, better).
SIM_STATS = {
    "cache_hits": ("count", "higher"),
    "cache_misses": ("count", "lower"),
    "hbm_bytes": ("B", "lower"),
    "pe_busy_frac": ("frac", "higher"),
    "load_imbalance": ("ratio", "lower"),
}

PER_LAYER = {
    # Workload headline numbers, from the untraced part of a traced run.
    "cold_solve_s.p50": ("s", "lower"),
    "refactorize_ms.p50": ("ms", "lower"),
    "refactorize_ms.tail": ("ms", "lower"),
    "solve_k1_ms.p50": ("ms", "lower"),
    "solve_k32_ms.p50": ("ms", "lower"),
    "sim_tasks_per_s": ("1/s", "higher"),
    "sim_cycles": ("cycles", "lower"),
    "serve_latency_ms.p50": ("ms", "lower"),
    "serve_latency_ms.tail": ("ms", "lower"),
    "serve_capacity_rps": ("1/s", "higher"),
    # Layer timings: mean seconds per call, from the traced part.
    "ordering.busy_s": ("s", "lower"),
    "symbolic.etree_s": ("s", "lower"),
    "symbolic.structure_s": ("s", "lower"),
    "symbolic.supernodes_s": ("s", "lower"),
    "numeric.engine.context_build_s": ("s", "lower"),
    "numeric.factor_s": ("s", "lower"),
    "numeric.factor_gflops": ("GFLOP/s", "higher"),
    "numeric.refactorize_glue_s": ("s", "lower"),
    "numeric.supernodal_solve.sweep_k1_s": ("s", "lower"),
    "numeric.supernodal_solve.sweep_k32_s": ("s", "lower"),
    "solve.glue_s": ("s", "lower"),
    "tasks.plan_build_s": ("s", "lower"),
    "arch.sim_run_s": ("s", "lower"),
    # Exact counts over the workload's distinct analyses and plans.
    "ordering.fill_nnz": ("count", "lower"),
    "symbolic.n_supernodes": ("count", "lower"),
    "symbolic.flops": ("count", "lower"),
    "symbolic.small_front_frac": ("frac", "lower"),
    "symbolic.small_front_flops_frac": ("frac", "lower"),
    "tasks.n_tasks": ("count", "lower"),
    # Simulated statistics per case: identical under simulator-speed work.
    **{f"arch.{case.name}.{stat}": kind
       for case in Simulate().cases for stat, kind in SIM_STATS.items()},
    # Serving layer, from each response's phase breakdown.
    "serve.queue_wait_ms.p50": ("ms", "lower"),
    "serve.coalesce_wait_ms.p50": ("ms", "lower"),
    "serve.solve_ms.p50": ("ms", "lower"),
    "serve.refactorize_ms.p50": ("ms", "lower"),
    "serve.batch_cols_mean": ("cols", "higher"),
    "serve.backlog_max": ("count", "lower"),
    "serve.gen_late_ms.max": ("ms", "lower"),
    # Self time of each layer per operation, and what no layer covers.
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "unattributed_frac": ("frac", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

# Which end-to-end number each layer number should move, on which
# workload.  Later issues cite these pairs by name.  The targets are
# setup_s or a workload's headline number (reported with the per-layer
# metrics, see the module docstring).
LAYER_TO_E2E = {
    "ordering.busy_s": [("cold_solve_s.p50", "cold_solve")],
    "ordering.fill_nnz": [("cold_solve_s.p50", "cold_solve")],
    "symbolic.etree_s": [("cold_solve_s.p50", "cold_solve"),
                         ("setup_s", "simulate")],
    "symbolic.structure_s": [("cold_solve_s.p50", "cold_solve"),
                             ("setup_s", "simulate")],
    "symbolic.supernodes_s": [("cold_solve_s.p50", "cold_solve"),
                              ("setup_s", "simulate")],
    "numeric.engine.context_build_s": [("cold_solve_s.p50", "cold_solve"),
                                       ("setup_s", "timestep")],
    "numeric.factor_s": [("refactorize_ms.p50", "timestep"),
                         ("refactorize_ms.tail", "timestep")],
    "numeric.factor_gflops": [("refactorize_ms.p50", "timestep")],
    "numeric.refactorize_glue_s": [("refactorize_ms.p50", "timestep")],
    "numeric.supernodal_solve.sweep_k1_s": [("solve_k1_ms.p50", "timestep")],
    "numeric.supernodal_solve.sweep_k32_s": [
        ("solve_k32_ms.p50", "timestep"),
        ("serve_latency_ms.p50", "serve_open")],
    "solve.glue_s": [("solve_k1_ms.p50", "timestep"),
                     ("solve_k32_ms.p50", "timestep")],
    "tasks.plan_build_s": [("setup_s", "simulate")],
    "arch.sim_run_s": [("sim_tasks_per_s", "simulate")],
    "serve.queue_wait_ms.p50": [("serve_latency_ms.p50", "serve_open"),
                                ("serve_capacity_rps", "serve_open")],
    "serve.coalesce_wait_ms.p50": [("serve_latency_ms.p50", "serve_open")],
    "serve.solve_ms.p50": [("serve_latency_ms.p50", "serve_open")],
    "serve.refactorize_ms.p50": [("serve_latency_ms.tail", "serve_open"),
                                 ("serve_capacity_rps", "serve_open")],
    "serve.batch_cols_mean": [("serve_capacity_rps", "serve_open")],
    "serve.backlog_max": [("serve_capacity_rps", "serve_open")],
}
