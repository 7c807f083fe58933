#!/usr/bin/env python
"""Performance smoke benchmark for the blocked numeric engine.

Times the three numeric-phase operations — ``factorize`` (cold),
``refactorize`` (warm pattern), and ``solve`` (single vector, a
32-column panel, and the same 32 columns one at a time) — on two suite
matrices.

Writes ``BENCH_numeric.json`` with the schema::

    {"schema": 1,
     "panel_width": 32,
     "matrices": {name: {"n": ..., "kind": ..., "scale": ...,
                         "ops": {op: {"seconds": s, "flops_per_s": f}},
                         "speedups": {"multi_rhs": x}}},
     "cache": {"matrix": ..., "hits": ..., "misses": ...,
               "cold_seconds": s, "warm_seconds": s}}

where ``op`` is one of ``factorize_cold``, ``refactorize``, ``solve``,
``solve_panel_32`` and ``solve_percolumn_32``.  With ``--sched-only``
the file instead holds ``"dag_sweep"`` (serial vs DAG refactorize).

Run as ``PYTHONPATH=src python benchmarks/perf_smoke.py``.  Not a pytest
bench: this is the fast CI smoke artifact (non-gating).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.cli import ObsSession
from repro.numeric.cache import analysis_cache
from repro.numeric.solver import SparseSolver
from repro.obs.metrics import global_registry
from repro.ordering.pivoting import apply_static_pivoting
from repro.sparse.suite import get_matrix
from repro.symbolic.analyze import symbolic_factorize

PANEL_WIDTH = 32


# -- measurement ---------------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_matrix(name: str, kind: str, scale: float, repeats: int) -> dict:
    matrix = get_matrix(name, scale=scale)
    work = matrix
    if kind == "lu":
        work, _ = apply_static_pivoting(matrix)
    symbolic = symbolic_factorize(work, kind=kind)
    flops = float(symbolic.flops)
    n = matrix.n_rows
    print(f"== {name}@{scale} [{kind}] n={n} nnz={matrix.nnz} "
          f"({flops / 1e6:.1f} MFLOP)")

    ops: dict[str, dict] = {}

    # Cold factorize (includes building the pattern-cached scatter maps).
    t0 = time.perf_counter()
    solver = SparseSolver(matrix, kind=kind, use_cache=False)
    ops["factorize_cold"] = {"seconds": time.perf_counter() - t0,
                             "flops_per_s": None}

    # Warm refactorize: same pattern, scaled values.
    refreshed = type(matrix)(
        matrix.n_rows, matrix.n_cols, matrix.indptr.copy(),
        matrix.indices.copy(), matrix.data * 1.0)
    t_new = _best_of(lambda: solver.refactorize(refreshed), repeats)
    ops["refactorize"] = {"seconds": t_new, "flops_per_s": flops / t_new}

    rng = np.random.default_rng(0)
    b1 = rng.standard_normal(n)
    t_solve = _best_of(lambda: solver.solve(b1), repeats)
    solve_flops = 4.0 * solver.factor_nnz
    ops["solve"] = {"seconds": t_solve,
                    "flops_per_s": solve_flops / t_solve}

    bk = rng.standard_normal((n, PANEL_WIDTH))
    t_panel = _best_of(lambda: solver.solve(bk), repeats)
    ops[f"solve_panel_{PANEL_WIDTH}"] = {
        "seconds": t_panel,
        "flops_per_s": PANEL_WIDTH * solve_flops / t_panel,
    }
    t_cols = _best_of(
        lambda: [solver.solve(bk[:, j]) for j in range(PANEL_WIDTH)], 1)
    ops[f"solve_percolumn_{PANEL_WIDTH}"] = {
        "seconds": t_cols,
        "flops_per_s": PANEL_WIDTH * solve_flops / t_cols,
    }

    speedups = {"multi_rhs": t_cols / t_panel}
    for op, rec in ops.items():
        rate = rec["flops_per_s"]
        rate_s = f"{rate / 1e9:8.3f} GFLOP/s" if rate else " " * 16
        print(f"  {op:<24}{rec['seconds'] * 1e3:>10.1f} ms  {rate_s}")
    print(f"  multi-RHS (k={PANEL_WIDTH}) speedup "
          f"{speedups['multi_rhs']:.1f}x")
    return {"n": n, "kind": kind, "scale": scale, "ops": ops,
            "speedups": speedups}


def bench_dag_sweep(workers: int, scale: float, repeats: int,
                    history_dir: str | None) -> dict:
    """Time the serial numeric phase against the DAG dispatcher.

    ``power_law_spd`` produces the profile the DAG dispatcher targets:
    many runnable supernodes per level with skewed sizes.  Records
    ``numeric.speedup.dag`` (warm refactorize, serial time over DAG
    time at ``workers`` threads) plus the DAG run's idle-seconds
    attribution; with ``history_dir`` set, appends a run artifact to the
    history store so the trend gate watches the speedup.
    """
    from repro.numeric.cholesky import multifrontal_cholesky
    from repro.numeric.engine import last_factor_attribution
    from repro.obs.artifact import RunArtifact
    from repro.obs.history import HistoryStore
    from repro.sparse import power_law_spd

    n = max(64, int(1200 * scale))
    matrix = power_law_spd(n, seed=7)
    symbolic = symbolic_factorize(matrix, kind="cholesky")
    # Warm the pattern cache so the sweep times pure numeric work.
    multifrontal_cholesky(matrix, symbolic, workers=1)
    widths = [len(lvl) for lvl in symbolic._numeric_ctx.levels]
    print(f"== serial vs DAG [power_law_spd n={n}] workers={workers}: "
          f"{symbolic.n_supernodes} supernodes, {len(widths)} levels, "
          f"max width {max(widths)}")

    sweep: dict[str, dict] = {}
    for label, w in (("serial", 1), ("dag", workers)):
        seconds = _best_of(
            lambda: multifrontal_cholesky(matrix, symbolic, workers=w),
            repeats,
        )
        att = last_factor_attribution() or {}
        schedule = att.get("schedule", {})
        sweep[label] = {
            "workers": w,
            "seconds": seconds,
            "idle_s": schedule.get("idle_s", 0.0),
            "dispatch_latency_ms":
                schedule.get("dispatch_latency_ms", {}).get("mean", 0.0),
            "ready_depth_mean":
                schedule.get("ready_depth", {}).get("mean", 0.0),
            "attribution": att,
        }

    speedup = sweep["serial"]["seconds"] / sweep["dag"]["seconds"]
    metrics = {"numeric.speedup.dag": speedup}
    global_registry().gauge("numeric.speedup.dag").set(speedup)
    for label, rec in sweep.items():
        print(f"  {label:<8}{rec['seconds'] * 1e3:>10.1f} ms  "
              f"idle {rec['idle_s'] * 1e3:8.1f} ms")
    print(f"  DAG/{workers} vs serial: {speedup:.2f}x")

    result = {"matrix": f"power_law_spd:{n}", "workers": workers,
              "runs": sweep, "metrics": metrics}
    if history_dir:
        artifact = RunArtifact(
            matrix=f"power_law_spd:{n}", kind="cholesky", n=n,
            config={"bench": "dag_sweep", "workers": workers,
                    "scale": scale},
            report={},
            metrics={**metrics,
                     "numeric.sched.idle_s": sweep["dag"]["idle_s"]},
            attribution={"numeric_sweep": {
                label: r["attribution"] for label, r in sweep.items()}},
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        )
        entry = HistoryStore(history_dir).add(artifact)
        print(f"  recorded sweep into history store {history_dir} "
              f"(key {entry.key})")
    return result


def bench_cache(name: str, kind: str, scale: float) -> dict:
    """Demonstrate the analysis cache: second solver skips the analysis."""
    matrix = get_matrix(name, scale=scale)
    analysis_cache().clear()
    reg = global_registry()

    def counters():
        snap = reg.snapshot()
        return (snap.get("numeric.analysis_cache.hits", 0),
                snap.get("numeric.analysis_cache.misses", 0))

    h0, m0 = counters()
    t0 = time.perf_counter()
    SparseSolver(matrix, kind=kind)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    SparseSolver(matrix, kind=kind)
    t_warm = time.perf_counter() - t0
    h1, m1 = counters()
    result = {
        "matrix": name, "hits": h1 - h0, "misses": m1 - m0,
        "cold_seconds": t_cold, "warm_seconds": t_warm,
    }
    print(f"== analysis cache [{name}]: cold {t_cold * 1e3:.1f} ms, "
          f"warm {t_warm * 1e3:.1f} ms "
          f"({result['hits']} hit(s), {result['misses']} miss(es))")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_numeric.json")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="suite-matrix scale factor")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--sched-workers", type=int, default=4,
                        help="DAG worker count for the --sched-only sweep")
    parser.add_argument("--sched-only", action="store_true",
                        help="run only the serial-vs-DAG sweep (records "
                             "numeric.speedup.dag), skipping the matrix "
                             "benches")
    parser.add_argument("--history", metavar="DIR", default=None,
                        help="append the sweep artifact to this "
                             "repro.obs.history store")
    parser.add_argument("--telemetry-dir", metavar="DIR", default=None,
                        help="record run-scoped telemetry of the bench "
                             "(JSONL streams + merged trace/HTML)")
    parser.add_argument("--profile", action="store_true",
                        help="wall-clock profiling (top table + "
                             "flamegraph next to the telemetry streams)")
    args = parser.parse_args()

    # Serena: the heaviest Cholesky suite factorization (3-D grid, real
    # fill).  atmosmodd: an LU matrix with comparable supernode structure
    # (FullChip-style circuit matrices have near-empty supernodes, which
    # benchmarks Python dispatch overhead rather than the kernels).
    matrices = [("Serena", "cholesky"), ("atmosmodd", "lu")]
    results = {"schema": 1, "matrices": {}, "panel_width": PANEL_WIDTH}
    # Same telemetry/profiling lifecycle as the CLI verbs: when the
    # flags are off this is a no-op and the timings are unscathed.
    with ObsSession(args, "perf_smoke"):
        if args.sched_only:
            results["dag_sweep"] = bench_dag_sweep(
                args.sched_workers, args.scale, args.repeats, args.history)
        else:
            for name, kind in matrices:
                results["matrices"][name] = bench_matrix(
                    name, kind, args.scale, args.repeats)
            results["cache"] = bench_cache(matrices[0][0], matrices[0][1],
                                           args.scale)
    Path(args.output).write_text(json.dumps(results, indent=1))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
