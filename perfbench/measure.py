"""Timing helpers shared by the workloads: quantiles, the tail rule, the
closed-loop round runner and repeated set-up."""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Sequence

from spec import TAIL_BEYOND

# Fronts at most this many rows are the paper's small supernodes (Fig. 6).
SMALL_FRONT = 32


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that keeps at least
    ``TAIL_BEYOND`` samples beyond it; (0, 0) with too few samples.

    The percentile is the order statistic with exactly ``TAIL_BEYOND``
    larger samples, so it is a measured value, not an interpolation.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return 0.0, 0.0
    rank = n - TAIL_BEYOND - 1
    return float(sorted(values)[rank]), 100.0 * rank / (n - 1)


def summary(values: Sequence[float]) -> dict:
    """Median, tail and sample count of one timing, for the detail line."""
    value, pct = tail(values)
    return {"n": len(values), "p50": median(values), "tail": value,
            "tail_pct": round(pct, 2)}


def timed_setup(build: Callable[[], None], reps: int,
                reset: Callable[[], None]) -> tuple[float, list[float]]:
    """Run ``build`` ``reps`` times; return the median and every time.
    ``reset`` runs untimed before each rep and drops what the previous
    rep left behind (its state, or a cache that would skip work)."""
    times = []
    for _ in range(reps):
        reset()
        t0 = time.perf_counter()
        build()
        times.append(time.perf_counter() - t0)
    return median(times), times


def run_rounds(n_cases: int, op: Callable[[int], None],
               seconds: float) -> int:
    """Call ``op(case)`` for every case in turn, in whole rounds, for
    about ``seconds``; return the number of rounds run (at least one).

    After the first round, a round starts only if one more of the
    previous round's length still fits, so every case is sampled equally
    often and the run ends within about a round of ``seconds``.
    """
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + last > seconds:
            return rounds
        t0 = time.perf_counter()
        for case in range(n_cases):
            op(case)
        last = time.perf_counter() - t0
        rounds += 1


def mean_of_medians(samples: Sequence[Sequence[float]]) -> float:
    """Mean over cases of each case's median: stable under a mix of
    cases whose costs differ by several times."""
    meds = [median(s) for s in samples if s]
    return math.fsum(meds) / len(meds) if meds else 0.0


def analysis_counts(analyses: Sequence) -> dict:
    """Exact structural counts over distinct symbolic analyses."""
    sizes, flops = [], []
    for sym in analyses:
        sizes.extend(sym.supernode_sizes().tolist())
        flops.extend(sym.supernode_flops().tolist())
    small = [f for s, f in zip(sizes, flops) if s <= SMALL_FRONT]
    return {
        "ordering.fill_nnz": sum(sym.factor_nnz for sym in analyses),
        "symbolic.n_supernodes": sum(sym.n_supernodes for sym in analyses),
        "symbolic.flops": sum(sym.flops for sym in analyses),
        "symbolic.small_front_frac":
            len(small) / len(sizes) if sizes else 0.0,
        "symbolic.small_front_flops_frac":
            sum(small) / sum(flops) if sum(flops) else 0.0,
    }
