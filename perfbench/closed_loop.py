"""The closed-loop runner shared by cold_solve, timestep and simulate.

A closed loop starts the next operation when the previous one has
finished; one thread drives the program.  A workload object supplies:

* ``cfg.setup_reps`` and ``build()``: the set-up, timed that many times;
  ``reset()`` runs untimed before each rep and drops what the previous
  rep left behind;
* ``n_cases`` and ``op(case)``: one operation on one case, which times
  its own timed region, appends to ``self.samples`` (a fresh
  ``new_samples()`` per measurement) and returns ``(seconds_timed,
  ok)``, its correctness check done outside the timed region;
* ``op_ms()``, ``headline()`` and ``detail()``: the end-to-end
  ``op_ms.p50``, the workload's headline numbers and its per-case
  summaries, all from ``self.samples``;
* ``counts()``: exact structural counts of what was set up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from layers import Tracer, layer_metrics, trace_program
from measure import run_rounds, timed_setup


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    op_ms: float = 0.0
    layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def _measure(workload, seconds: float, outcome: Outcome
             ) -> tuple[int, float, float]:
    """Run whole rounds for ``seconds``; return (ops, timed seconds,
    wall seconds per round)."""
    ops = 0
    timed = 0.0

    def one(case: int) -> None:
        nonlocal ops, timed
        seconds_timed, ok = workload.op(case)
        ops += 1
        timed += seconds_timed
        outcome.attempted += 1
        outcome.failed += not ok

    start = time.perf_counter()
    rounds = run_rounds(workload.n_cases, one, seconds)
    return ops, timed, (time.perf_counter() - start) / rounds


def drive(workload, seconds: float, trace: bool) -> Outcome:
    """Set up, measure untraced for ``seconds``, and with ``trace`` also
    set up once more and measure traced for half as long."""
    outcome = Outcome()
    outcome.setup_s, setup_times = timed_setup(
        workload.build, workload.cfg.setup_reps, workload.reset)
    workload.samples = workload.new_samples()
    _, _, round_s = _measure(workload, seconds, outcome)
    outcome.op_ms = workload.op_ms()
    outcome.detail = {"setup_times_s": setup_times,
                      "round_s": round_s, **workload.detail()}
    if not trace:
        return outcome
    outcome.layer.update(workload.headline())
    with Tracer() as tracer:
        trace_program(tracer)
        workload.reset()
        workload.build()
        setup_spans = tracer.collect()
        workload.samples = workload.new_samples()
        n_ops, timed, traced_round_s = _measure(workload, seconds / 2,
                                                outcome)
        op_spans = tracer.collect()
    outcome.layer.update(layer_metrics(setup_spans + op_spans, op_spans,
                                       n_ops, timed))
    outcome.layer.update(workload.counts())
    outcome.layer["trace_overhead_frac"] = traced_round_s / round_s - 1.0
    return outcome
