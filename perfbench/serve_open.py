"""serve_open: an in-process SolveServer under an open-loop schedule.

One generator thread (the main thread) submits every request at its due
time, whether or not earlier ones have finished: independent users make
an open loop.  The server's worker threads are its own.  Each request is
timed from its due time, so a generator stall is charged to the requests
it delays, and the generator's lateness is reported beside it.

Every response is checked, after its phase has drained, against a
direct ``SparseSolver(A_v, rhs_pad=max_batch)`` built without the
analysis cache, where ``A_v`` holds the values the tenant had when the
request was submitted.  Refactorize is a FIFO barrier on its tenant, so
that version is known at submission.  Padding to ``max_batch`` makes a
column's bits independent of the other columns of its panel, so the
reference may solve many requests as one panel and must still match
each response exactly.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from closed_loop import Outcome
from layers import Tracer, layer_metrics, trace_program
from measure import (analysis_counts, mean_of_medians, median, summary,
                     tail, timed_setup)
from numeric_workloads import ValueUpdate
from repro.numeric.cache import analysis_cache
from repro.numeric.solver import SparseSolver
from repro.serve.server import ServeConfig, SolveServer
from repro.sparse.suite import get_matrix

# A response that has not come back this long after its phase's last
# submission counts as failed.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Request:
    index: int
    tenant: int
    op: str                 # "solve" | "refactorize"
    offset: float           # due time, seconds after the phase start
    version: int            # solve: values it must see; refactorize: new
    due: float = 0.0
    late: float = 0.0
    done: float = 0.0
    batch_k: int = 0        # solve: columns of the panel it rode in
    future: concurrent.futures.Future | None = None

    @property
    def request_id(self) -> str:
        return f"bench-{self.index}"

    def finished(self, _future) -> None:
        self.done = time.perf_counter()


@dataclass
class Tenant:
    spec: object
    values: ValueUpdate
    pattern: str = ""
    version: int = 0            # values the server holds after submission
    arrivals: int = 0


@dataclass
class Phase:
    """What one open-loop phase measured."""

    rate: float
    requests: list[Request]
    latency_ms: list[float] = field(default_factory=list)
    by_tenant: dict[int, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    backlog_max: int = 0
    backlog_end: int = 0
    failed: int = 0

    def p50_ms(self) -> float:
        """Mean over tenants of each tenant's median latency: the
        tenants' solve times differ by 2x, and a median of the pooled
        latencies would sit where two tenants' distributions overlap."""
        return mean_of_medians(list(self.by_tenant.values()))

    def late_ms_max(self) -> float:
        return 1e3 * max((r.late for r in self.requests), default=0.0)


class ServeBench:
    """The server, its tenants, the seeded schedule and the checks."""

    def __init__(self, cfg, seed: int, corrupt: bool = False) -> None:
        self.cfg = cfg
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.corrupt = corrupt
        self.config = ServeConfig()
        self.server: SolveServer | None = None
        self.tenants: list[Tenant] = []
        self.next_index = 0
        # tenant -> (reference solver, the version it holds); outlives a
        # rebuilt server, since version v's values depend on v alone.
        self.references: dict[int, tuple[SparseSolver, int]] = {}

    # -- set-up -----------------------------------------------------------

    def reset(self) -> None:
        # Set-up is the first analysis of each pattern: a cached one from
        # the previous rep would skip it.
        self.close()
        self.tenants = []
        analysis_cache().clear()

    def build(self) -> None:
        self.server = SolveServer(self.config)
        self.tenants = []
        for spec in self.cfg.tenants:
            matrix = get_matrix(spec.name, spec.scale)
            tenant = Tenant(spec, ValueUpdate(matrix))
            tenant.pattern = self.server.factor(matrix,
                                                kind=spec.kind)["pattern"]
            self.tenants.append(tenant)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    # -- inputs, all from the seed ----------------------------------------

    def _values(self, tenant: int, version: int):
        t = self.tenants[tenant]
        if version == 0:
            return t.values.base
        return t.values.updated(
            np.random.default_rng([self.seed, 1, tenant, version]))

    def _rhs(self, request: Request) -> np.ndarray:
        n = self.tenants[request.tenant].values.base.n_rows
        return np.random.default_rng(
            [self.seed, 2, request.index]).standard_normal(n)

    def schedule(self, rate: float, seconds: float) -> list[Request]:
        """Poisson arrivals at ``rate`` for ``seconds``, taking the
        tenants in turn (a fixed mix, so a run's latency median does not
        move with how often the seed drew the slowest tenant); each
        tenant's every (N+1)-th arrival is a refactorize."""
        requests = []
        offset = 0.0
        every = self.cfg.refactorize_every + 1
        while True:
            offset += self.rng.exponential(1.0 / rate)
            if offset >= seconds:
                return requests
            ti = self.next_index % len(self.tenants)
            tenant = self.tenants[ti]
            tenant.arrivals += 1
            if tenant.arrivals % every == 0:
                tenant.version += 1
                op = "refactorize"
            else:
                op = "solve"
            requests.append(Request(self.next_index, ti, op, offset,
                                    tenant.version))
            self.next_index += 1

    # -- the generator ----------------------------------------------------

    def run_phase(self, rate: float, seconds: float) -> Phase:
        phase = Phase(rate, self.schedule(rate, seconds))
        server = self.server
        start = time.perf_counter()
        for i, req in enumerate(phase.requests):
            tenant = self.tenants[req.tenant]
            payload = (self._rhs(req) if req.op == "solve"
                       else self._values(req.tenant, req.version).data)
            req.due = start + req.offset
            wait = req.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            req.late = max(0.0, time.perf_counter() - req.due)
            if req.op == "solve":
                req.future = server.submit_solve(
                    tenant.pattern, payload, request_id=req.request_id)
            else:
                req.future = server.submit_refactorize(
                    tenant.pattern, payload, request_id=req.request_id)
            req.future.add_done_callback(req.finished)
            if i % 8 == 0:
                phase.backlog_max = max(phase.backlog_max,
                                        server.queue_depth())
        phase.backlog_end = server.queue_depth()
        phase.backlog_max = max(phase.backlog_max, phase.backlog_end)
        concurrent.futures.wait([r.future for r in phase.requests],
                                timeout=DRAIN_TIMEOUT_S)
        for r in phase.requests:
            if r.future.done():
                phase.latency_ms.append(1e3 * (r.done - r.due))
                phase.by_tenant[r.tenant].append(phase.latency_ms[-1])
        return phase

    # -- correctness ------------------------------------------------------

    def _reference(self, ti: int, version: int) -> SparseSolver:
        if ti not in self.references:
            t = self.tenants[ti]
            self.references[ti] = (SparseSolver(
                t.values.base, kind=t.spec.kind, use_cache=False,
                rhs_pad=self.config.effective_rhs_pad()), 0)
        solver, held = self.references[ti]
        if held != version:
            solver.refactorize(self._values(ti, version))
            self.references[ti] = (solver, version)
        return solver

    def check(self, phase: Phase) -> None:
        """Compare every response with the reference; count failures."""
        pad = self.config.effective_rhs_pad()
        groups: dict[tuple[int, int], list[Request]] = {}
        for req in phase.requests:
            if not req.future.done() or req.future.exception() is not None:
                phase.failed += 1
            elif req.op == "solve":
                groups.setdefault((req.tenant, req.version), []).append(req)
        for (ti, version), reqs in sorted(groups.items()):
            reference = self._reference(ti, version)
            for lo in range(0, len(reqs), pad):
                chunk = reqs[lo:lo + pad]
                xs = reference.solve(np.stack([self._rhs(r) for r in chunk],
                                              axis=1))
                for j, req in enumerate(chunk):
                    response = req.future.result()
                    req.batch_k = response["batch_k"]
                    got = response["x"]
                    if self.corrupt:
                        got = got + 1.0
                        self.corrupt = False
                    phase.failed += not np.array_equal(got, xs[:, j])
            for req in reqs:
                req.future = None       # the response has been checked

    # -- metrics ----------------------------------------------------------

    def sustained(self, phase: Phase) -> bool:
        """The tail meets the latency limit and the backlog is not
        growing: a server that keeps up holds at most one full panel per
        tenant when the last request of the phase goes in."""
        value, _ = tail(phase.latency_ms)
        limit_backlog = len(self.tenants) * self.config.max_batch
        return (phase.failed == 0 and 0 < value <= self.cfg.latency_limit_ms
                and phase.backlog_end <= limit_backlog)


def _batch_cols_mean(phase: Phase) -> float:
    """Real columns per solved panel.  Every request is one column, so a
    panel of k riders contributes k responses of batch_k = k."""
    ks = [r.batch_k for r in phase.requests if r.batch_k]
    return len(ks) / sum(1.0 / k for k in ks) if ks else 0.0


def _phase_detail(bench: ServeBench, phase: Phase) -> dict:
    return {"rate": phase.rate, "requests": len(phase.requests),
            "latency_ms": summary(phase.latency_ms),
            "latency_ms_p50_by_tenant": phase.p50_ms(),
            "backlog_max": phase.backlog_max,
            "backlog_end": phase.backlog_end,
            "gen_late_ms_max": phase.late_ms_max(),
            "failed": phase.failed,
            "sustained": bench.sustained(phase)}


def drive_serve(cfg, seed: int, seconds: float, trace: bool,
                corrupt: bool = False) -> Outcome:
    bench = ServeBench(cfg, seed, corrupt)
    outcome = Outcome()
    try:
        outcome.setup_s, setup_times = timed_setup(
            bench.build, cfg.setup_reps, bench.reset)
        nominal_s = cfg.nominal_share * seconds
        rung_s = (seconds - nominal_s) / len(cfg.ladder_rps)

        def measured(rate: float, span_s: float) -> Phase:
            phase = bench.run_phase(rate, span_s)
            bench.check(phase)
            outcome.attempted += len(phase.requests)
            outcome.failed += phase.failed
            return phase

        nominal = measured(cfg.nominal_rps, nominal_s)
        ladder = []
        capacity = 0.0
        for rate in cfg.ladder_rps:
            rung = measured(rate, rung_s)
            ladder.append(rung)
            if not bench.sustained(rung):
                break
            capacity = rate
        p50 = nominal.p50_ms()
        tail_ms, tail_pct = tail(nominal.latency_ms)
        late_max = nominal.late_ms_max()
        outcome.op_ms = p50
        outcome.detail = {
            "setup_times_s": setup_times,
            "nominal": _phase_detail(bench, nominal),
            "ladder": [_phase_detail(bench, r) for r in ladder],
            "latency_limit_ms": cfg.latency_limit_ms,
            "capacity_rps": capacity,
            "serve_latency_tail_pct": round(tail_pct, 2),
            # The generator fell behind its schedule: latencies include
            # its own stall, not only the server's.
            "generator_behind": late_max > cfg.gen_late_flag_ms,
        }
        if trace:
            outcome.layer.update({
                "serve_latency_ms.p50": p50,
                "serve_latency_ms.tail": tail_ms,
                "serve_capacity_rps": capacity,
                "serve.batch_cols_mean": _batch_cols_mean(nominal),
                "serve.backlog_max": nominal.backlog_max,
                "serve.gen_late_ms.max": late_max,
            })
            outcome.layer.update(_traced(bench, cfg, nominal_s, p50,
                                         outcome))
    finally:
        bench.close()
    return outcome


def _traced(bench: ServeBench, cfg, seconds: float, untraced_p50: float,
            outcome: Outcome) -> dict:
    """Set up again and run the nominal rate once more under the tracer,
    recording each response's phase breakdown as the server reports it."""
    phases: dict[str, dict[str, float]] = {}

    def capture(original):
        def note_response(server, ticket, pattern, *args, **kwargs):
            now = time.perf_counter()
            phases[ticket.request_id] = ticket.phases_ms(now)
            return original(server, ticket, pattern, *args, **kwargs)
        return note_response

    with Tracer() as tracer:
        trace_program(tracer)
        tracer.patch(SolveServer, "note_response", capture)
        bench.reset()
        bench.build()
        setup_spans = tracer.collect()
        phase = bench.run_phase(cfg.nominal_rps, seconds)
        op_spans = tracer.collect()
    bench.check(phase)
    outcome.attempted += len(phase.requests)
    outcome.failed += phase.failed

    solves = [phases[r.request_id] for r in phase.requests
              if r.op == "solve" and r.request_id in phases]
    refactors = [phases[r.request_id] for r in phase.requests
                 if r.op == "refactorize" and r.request_id in phases]
    wall = sum(r.done - r.due for r in phase.requests)
    out = layer_metrics(setup_spans + op_spans, op_spans,
                        len(phase.requests), wall)
    server_s = sum(sum(p.values()) for p in phases.values()) / 1e3
    out.update({
        "serve.queue_wait_ms.p50": median([p["queue_wait"] for p in solves]),
        "serve.coalesce_wait_ms.p50":
            median([p["coalesce_wait"] for p in solves]),
        "serve.solve_ms.p50": median([p["solve"] for p in solves]),
        "serve.refactorize_ms.p50": median([p["solve"] for p in refactors]),
        # Time from due to done that the server's own phases do not
        # cover: generator lateness, submission and completion hand-off.
        "unattributed_frac": max(0.0, wall - server_s) / wall if wall else 0.0,
        "trace_overhead_frac":
            phase.p50_ms() / untraced_p50 - 1.0
            if untraced_p50 else 0.0,
    })
    out.update(analysis_counts(
        [solver.symbolic for solver, _ in bench.references.values()]))
    return out
