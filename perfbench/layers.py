"""Layer tracing from outside the program.

A :class:`Tracer` replaces a layer's public functions (module attributes
and class methods, looked up where their callers look them up) with
timing wrappers while it is active, and puts the originals back on exit.
Spans nest per thread, so each span's self time is its duration minus
its direct children's.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable

from spec import LAYERS


def layer_of(span: str) -> str:
    """The longest layer name that prefixes ``span``."""
    best = ""
    for layer in LAYERS:
        if (span == layer or span.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError(f"span {span!r} belongs to no layer")
    return best


class Spans:
    """Per-span call counts, inclusive and self seconds and work units
    (e.g. FLOPs), summed over every thread that called a wrapped
    function."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.root_s = 0.0    # time inside outermost spans

    def __add__(self, other: "Spans") -> "Spans":
        out = Spans()
        for part in (self, other):
            for field in ("calls", "total", "self_s", "work"):
                mine = getattr(out, field)
                for span, value in getattr(part, field).items():
                    mine[span] += value
            out.root_s += part.root_s
        return out

    def per_call(self, span: str, self_time: bool = False) -> float:
        """Mean seconds per call of ``span`` (0 if never called)."""
        calls = self.calls.get(span, 0)
        source = self.self_s if self_time else self.total
        return source.get(span, 0.0) / calls if calls else 0.0

    def layer_self(self) -> dict[str, float]:
        """Total self seconds per layer (every layer present)."""
        out = {layer: 0.0 for layer in LAYERS}
        for span, seconds in self.self_s.items():
            out[layer_of(span)] += seconds
        return out


class Tracer:
    """Holds the wrappers; records into ``self.spans`` while active."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.spans = Spans()

    def collect(self) -> Spans:
        """Return what was recorded so far and start afresh."""
        with self._lock:
            spans, self.spans = self.spans, Spans()
        return spans

    # -- patching -------------------------------------------------------

    def patch(self, owner: object, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until exit."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner: object, attr: str, name: str | Callable,
             work: Callable | None = None) -> None:
        """Time every call of ``owner.attr`` as span ``name`` (or
        ``name(args)`` when a callable), adding ``work(args)`` units."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                span = name(args) if callable(name) else name
                stack = self._stack()
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - t0
                    children = stack.pop()
                    if stack:
                        stack[-1] += duration
                    units = work(args) if work is not None else 0.0
                    with self._lock:
                        s = self.spans
                        s.calls[span] += 1
                        s.total[span] += duration
                        s.self_s[span] += duration - children
                        s.work[span] += units
                        if not stack:
                            s.root_s += duration
            return traced

        self.patch(owner, attr, make)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def sweep_name(args: tuple) -> str:
    """Split supernodal sweeps by right-hand-side width."""
    b = args[1]
    k = 1 if b.ndim == 1 else b.shape[1]
    return ("numeric.supernodal_solve.sweep_k1" if k == 1
            else "numeric.supernodal_solve.sweep_k32")


def factor_flops(args: tuple) -> float:
    return float(args[1].flops)


def trace_program(tracer: Tracer) -> None:
    """Wrap the public calls each layer receives from the layer above.

    Functions are wrapped where their callers look them up (a
    ``from x import f`` binds ``f`` into the caller's module), so the
    wrapped name is the caller's module attribute.
    """
    import repro.numeric.cache as cache
    import repro.numeric.engine as engine
    import repro.numeric.solver as solver
    import repro.symbolic.analyze as analyze
    import repro.tasks.plan as plan
    from repro.arch.sim import SpatulaSim
    from repro.serve.server import SolveServer

    tracer.wrap(analyze, "fill_reducing_ordering", "ordering.fill_reducing")
    tracer.wrap(solver, "apply_static_pivoting", "ordering.static_pivoting")
    tracer.wrap(analyze, "symbolic_factorize", "symbolic.analyze")
    tracer.wrap(solver, "symbolic_factorize", "symbolic.analyze")
    tracer.wrap(cache, "symbolic_factorize", "symbolic.analyze")
    tracer.wrap(analyze, "elimination_tree", "symbolic.etree")
    tracer.wrap(analyze, "postorder", "symbolic.etree")
    tracer.wrap(analyze, "column_structures", "symbolic.structure")
    tracer.wrap(analyze, "find_supernodes", "symbolic.supernodes")
    tracer.wrap(analyze, "build_assembly_tree", "symbolic.supernodes")
    tracer.wrap(engine.NumericContext, "__init__",
                "numeric.engine.context_build")
    tracer.wrap(solver, "row_permutation_data_map", "numeric.engine.row_map")
    tracer.wrap(solver, "multifrontal_cholesky", "numeric.factor",
                work=factor_flops)
    tracer.wrap(solver, "multifrontal_lu", "numeric.factor",
                work=factor_flops)
    tracer.wrap(solver, "cholesky_solve", sweep_name)
    tracer.wrap(solver, "lu_solve", sweep_name)
    tracer.wrap(solver.SparseSolver, "__init__", "numeric.solver.init")
    tracer.wrap(solver.SparseSolver, "refactorize",
                "numeric.solver.refactorize")
    tracer.wrap(solver.SparseSolver, "solve", "numeric.solver.solve")
    tracer.wrap(plan, "build_plan", "tasks.plan_build")
    tracer.wrap(SpatulaSim, "__init__", "arch.sim_init")
    tracer.wrap(SpatulaSim, "run", "arch.sim_run")
    tracer.wrap(SolveServer, "submit_factor", "serve.submit")
    tracer.wrap(SolveServer, "submit_solve", "serve.submit")
    tracer.wrap(SolveServer, "submit_refactorize", "serve.submit")


def layer_metrics(calls: Spans, ops: Spans, n_ops: int,
                  op_wall_s: float) -> dict:
    """The per-layer timing metrics of one traced run.

    Per-call means come from ``calls`` (the traced set-up plus the traced
    operations); self times and the unattributed remainder come from
    ``ops`` alone: ``n_ops`` operations that took ``op_wall_s`` seconds of
    wall time.  Self times are per operation; the unattributed remainder
    is the share of that wall time no outermost span covers.
    """
    analyses = calls.calls.get("symbolic.analyze", 0)

    def per_analysis(span: str) -> float:
        return calls.total.get(span, 0.0) / analyses if analyses else 0.0

    factor_s = calls.self_s.get("numeric.factor", 0.0)
    out = {
        "ordering.busy_s": per_analysis("ordering.fill_reducing"),
        "symbolic.etree_s": per_analysis("symbolic.etree"),
        "symbolic.structure_s": per_analysis("symbolic.structure"),
        "symbolic.supernodes_s": per_analysis("symbolic.supernodes"),
        "numeric.engine.context_build_s":
            calls.per_call("numeric.engine.context_build"),
        # Self time: a first factorization's context build is reported
        # on its own line above.
        "numeric.factor_s": calls.per_call("numeric.factor",
                                           self_time=True),
        "numeric.factor_gflops": (calls.work.get("numeric.factor", 0.0)
                                  / factor_s / 1e9 if factor_s else 0.0),
        "numeric.refactorize_glue_s":
            calls.per_call("numeric.solver.refactorize", self_time=True),
        "numeric.supernodal_solve.sweep_k1_s":
            calls.per_call("numeric.supernodal_solve.sweep_k1"),
        "numeric.supernodal_solve.sweep_k32_s":
            calls.per_call("numeric.supernodal_solve.sweep_k32"),
        "solve.glue_s": calls.per_call("numeric.solver.solve",
                                       self_time=True),
        "tasks.plan_build_s": calls.per_call("tasks.plan_build"),
        "arch.sim_run_s": calls.per_call("arch.sim_run"),
    }
    for layer, seconds in ops.layer_self().items():
        out[f"{layer}.self_s"] = seconds / n_ops if n_ops else 0.0
    out["unattributed_frac"] = (max(0.0, op_wall_s - ops.root_s) / op_wall_s
                                if op_wall_s > 0 else 0.0)
    return out
