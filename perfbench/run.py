#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Run from the repository root::

    python3 perfbench/run.py --workload timestep --seed 1 --seconds 20

The workloads and what every metric means are defined in
``perfbench/spec.py``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are the end-to-end set (``--trace 0``) or the per-layer set
(``--trace 1``), each as ``{"value": v, "unit": u}``.  The line before it
is a JSON detail record: the environment stamp, per-case sample counts,
medians and tails, and the percentile each tail used.  The exit status
is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spec  # noqa: E402
from closed_loop import drive  # noqa: E402
from envstamp import environment  # noqa: E402
from numeric_workloads import ColdSolve, Timestep  # noqa: E402
from serve_open import drive_serve  # noqa: E402
from simulate import Simulate  # noqa: E402

CLOSED_LOOP = {"cold_solve": ColdSolve, "timestep": Timestep,
               "simulate": Simulate}


def outcome(name: str, cfg, seed: int, seconds: float, trace: bool,
            corrupt: bool = False):
    if name == "serve_open":
        return drive_serve(cfg, seed, seconds, trace, corrupt)
    return drive(CLOSED_LOOP[name](cfg, seed, corrupt), seconds, trace)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(name: str, seed: int, seconds: float, trace: bool, cfg=None,
           corrupt: bool = False) -> tuple[dict, dict]:
    """Run a workload; return (result line, detail record)."""
    out = outcome(name, cfg or spec.WORKLOADS[name], seed, seconds, trace,
                  corrupt)
    if trace:
        unknown = set(out.layer) - set(spec.PER_LAYER)
        if unknown:
            raise KeyError(f"metrics missing from spec: {sorted(unknown)}")
        table = spec.PER_LAYER
        values = {m: out.layer.get(m, 0.0) for m in table}
    else:
        table = spec.END_TO_END
        values = {"setup_s": out.setup_s, "peak_rss_mb": peak_rss_mb(),
                  "op_ms.p50": out.op_ms}
    line = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m: {"value": float(values[m]), "unit": table[m][0]}
                    for m in table},
    }
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "op": spec.OP_DEFINITION[name],
              "environment": environment(), **out.detail}
    return line, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    line, detail = result(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
