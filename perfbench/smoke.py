#!/usr/bin/env python3
"""The benchmark's own smoke check (about a minute).

Run from the repository root::

    python3 perfbench/smoke.py

At the smallest suite scale and for about a second per run, every
workload must emit every metric of BENCHMARK.json with its unit, untraced
and traced, with all checks passing; and a deliberately corrupted answer
must be counted as a failed operation.  Exits 1 on any problem.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run
import spec

TINY = 0.25     # the smallest scale the suite generators accept


def tiny(name: str):
    cfg = spec.WORKLOADS[name]
    small = {"setup_reps": 1}
    if name == "simulate":
        small["cases"] = tuple(
            dataclasses.replace(c, matrix=dataclasses.replace(
                c.matrix, scale=TINY)) for c in cfg.cases)
    elif name == "serve_open":
        small["tenants"] = tuple(dataclasses.replace(m, scale=TINY)
                                 for m in cfg.tenants)
        small["ladder_rps"] = cfg.ladder_rps[:1]
    else:
        small["matrices"] = tuple(dataclasses.replace(m, scale=TINY)
                                  for m in cfg.matrices)
    return dataclasses.replace(cfg, **small)


def problems_with_benchmark_json() -> list[str]:
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    out = []
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        out.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    for key, table in (("end_to_end", spec.END_TO_END),
                       ("per_layer", spec.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        if listed != table:
            out.append(f"BENCHMARK.json {key} differs from spec")
    return out


def problems_with_run(name: str, trace: bool, corrupt: bool) -> list[str]:
    line, _ = run.result(name, seed=0, seconds=1.5, trace=trace,
                         cfg=tiny(name), corrupt=corrupt)
    where = f"{name} trace={int(trace)} corrupt={int(corrupt)}"
    table = spec.PER_LAYER if trace else spec.END_TO_END
    out = []
    units = {m: v["unit"] for m, v in line["metrics"].items()}
    if units != {m: unit for m, (unit, _) in table.items()}:
        out.append(f"{where}: metrics or units differ from spec")
    if line["attempted"] < 1:
        out.append(f"{where}: attempted nothing")
    if corrupt:
        if line["failed"] < 1 or line["correct"]:
            out.append(f"{where}: a corrupted answer was not counted")
    elif line["failed"] or not line["correct"]:
        out.append(f"{where}: {line['failed']} operations failed")
    if not trace and not all(v["value"] > 0
                             for v in line["metrics"].values()):
        out.append(f"{where}: an end-to-end metric is not positive")
    return out


def main() -> int:
    problems = problems_with_benchmark_json()
    for name in spec.WORKLOADS:
        for trace, corrupt in ((False, False), (True, False),
                               (False, True)):
            found = problems_with_run(name, trace, corrupt)
            print(f"{name} trace={int(trace)} corrupt={int(corrupt)}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print("problem:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
