"""Golden simulator identity: simulated behaviour never drifts.

The cycle simulator is deterministic, so host-side speed work on it (the
dispatcher, the generator scan, the cache model) must leave every
simulated number unchanged.  This test pins, per case,

* ``cycles``, cache hits / misses / allocations / dirty evictions and
  ``total_dram_bytes``;
* per-PE busy cycles and read-port stall cycles;
* ``peak_live_front_bytes`` and a digest of ``sn_intervals``;
* a SHA-256 digest (first 16 hex digits, as for ``sn_intervals``) of
  the ``trace=True`` event list, one
  ``(pe, start, end, sn, task_index, dispatch, op_ready)`` row per
  executed task in the order tasks start,

for the three cases of the benchmark's ``simulate`` workload and for
seeded :mod:`repro.verify.generators` cases on the tiny and small
machines under every dispatch policy and scheduler ablation.

Regenerate the golden file only when a change is *meant* to alter
simulated behaviour::

    PYTHONPATH=src python tests/test_sim_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim
from repro.sparse.suite import get_matrix, get_spec
from repro.symbolic.analyze import symbolic_factorize
from repro.tasks.plan import build_plan
from repro.verify.generators import build_case, family_names

GOLDEN = Path(__file__).with_name("sim_golden.json")

# The benchmark's simulate cases: (id, matrix, kind, scale, cache_mb),
# analyzed with the suite's recommended ordering.
WORKLOAD_CASES = [
    ("serena_paper", "Serena", "cholesky", 0.5, None),
    ("serena_1mb", "Serena", "cholesky", 0.5, 1.0),
    ("atmosmodd_paper", "atmosmodd", "lu", 0.5, None),
]

# Machine variants for the generator cases: every policy plus each
# scheduler ablation, on the tiny and small machines.
VARIANTS = {
    "intra+inter": {},
    "intra": {"policy": "intra"},
    "inter": {"policy": "inter"},
    "fifo": {"sn_order": "fifo"},
    "rowmajor": {"order": "rowmajor"},
    "window4": {"dataflow_window": 4},
    "pes1": {"n_pes": 1},
}
MACHINES = {"tiny": SpatulaConfig.tiny, "small": SpatulaConfig.small}
GEN_SEEDS = (0, 1)
GEN_MAX_N = 96


def _digest(rows) -> str:
    data = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def fingerprint(plan, config: SpatulaConfig) -> dict:
    """Simulated statistics of one traced run."""
    sim = SpatulaSim(plan, config, trace=True)
    report = sim.run()
    value = report.metrics.value
    trace = [(e.pe, e.start, e.end, e.sn, e.task_index, e.dispatch,
              e.op_ready) for e in sim.trace]
    return {
        "cycles": int(report.cycles),
        "cache_hits": int(report.cache_hits),
        "cache_misses": int(report.cache_misses),
        "cache_allocations": int(report.cache_allocations),
        "dirty_evictions": int(value("cache.dirty_evictions")),
        "total_dram_bytes": int(report.total_dram_bytes),
        "pe_busy_cycles": [int(c) for c in report.pe_busy_cycles],
        "pe_port_stall_cycles": [
            int(value(f"pe.{i}.port_stall_cycles"))
            for i in range(config.n_pes)
        ],
        "peak_live_front_bytes": int(report.peak_live_front_bytes),
        "sn_intervals": _digest(report.sn_intervals),
        "trace": _digest(trace),
    }


def _workload_case(name, matrix, kind, scale, cache_mb) -> dict:
    config = SpatulaConfig.paper()
    if cache_mb is not None:
        config = dataclasses.replace(config, cache_mb=cache_mb)
    symbolic = symbolic_factorize(get_matrix(matrix, scale), kind=kind,
                                  ordering=get_spec(matrix).ordering)
    plan = build_plan(symbolic, tile=config.tile,
                      supertile=config.supertile)
    return fingerprint(plan, config)


def _gen_cases() -> dict:
    """Fingerprints of every generator case, by golden key."""
    out = {}
    for family in family_names():
        for seed in GEN_SEEDS:
            case = build_case(family, seed, max_n=GEN_MAX_N)
            symbolic = symbolic_factorize(case.matrix, kind=case.kind,
                                          ordering="amd")
            for machine, make in MACHINES.items():
                base = make()
                plan = build_plan(symbolic, tile=base.tile,
                                  supertile=base.supertile)
                for variant, overrides in VARIANTS.items():
                    key = f"{family}[seed={seed}]:{machine}:{variant}"
                    out[key] = fingerprint(plan, make(**overrides))
    return out


def compute_all() -> dict:
    golden = {c[0]: _workload_case(*c) for c in WORKLOAD_CASES}
    golden.update(_gen_cases())
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", WORKLOAD_CASES, ids=lambda c: c[0])
def test_workload_simulation_identical(golden, case):
    assert _workload_case(*case) == golden[case[0]]


def test_generator_simulations_identical(golden):
    got = _gen_cases()
    drift = {key: (value, golden.get(key)) for key, value in got.items()
             if value != golden.get(key)}
    assert not drift, drift
    assert set(golden) == {c[0] for c in WORKLOAD_CASES} | set(got)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sim_golden.py --write")
    # One case per line: diffs name the cases that moved.
    rows = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(compute_all().items())]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {GOLDEN}")
