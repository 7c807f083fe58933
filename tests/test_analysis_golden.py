"""Golden analysis identity: the cold analysis path never drifts.

Ordering, elimination tree, supernode partition and the numeric
context's scatter maps are pure functions of the nonzero pattern.  Speed
work on that path (AMD, amalgamation, assembly maps) must leave every
one of them byte-identical, so this test pins SHA-256 digests of

* ``perm`` and ``etree_parent``;
* each supernode's ``(first_col, last_col, rows)``;
* ``factor_nnz`` and ``flops`` (stored plainly);
* the :class:`~repro.numeric.engine.NumericContext` ``flat_pos`` /
  ``data_idx`` arrays,

for every matrix/scale pair the benchmark workloads analyze (mirroring
how each workload analyzes it) and for seeded cases of every
:mod:`repro.verify.generators` family.

Regenerate the golden file only when a change is *meant* to alter the
analysis::

    PYTHONPATH=src python tests/test_analysis_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.numeric.engine import numeric_context
from repro.ordering.pivoting import apply_static_pivoting
from repro.sparse.suite import get_matrix
from repro.symbolic.analyze import symbolic_factorize
from repro.verify.generators import build_case, family_names

GOLDEN = Path(__file__).with_name("analysis_golden.json")

# (name, kind, scale, ordering, static_pivot): the analyses of the
# cold_solve, timestep and serve_open workloads (SparseSolver: AMD, LU
# statically pivoted first) and of simulate (symbolic_factorize with the
# suite's recommended ordering on the raw matrix).
SUITE_PAIRS = [
    ("Serena", "cholesky", 0.35, "amd", False),
    ("G3_circuit", "cholesky", 0.35, "amd", False),
    ("atmosmodd", "lu", 0.35, "amd", True),
    ("FullChip", "lu", 0.35, "amd", True),
    ("Serena", "cholesky", 0.5, "amd", False),
    ("G3_circuit", "cholesky", 0.5, "amd", False),
    ("FullChip", "lu", 0.5, "amd", True),
    ("Serena", "cholesky", 0.5, "nd", False),
    ("atmosmodd", "lu", 0.5, "nd", False),
    ("G3_circuit", "cholesky", 0.25, "amd", False),
    ("rajat31", "lu", 0.25, "amd", True),
    ("TSOPF_b2383", "lu", 0.5, "amd", True),
]

# Generator cases: three seeds per family at the fuzzer's default size
# and at a larger size (which reaches AMD's dense-row deferral and
# supervariable merging), each also analyzed with forced amalgamation
# of small fronts (force_small, the simulator's setting).
GEN_SEEDS = (0, 1, 2)
GEN_SIZES = (48, 240)
FORCE_SMALL = (0, 64)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def fingerprint(matrix, kind: str, ordering: str = "amd",
                force_small: int = 0) -> dict:
    """Digests of one analysis and its numeric context."""
    symbolic = symbolic_factorize(matrix, kind=kind, ordering=ordering,
                                  force_small=force_small)
    sn_hash = hashlib.sha256()
    for sn in symbolic.tree.supernodes:
        sn_hash.update(_digest([sn.first_col, sn.last_col], sn.rows)
                       .encode())
    ctx = numeric_context(symbolic, matrix)
    maps = hashlib.sha256()
    for flat, data in zip(ctx.flat_pos, ctx.data_idx):
        maps.update(_digest(flat, data).encode())
    return {
        "perm": _digest(symbolic.perm),
        "etree": _digest(symbolic.etree_parent),
        "supernodes": sn_hash.hexdigest()[:16],
        "maps": maps.hexdigest()[:16],
        "factor_nnz": int(symbolic.factor_nnz),
        "flops": int(symbolic.flops),
    }


def _suite_case(name, kind, scale, ordering, static_pivot) -> dict:
    matrix = get_matrix(name, scale)
    if static_pivot:
        matrix, _ = apply_static_pivoting(matrix)
    return fingerprint(matrix, kind, ordering)


def _suite_id(pair) -> str:
    name, kind, scale, ordering, _ = pair
    return f"{name}@{scale:g}:{kind}:{ordering}"


def _gen_cases() -> dict:
    """Fingerprints of every generator case, by golden key."""
    out = {}
    for family in family_names():
        for seed in GEN_SEEDS:
            for size in GEN_SIZES:
                case = build_case(family, seed, max_n=size)
                for force in FORCE_SMALL:
                    key = (f"{family}[seed={seed},max_n={size},"
                           f"force_small={force}]")
                    out[key] = fingerprint(case.matrix, case.kind,
                                           force_small=force)
    return out


def compute_all() -> dict:
    golden = {_suite_id(p): _suite_case(*p) for p in SUITE_PAIRS}
    golden.update(_gen_cases())
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("pair", SUITE_PAIRS, ids=_suite_id)
def test_workload_analysis_identical(golden, pair):
    assert _suite_case(*pair) == golden[_suite_id(pair)]


def test_generator_analyses_identical(golden):
    got = _gen_cases()
    drift = {key: (value, golden.get(key)) for key, value in got.items()
             if value != golden.get(key)}
    assert not drift, drift
    suite = {_suite_id(p) for p in SUITE_PAIRS}
    assert set(golden) == suite | set(got)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_analysis_golden.py --write")
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
