"""Tuning knobs for the numeric engine (block sizes, worker counts).

The blocked dense kernels (:mod:`repro.numeric.dense`) and the
multifrontal factorizations
(:mod:`repro.numeric.cholesky` / :mod:`repro.numeric.lu`) read their
defaults from a process-global :class:`NumericTuning`.  Every knob can be
overridden per call (``block_size=`` / ``workers=`` arguments), set
globally (:func:`set_tuning`), or scoped with the :func:`tuned` context
manager::

    with tuned(block_size=96, workers=4):
        solver = SparseSolver(matrix)

Knobs:

* ``block_size`` — panel width of the right-looking blocked kernels.  The
  kernels spend their time in matrix-matrix products on panels of this
  width; 32–128 is the useful range on typical BLAS builds.  ``1``
  degenerates to the textbook per-pivot algorithm (useful as a reference
  in benchmarks).
* ``workers`` — thread count of the numeric phase.  ``1`` (the default)
  runs the supernodes serially; more dispatches each supernode to a
  thread pool once its etree children finish
  (:mod:`repro.numeric.schedule`).  NumPy's BLAS releases the GIL inside
  the dense kernels, so independent supernodes can overlap.  The factor
  is bit-identical for every value; see docs/PERFORMANCE.md for when
  more than one worker pays.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

DEFAULT_BLOCK_SIZE = 48
DEFAULT_WORKERS = 1


@dataclass(frozen=True)
class NumericTuning:
    """Performance knobs of the numeric engine."""

    block_size: int = DEFAULT_BLOCK_SIZE
    workers: int = DEFAULT_WORKERS

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


_tuning = NumericTuning()


def get_tuning() -> NumericTuning:
    """The process-global tuning currently in effect."""
    return _tuning


def set_tuning(tuning: NumericTuning) -> NumericTuning:
    """Replace the global tuning; returns the previous value."""
    global _tuning
    previous = _tuning
    _tuning = tuning
    return previous


@contextmanager
def tuned(**overrides):
    """Temporarily override tuning fields (``block_size=``, ``workers=``)
    within a ``with`` block."""
    previous = set_tuning(replace(_tuning, **overrides))
    try:
        yield _tuning
    finally:
        set_tuning(previous)


def resolve_block_size(block_size: int | None) -> int:
    """Per-call override, falling back to the global tuning."""
    return _tuning.block_size if block_size is None else int(block_size)


def resolve_workers(workers: int | None) -> int:
    """Per-call override, falling back to the global tuning."""
    return _tuning.workers if workers is None else int(workers)

