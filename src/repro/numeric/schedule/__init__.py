"""Execution of the numeric phase's per-supernode tasks.

:mod:`.base` holds the job and stats model; :mod:`.dag` holds the one
entry point, :func:`run_dag`.  With ``workers <= 1`` it runs the
supernodes serially in ascending order; with more, a dependence-count
dispatcher fires each supernode on a thread pool once its etree
children finish.  The factor is bitwise identical for every worker
count.
"""

from __future__ import annotations

from .base import ScheduleStats, SupernodeJob
from .dag import run_dag

__all__ = [
    "ScheduleStats",
    "SupernodeJob",
    "run_dag",
]
