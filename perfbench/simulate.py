"""simulate: the Spatula cycle simulator over plans built in set-up.

The simulator is deterministic: its statistics depend on the plan and
the configuration only, so they are reported as exact counts.  The seed
only rotates the order the cases start in.
"""

from __future__ import annotations

import dataclasses
import time

import repro.symbolic.analyze as analyze
import repro.tasks.plan as plan_module
from measure import analysis_counts, mean_of_medians, summary
from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim
from repro.sparse.suite import get_matrix, get_spec


def _config(cache_mb: float | None) -> SpatulaConfig:
    paper = SpatulaConfig.paper()
    return paper if cache_mb is None else \
        dataclasses.replace(paper, cache_mb=cache_mb)


def plan_task_count(plan) -> int:
    """Tasks in the plan, counted from its per-supernode task graphs."""
    return sum(plan.task_graph(sn).n_tasks
               for sn in range(plan.n_supernodes))


class Simulate:
    def __init__(self, cfg, seed: int, corrupt: bool = False) -> None:
        shift = seed % len(cfg.cases)
        self.cases = cfg.cases[shift:] + cfg.cases[:shift]
        self.cfg = cfg
        self.n_cases = len(self.cases)
        self.corrupt = corrupt
        self.configs = [_config(case.cache_mb) for case in self.cases]
        self.plans: dict = {}
        self.expected_tasks: dict = {}
        self.reports: dict = {}

    def reset(self) -> None:
        self.plans = {}

    def build(self) -> None:
        # One analysis and plan per matrix: the cache size changes the
        # machine, not the plan.
        for case, config in zip(self.cases, self.configs):
            m = case.matrix
            if m in self.plans:
                continue
            symbolic = analyze.symbolic_factorize(
                get_matrix(m.name, m.scale), kind=m.kind,
                ordering=get_spec(m.name).ordering)
            self.plans[m] = plan_module.build_plan(
                symbolic, tile=config.tile, supertile=config.supertile)

    def new_samples(self) -> list[list[float]]:
        return [[] for _ in self.cases]

    def op(self, case: int) -> tuple[float, bool]:
        matrix = self.cases[case].matrix
        plan = self.plans[matrix]
        t0 = time.perf_counter()
        report = SpatulaSim(plan, self.configs[case]).run()
        seconds = time.perf_counter() - t0
        self.samples[case].append(seconds)
        if matrix not in self.expected_tasks:
            self.expected_tasks[matrix] = plan_task_count(plan)
        # The simulator is deterministic: a repeat must match the first
        # run of its case cycle for cycle.
        first = self.reports.setdefault(self.cases[case].name, report)
        tasks = report.n_tasks + (1 if self.corrupt else 0)
        self.corrupt = False
        return seconds, (tasks == self.expected_tasks[matrix]
                         and report.cycles == first.cycles)

    def op_ms(self) -> float:
        return 1e3 * mean_of_medians(self.samples)

    def headline(self) -> dict:
        tasks = sum(r.n_tasks for r in self.reports.values())
        return {
            # Tasks of one pass over the cases / host seconds of one pass.
            "sim_tasks_per_s": tasks / (
                mean_of_medians(self.samples) * self.n_cases),
            "sim_cycles": sum(r.cycles for r in self.reports.values()),
        }

    def counts(self) -> dict:
        out = analysis_counts([p.symbolic for p in self.plans.values()])
        out["tasks.n_tasks"] = sum(self.expected_tasks.values())
        for case in self.cases:
            r = self.reports[case.name]
            prefix = f"arch.{case.name}"
            out[f"{prefix}.cache_hits"] = r.cache_hits
            out[f"{prefix}.cache_misses"] = r.cache_misses
            out[f"{prefix}.hbm_bytes"] = r.total_dram_bytes
            out[f"{prefix}.pe_busy_frac"] = sum(r.pe_busy_cycles) / (
                r.cycles * r.config.n_pes)
            out[f"{prefix}.load_imbalance"] = r.load_imbalance()
        return out

    def detail(self) -> dict:
        return {
            "sim_host_s": {c.name: summary(s)
                           for c, s in zip(self.cases, self.samples)},
            **self.headline(),
        }
