"""Tests for cycle accounting and critical-path analysis."""

import dataclasses

import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim
from repro.obs.attribution import (
    BUCKETS,
    CriticalPath,
    CycleAttribution,
    _Coverage,
    _split_memory_wait,
)
from repro.sparse.suite import get_matrix, get_spec
from repro.symbolic import symbolic_factorize
from repro.tasks.plan import build_plan


def run_traced(matrix, cfg, kind="cholesky", ordering="amd"):
    symbolic = symbolic_factorize(matrix, kind=kind, ordering=ordering)
    plan = build_plan(symbolic, tile=cfg.tile, supertile=cfg.supertile)
    sim = SpatulaSim(plan, cfg, trace=True)
    report = sim.run()
    return sim, report


@pytest.fixture(scope="module")
def medium_run():
    from repro.sparse import grid_laplacian_3d

    cfg = SpatulaConfig.tiny()
    sim, report = run_traced(grid_laplacian_3d(5, seed=4), cfg)
    return sim, report, sim.attribution()


class TestConservation:
    def test_per_pe_buckets_sum_to_cycles_exactly(self, medium_run):
        sim, report, att = medium_run
        acc = att["cycles"]
        assert acc["total_cycles"] == report.cycles
        for buckets in acc["per_pe"]:
            assert set(buckets) == set(BUCKETS)
            assert sum(buckets.values()) == report.cycles

    def test_conservation_across_configs(self, spd_irregular,
                                         unsym_small):
        for matrix, kind, n_pes in [
            (spd_irregular, "cholesky", 2),
            (spd_irregular, "cholesky", 8),
            (unsym_small, "lu", 4),
        ]:
            cfg = dataclasses.replace(SpatulaConfig.tiny(), n_pes=n_pes)
            sim, report = run_traced(matrix, cfg, kind=kind)
            acc = sim.attribution()["cycles"]
            for buckets in acc["per_pe"]:
                assert sum(buckets.values()) == report.cycles

    def test_compute_matches_trace(self, medium_run):
        sim, _, att = medium_run
        acc = att["cycles"]
        traced = sum(e.duration for e in sim.trace)
        assert sum(b["compute"] for b in acc["per_pe"]) == traced
        assert sum(acc["compute_by_type"].values()) == traced

    def test_all_buckets_nonnegative(self, medium_run):
        _, _, att = medium_run
        for buckets in att["cycles"]["per_pe"]:
            assert all(v >= 0 for v in buckets.values())

    def test_requires_trace(self, spd_small, tiny_config):
        symbolic = symbolic_factorize(spd_small)
        plan = build_plan(symbolic, tile=tiny_config.tile,
                          supertile=tiny_config.supertile)
        sim = SpatulaSim(plan, tiny_config)
        sim.run()
        with pytest.raises(ValueError, match="trace"):
            sim.attribution()


class TestWhatIf:
    # Acceptance criterion: the first-order "infinite HBM bandwidth"
    # estimate must land within 25% of an *actual* re-simulation with the
    # HBM effectively infinite, on at least two suite matrices.
    @pytest.mark.parametrize("name,scale", [
        ("bmwcra_1", 0.3),
        ("Serena", 0.15),
    ])
    def test_infinite_hbm_prediction_vs_actual(self, name, scale):
        spec = get_spec(name)
        matrix = get_matrix(name, scale=scale)
        cfg = SpatulaConfig.small()
        sim, report = run_traced(matrix, cfg, ordering=spec.ordering)
        pred = sim.attribution()["cycles"]["what_if"][
            "infinite_hbm_bw_cycles"]
        cfg_inf = dataclasses.replace(cfg, hbm_gbs_per_phy=1e9)
        _, actual = run_traced(matrix, cfg_inf, ordering=spec.ordering)
        assert pred == pytest.approx(actual.cycles, rel=0.25)

    def test_estimates_bounded(self, medium_run):
        _, report, att = medium_run
        acc = att["cycles"]
        floor = max(b["compute"] for b in acc["per_pe"])
        for est in acc["what_if"].values():
            assert floor <= est <= report.cycles


class TestCriticalPath:
    def test_lower_bounds_observed_cycles(self, medium_run):
        _, report, att = medium_run
        cp = att["critical_path"]
        assert 0 < cp["cp_cycles"] <= report.cycles

    def test_lower_bound_on_every_benchmark_matrix(self):
        # Acceptance criterion: cp_cycles <= sim.cycles across the suite.
        from repro.sparse.suite import cholesky_suite, lu_suite

        cfg = SpatulaConfig.tiny()
        for spec in cholesky_suite() + lu_suite():
            matrix = get_matrix(spec.name, scale=0.06)
            kind = "cholesky" if spec.kind == "spd" else "lu"
            sim, report = run_traced(matrix, cfg, kind=kind,
                                     ordering=spec.ordering)
            cp = sim.attribution()["critical_path"]
            assert cp["cp_cycles"] <= report.cycles, spec.name

    def test_kept_graph_deps_match_rebuilt_graphs(self, medium_run):
        # attribution() hands the traced run's retained task-graph deps to
        # critical_path; rebuilding every graph must give the same path.
        from repro.obs.attribution import critical_path

        sim, _, att = medium_run
        assert set(sim._sn_deps) == set(range(sim.plan.n_supernodes))
        rebuilt = critical_path(sim.trace, sim.plan, order=sim.config.order)
        assert rebuilt.to_dict() == att["critical_path"]

    def test_untraced_run_keeps_no_graph_deps(self):
        from repro.sparse import grid_laplacian_3d

        cfg = SpatulaConfig.tiny()
        symbolic = symbolic_factorize(grid_laplacian_3d(3, seed=1))
        plan = build_plan(symbolic, tile=cfg.tile, supertile=cfg.supertile)
        sim = SpatulaSim(plan, cfg)
        sim.run()
        assert sim._sn_deps is None

    def test_path_is_a_dependence_chain(self, medium_run):
        _, _, att = medium_run
        steps = att["critical_path"]["steps"]
        assert steps, "critical path must be non-empty"
        for a, b in zip(steps, steps[1:]):
            assert a["end"] <= b["start"] or a["end"] <= b["end"]
        assert sum(s["end"] - s["start"] for s in steps) == \
            att["critical_path"]["cp_cycles"]

    def test_gap_split_nonnegative(self, medium_run):
        _, _, att = medium_run
        for s in att["critical_path"]["steps"]:
            assert s["gap_dependency"] >= 0
            assert s["gap_resource"] >= 0

    def test_top_supernodes_sorted(self, medium_run):
        _, _, att = medium_run
        tops = att["critical_path"]["top_supernodes"]
        cycles = [t["cycles"] for t in tops]
        assert cycles == sorted(cycles, reverse=True)


class TestSerialization:
    def test_cycle_attribution_roundtrip(self, medium_run):
        _, _, att = medium_run
        acc = CycleAttribution.from_dict(att["cycles"])
        acc.check_conservation()
        assert acc.to_dict()["per_pe"] == att["cycles"]["per_pe"]
        assert acc.to_dict()["what_if"] == att["cycles"]["what_if"]

    def test_critical_path_roundtrip(self, medium_run):
        _, _, att = medium_run
        cp = CriticalPath.from_dict(att["critical_path"])
        assert cp.to_dict()["cp_cycles"] == \
            att["critical_path"]["cp_cycles"]
        assert cp.to_dict()["steps"] == att["critical_path"]["steps"]

    def test_renderers(self, medium_run):
        _, report, att = medium_run
        text = CycleAttribution.from_dict(att["cycles"]).render()
        assert "sim.cycles" in text and "what-if" in text
        text = CriticalPath.from_dict(att["critical_path"]).render()
        assert "critical path" in text

    def test_tree_levels_consistent(self, medium_run):
        _, _, att = medium_run
        tree = att["cycles"]["tree"]
        assert tree["cycles"] == sum(c["cycles"]
                                     for c in tree["children"])
        for child in tree["children"]:
            if child.get("children") and child["name"] != "compute":
                assert child["cycles"] == sum(
                    g["cycles"] for g in child["children"])


class TestHelpers:
    def test_coverage_merges_and_counts(self):
        cov = _Coverage([(0, 10), (5, 15), (20, 30)])
        assert cov.covered(0, 40) == 25
        assert cov.covered(12, 22) == 5
        assert cov.covered(15, 20) == 0
        assert cov.covered(7, 7) == 0

    def test_coverage_empty(self):
        assert _Coverage([]).covered(0, 100) == 0

    def test_memory_split_exact(self):
        for wait in (0, 1, 7, 1000):
            for weights in [(1, 1, 1), (0, 0, 0), (3, 0, 5), (0, 2, 0)]:
                parts = _split_memory_wait(wait, *weights)
                assert sum(parts) == wait
                assert all(p >= 0 for p in parts)

    def test_memory_split_all_zero_weights_goes_to_cache(self):
        assert _split_memory_wait(10, 0, 0, 0) == (10, 0, 0)
