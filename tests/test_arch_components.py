"""Unit tests for simulator components: config, timing, memory system,
NoC, PEs, generators, and the supernode scheduler."""

import random

import pytest

from repro.arch.cache import BankedCache
from repro.arch.config import SpatulaConfig
from repro.arch.generator import Generator
from repro.arch.memory import HBMModel, TRAFFIC_KINDS
from repro.arch.noc import CrossbarPort, aggregate_bandwidth_tbs
from repro.arch.pe import PE, PendingTask
from repro.arch.scheduler import SupernodeScheduler
from repro.arch.sim import SpatulaSim
from repro.arch.systolic import task_input_tiles, task_latency
from repro.symbolic import symbolic_factorize
from repro.symbolic.tiling import TileGrid
from repro.tasks.graph import build_task_graph
from repro.tasks.plan import build_plan
from repro.tasks.task import Task, TaskType, TileRef


class TestConfig:
    def test_paper_peak_matches_table2(self):
        cfg = SpatulaConfig.paper()
        assert cfg.peak_tflops == pytest.approx(16.384)
        assert cfg.tile_bytes == 2048  # one 2 KB cache line per tile

    def test_hbm_bandwidth(self):
        cfg = SpatulaConfig.paper()
        total = cfg.hbm_channels * cfg.hbm_bytes_per_cycle_per_channel
        assert total * cfg.freq_ghz == pytest.approx(1024.0)  # 1 TB/s

    def test_cache_geometry(self):
        cfg = SpatulaConfig.paper()
        assert cfg.cache_lines == 8192  # 16 MB / 2 KB
        assert cfg.cache_sets_per_bank * cfg.cache_ways \
            * cfg.cache_banks == cfg.cache_lines

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SpatulaConfig(n_pes=0)
        with pytest.raises(ValueError):
            SpatulaConfig(policy="magic")

    def test_named_configs_scale_down(self):
        assert SpatulaConfig.small().peak_tflops \
            < SpatulaConfig.paper().peak_tflops
        assert SpatulaConfig.tiny().peak_tflops \
            < SpatulaConfig.small().peak_tflops

    def test_overrides(self):
        cfg = SpatulaConfig.paper(n_pes=64)
        assert cfg.n_pes == 64
        assert cfg.tile == 16


class TestSystolicTiming:
    def setup_method(self):
        self.cfg = SpatulaConfig.paper()
        self.ref = TileRef(0, 0, 0)

    def test_dgemm_latency_scales_with_pairs(self):
        t1 = Task(ttype=TaskType.DGEMM, dest=self.ref, n_pairs=1)
        t4 = Task(ttype=TaskType.DGEMM, dest=self.ref, n_pairs=4)
        assert task_latency(t1, self.cfg) == 16
        assert task_latency(t4, self.cfg) == 64

    def test_dchol_latency_bound(self):
        t = Task(ttype=TaskType.DCHOL, dest=self.ref)
        # Critical path of T divide/sqrt stages plus drain.
        assert task_latency(t, self.cfg) \
            == 16 * self.cfg.divsqrt_latency + 32

    def test_dlu_same_as_dchol(self):
        chol = Task(ttype=TaskType.DCHOL, dest=self.ref)
        lu = Task(ttype=TaskType.DLU, dest=self.ref)
        assert task_latency(chol, self.cfg) == task_latency(lu, self.cfg)

    def test_tsolve_short(self):
        t = Task(ttype=TaskType.TSOLVE, dest=self.ref)
        assert task_latency(t, self.cfg) == 32

    def test_gather_scales_with_inputs(self):
        inputs = [TileRef(1, 0, 0), TileRef(2, 0, 0), TileRef(3, 0, 0)]
        t = Task(ttype=TaskType.GATHER, dest=self.ref, inputs=inputs)
        assert task_latency(t, self.cfg) == 3 * 16

    def test_input_tiles_deduplicated(self):
        a = TileRef(0, 1, 0)
        t = Task(ttype=TaskType.DGEMM, dest=self.ref, inputs=[a, a],
                 n_pairs=1)
        tiles = task_input_tiles(t)
        assert tiles == [self.ref, a]


class TestHBM:
    def test_read_accounts_traffic(self):
        cfg = SpatulaConfig.tiny()
        hbm = HBMModel(cfg)
        done = hbm.read_line(0, 0, "factor_load")
        assert done >= cfg.hbm_latency
        assert hbm.bytes_by_kind["factor_load"] == cfg.tile_bytes

    def test_channel_serializes(self):
        cfg = SpatulaConfig.tiny()
        hbm = HBMModel(cfg)
        d1 = hbm.read_line(0, 0, "factor_load")
        d2 = hbm.read_line(0, 0, "factor_load")
        assert d2 > d1

    def test_different_channels_parallel(self):
        cfg = SpatulaConfig.tiny()
        hbm = HBMModel(cfg)
        d1 = hbm.read_line(0, 0, "factor_load")
        d2 = hbm.read_line(1, 0, "factor_load")
        assert d1 == d2

    def test_bulk_read_spreads(self):
        cfg = SpatulaConfig.tiny()
        hbm = HBMModel(cfg)
        hbm.read_bulk(10_000, 0, "comp_load")
        assert hbm.bytes_by_kind["comp_load"] == 10_000
        assert max(hbm.channel_free) > 0

    def test_traffic_kinds_complete(self):
        hbm = HBMModel(SpatulaConfig.tiny())
        assert set(hbm.bytes_by_kind) == set(TRAFFIC_KINDS)


class TestCache:
    def make(self, cfg=None):
        cfg = cfg or SpatulaConfig.tiny()
        hbm = HBMModel(cfg)
        return BankedCache(cfg, hbm), hbm, cfg

    def test_first_touch_allocates_without_dram(self):
        cache, hbm, _ = self.make()
        cache.load(0, 0, "factor_load")
        assert cache.stats.allocations == 1
        assert cache.stats.misses == 0
        assert hbm.total_bytes == 0

    def test_second_load_hits(self):
        cache, _, _ = self.make()
        cache.load(0, 0, "factor_load")
        cache.load(0, 10, "factor_load")
        assert cache.stats.hits == 1

    def test_eviction_and_refetch(self):
        cfg = SpatulaConfig.tiny()
        cache, hbm, _ = self.make(cfg)
        # Touch way more tiles than fit, striding within one set.
        stride = cfg.cache_banks * cfg.cache_sets_per_bank
        addrs = [k * stride for k in range(cfg.cache_ways + 2)]
        for a in addrs:
            cache.store(a, 0)
        # Oldest two got evicted dirty -> spills.
        assert cache.stats.dirty_evictions == 2
        cache.load(addrs[0], 100, "factor_load")
        assert cache.stats.misses == 1
        assert hbm.bytes_by_kind["factor_load"] == cfg.tile_bytes

    def test_lru_order(self):
        cfg = SpatulaConfig.tiny()
        cache, _, _ = self.make(cfg)
        stride = cfg.cache_banks * cfg.cache_sets_per_bank
        addrs = [k * stride for k in range(cfg.cache_ways)]
        for a in addrs:
            cache.store(a, 0)
        cache.load(addrs[0], 1, "factor_load")  # refresh oldest
        cache.store(stride * 100, 2)            # evicts addrs[1], not [0]
        cache.load(addrs[0], 3, "factor_load")
        assert cache.stats.misses == 0

    def test_store_classification(self):
        cache, hbm, cfg = self.make()
        cache.classify_store = lambda addr: "store_result"
        stride = cfg.cache_banks * cfg.cache_sets_per_bank
        for k in range(cfg.cache_ways + 1):
            cache.store(k * stride, 0)
        assert hbm.bytes_by_kind["store_result"] == cfg.tile_bytes

    def test_flush_only_results(self):
        cache, hbm, _ = self.make()
        cache.store(0, 0)
        cache.store(1, 0)
        cache.flush_results(10, is_result=lambda addr: addr == 0)
        assert hbm.bytes_by_kind["store_result"] == cache.config.tile_bytes

    def test_hit_rate_stat(self):
        cache, _, _ = self.make()
        cache.load(0, 0, "factor_load")
        cache.load(0, 1, "factor_load")
        cache.load(0, 2, "factor_load")
        assert cache.stats.hit_rate == pytest.approx(1.0)


class TestNoC:
    def test_port_reservation(self):
        port = CrossbarPort(bytes_per_cycle=256)
        done1 = port.reserve(0, 2048)
        done2 = port.reserve(0, 2048)
        assert done1 == 8 and done2 == 16

    def test_aggregate_bandwidth(self):
        # The paper's sizing: 32 PEs x 256 B/cycle at 1 GHz = 8 TB/s.
        assert aggregate_bandwidth_tbs(32, 256, 1.0) == pytest.approx(8.192)


class TestPE:
    def test_slots_and_pending(self):
        pe = PE(index=0, n_slots=2)
        assert pe.slots_free == 2
        pe.add_pending(PendingTask(0, 0, op_ready=5, stream_done=5,
                                   latency=10))
        assert pe.slots_free == 1
        with pytest.raises(AssertionError):
            pe.add_pending(PendingTask(0, 1, 0, 0, 1))
            pe.add_pending(PendingTask(0, 2, 0, 0, 1))
            pe.add_pending(PendingTask(0, 3, 0, 0, 1))

    def test_pick_earliest_runnable(self):
        pe = PE(index=0, n_slots=4)
        late = PendingTask(0, 1, op_ready=9, stream_done=9, latency=1)
        early = PendingTask(0, 2, op_ready=3, stream_done=3, latency=1)
        pe.add_pending(late)
        pe.add_pending(early)
        assert pe.pick_runnable(10) is early
        assert pe.pick_runnable(1) is None
        assert pe.next_wakeup() == 3

    def test_execution_accounting(self):
        pe = PE(index=0, n_slots=2)
        item = PendingTask(0, 0, op_ready=0, stream_done=25, latency=10)
        pe.add_pending(item)
        end = pe.start_execution(item, 0, TaskType.DGEMM)
        assert end == 25  # stream-bound retire
        assert pe.busy_by_type[TaskType.DGEMM] == 25
        assert pe.slots_free == 2

    def test_cannot_start_while_busy(self):
        pe = PE(index=0, n_slots=2)
        a = PendingTask(0, 0, 0, 0, 10)
        b = PendingTask(0, 1, 0, 0, 10)
        pe.add_pending(a)
        pe.add_pending(b)
        pe.start_execution(a, 0, TaskType.TSOLVE)
        with pytest.raises(AssertionError):
            pe.start_execution(b, 5, TaskType.TSOLVE)

    def test_full_duplex_ports(self):
        pe = PE(index=0, n_slots=2)
        read_done = pe.reserve_port(0, 8)
        write_done = pe.reserve_write_port(0, 8)
        assert read_done == 8 and write_done == 8  # no interference


class TestGenerator:
    def make_gen(self, window=1):
        grid = TileGrid(front_size=12, n_pivot_cols=12, tile=4, supertile=4)
        graph = build_task_graph(0, grid, "cholesky")
        return Generator(sn=0, graph=graph, window=window)

    def test_in_order_head_blocking(self):
        gen = self.make_gen()
        first = gen.ready_tasks()
        assert first == [0]  # dchol(0,0) has no deps
        gen.mark_dispatched(0)
        # Head is now tsolve(1,0), blocked on dchol completion.
        assert gen.ready_tasks() == []
        gen.on_complete(0)
        assert gen.ready_tasks() == [1]

    def test_window_allows_lookahead(self):
        gen = self.make_gen(window=8)
        gen.mark_dispatched(0)
        ready = gen.ready_tasks()
        assert ready == []  # everything transitively needs dchol here
        gen.on_complete(0)
        assert len(gen.ready_tasks()) >= 2  # both tsolves of column 0

    def test_double_dispatch_rejected(self):
        gen = self.make_gen()
        gen.mark_dispatched(0)
        with pytest.raises(AssertionError):
            gen.mark_dispatched(0)

    def test_dispatch_with_deps_rejected(self):
        gen = self.make_gen()
        with pytest.raises(AssertionError):
            gen.mark_dispatched(1)

    def test_done_after_all_complete(self):
        gen = self.make_gen()
        order = []
        while not gen.done:
            ready = gen.ready_tasks()
            assert ready, "generator deadlocked"
            t = ready[0]
            gen.mark_dispatched(t)
            gen.on_complete(t)
            order.append(t)
        assert order == list(range(gen.n_tasks))


def windowed_ready_reference(gen):
    """The windowed ready scan as written before the window == 1 fast
    path: skip dispatched tasks from the head, stop after ``window``
    undispatched ones, and stop at a blocked task when ``window == 1``."""
    gen._advance_head()
    ready = []
    scanned = 0
    t = gen.head
    while t < gen.n_tasks and scanned < gen.window:
        if not gen.dispatched[t]:
            scanned += 1
            if gen.indegree[t] == 0:
                ready.append(t)
            elif gen.window == 1:
                break
        t += 1
    return ready


class TestReadyTasks:
    """``Generator.ready_tasks`` against the general windowed scan while a
    random schedule dispatches and completes tasks."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_windowed_scan_on_random_graphs(self, seed):
        rng = random.Random(seed)
        tile = rng.choice([2, 4])
        n_pivot = rng.randint(1, 14)
        grid = TileGrid(front_size=n_pivot + rng.randint(0, 10),
                        n_pivot_cols=n_pivot, tile=tile,
                        supertile=rng.choice([2, 3, 4]))
        graph = build_task_graph(0, grid, rng.choice(["cholesky", "lu"]),
                                 order=rng.choice(["bf", "rowmajor"]))
        for window in (1, 2, 5):
            gen = Generator(sn=0, graph=graph, window=window)
            outstanding = []
            while not gen.done:
                ready = gen.ready_tasks()
                assert ready == windowed_ready_reference(gen)
                if window == 1:
                    assert ready == gen._scan_window()
                if ready and (not outstanding or rng.random() < 0.6):
                    t = rng.choice(ready)
                    gen.mark_dispatched(t)
                    outstanding.append(t)
                else:
                    assert outstanding, "generator deadlocked"
                    t = outstanding.pop(rng.randrange(len(outstanding)))
                    gen.on_complete(t)
            assert gen.ready_tasks() == windowed_ready_reference(gen) == []


class _SlotAuditSim(SpatulaSim):
    """Checks the machine-wide free-slot count after every event (a
    ``task_final`` event ends in a pump)."""

    def _audit(self):
        assert self._free_slots == sum(pe.slots_free for pe in self.pes)
        self.audits += 1

    def _pump(self, now):
        super()._pump(now)
        self._audit()

    def _on_pe_try(self, pe_index, now):
        super()._on_pe_try(pe_index, now)
        self._audit()

    def _on_exec_done(self, payload, now):
        super()._on_exec_done(payload, now)
        self._audit()


class TestFreeSlotCount:
    @pytest.mark.parametrize("overrides", [
        {}, {"policy": "intra"}, {"policy": "inter"},
        {"dataflow_window": 4}, {"n_pes": 1},
    ], ids=["intra+inter", "intra", "inter", "window4", "pes1"])
    def test_equals_sum_of_pe_slots(self, spd_medium, overrides):
        cfg = SpatulaConfig.tiny(**overrides)
        plan = build_plan(symbolic_factorize(spd_medium), tile=cfg.tile,
                          supertile=cfg.supertile)
        sim = _SlotAuditSim(plan, cfg)
        sim.audits = 0
        report = sim.run()
        assert sim.audits > report.n_tasks
        assert sim._free_slots == cfg.n_pes * cfg.task_slots


class TestSupernodeScheduler:
    def make(self, matrix, policy="intra+inter"):
        sf = symbolic_factorize(matrix)
        cfg = SpatulaConfig.tiny(policy=policy)
        return SupernodeScheduler(tree=sf.tree, config=cfg), sf

    def test_leaves_initially_ready(self, spd_medium):
        sched, sf = self.make(spd_medium)
        leaves = [sn.index for sn in sf.tree.supernodes if not sn.children]
        got = []
        while sched.has_ready():
            got.append(sched.pop_ready())
        assert sorted(got) == sorted(leaves)

    def test_postorder_priority(self, spd_medium):
        sched, _ = self.make(spd_medium)
        a = sched.pop_ready()
        b = sched.pop_ready()
        assert a < b  # min-heap by postorder position

    def test_parent_ready_after_children(self, spd_medium):
        sched, sf = self.make(spd_medium)
        completed = set()
        launched = []
        while not sched.all_done:
            while sched.has_ready():
                launched.append(sched.pop_ready())
            sn = launched.pop(0)
            for c in sf.tree.supernodes[sn].children:
                assert c in completed
            completed.add(sn)
            sched.complete(sn)
        assert len(completed) == sf.n_supernodes

    def test_policy_limits(self, spd_medium):
        for policy, want in [("intra", 1)]:
            sched, _ = self.make(spd_medium, policy)
            assert sched.max_in_flight == want
        sched, _ = self.make(spd_medium, "inter")
        assert sched.max_in_flight == SpatulaConfig.tiny().n_pes


class TestMSHR:
    def test_miss_limit_enforced(self):
        cfg = SpatulaConfig.tiny(max_outstanding_misses=2)
        hbm = HBMModel(cfg)
        cache = BankedCache(cfg, hbm)
        stride = cfg.cache_banks * cfg.cache_sets_per_bank
        # Fill and evict tiles so later loads genuinely miss.
        addrs = [k * stride for k in range(cfg.cache_ways + 6)]
        for a in addrs:
            cache.store(a, 0)
        # Re-load the evicted ones at the same cycle: with only 2 MSHRs,
        # some must wait on earlier fills.
        for a in addrs[:6]:
            cache.load(a, 10_000, "factor_load")
        assert cache.stats.misses >= 4
        assert cache.stats.mshr_stall_cycles > 0

    def test_large_limit_never_stalls(self):
        cfg = SpatulaConfig.tiny()  # default 256 MSHRs
        hbm = HBMModel(cfg)
        cache = BankedCache(cfg, hbm)
        stride = cfg.cache_banks * cfg.cache_sets_per_bank
        for k in range(cfg.cache_ways + 4):
            cache.store(k * stride, 0)
        for k in range(4):
            cache.load(k * stride, 10_000, "factor_load")
        assert cache.stats.mshr_stall_cycles == 0
