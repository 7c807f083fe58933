"""Banked LRU tile cache (Section 4.5).

Lines are tile-sized (2 KB), so one cache line holds exactly one T-by-T
tile.  Banks are interleaved by tile address; each bank is set-associative
with true LRU, write-allocate, write-back.  Lookups model the serial
tag-then-data access (a fixed hit latency) plus bank-port occupancy, and
misses go to the bank's HBM channel.

The cache understands three access flavours:

* ``load``     — read a tile that has been written before (may miss to DRAM);
* ``allocate`` — first-ever touch of a tile: the line is installed
  zero-filled with no DRAM read (fronts are created on-chip; their initial
  A-values are accounted separately as bulk compulsory traffic);
* ``store``    — a PE write-back of a destination tile (write-allocate).

Evictions of dirty lines generate DRAM write traffic classified as spill or
result depending on whether the tile holds final factor output.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

from repro.arch.config import SpatulaConfig
from repro.arch.memory import HBMModel


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    allocations: int = 0
    stores: int = 0
    dirty_evictions: int = 0
    bytes_accessed: int = 0
    mshr_stall_cycles: int = 0
    bank_wait_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.allocations + self.stores

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 1.0

    def export_metrics(self, registry, prefix: str = "cache") -> None:
        """Fold the counters into a metrics registry (``cache.hits``,
        ``cache.misses``, ...)."""
        for name in ("hits", "misses", "allocations", "stores",
                     "dirty_evictions", "bytes_accessed",
                     "mshr_stall_cycles", "bank_wait_cycles"):
            registry.counter(f"{prefix}.{name}").inc(getattr(self, name))
        registry.gauge(f"{prefix}.hit_rate").set(self.hit_rate)


class BankedCache:
    """The banked LRU cache plus its DRAM backside."""

    def __init__(self, config: SpatulaConfig, hbm: HBMModel):
        self.config = config
        self.hbm = hbm
        self.n_banks = config.cache_banks
        self.n_sets = config.cache_sets_per_bank
        self.ways = config.cache_ways
        # Derived config values, read once (every access uses them).
        self._tile_bytes = config.tile_bytes
        self._bank_cycles = config.bank_transfer_cycles
        self._n_channels = config.hbm_channels
        # sets[bank][set] maps address -> dirty flag, in LRU order
        # (oldest first).
        self._sets: list[list[OrderedDict[int, bool]]] = [
            [OrderedDict() for _ in range(self.n_sets)]
            for _ in range(self.n_banks)
        ]
        self._bank_free = [0] * self.n_banks      # read port per bank
        self._bank_wfree = [0] * self.n_banks     # write port per bank
        self._seen: set[int] = set()
        # Outstanding-miss (MSHR) tracking: fill-completion times of
        # in-flight misses, capped at config.max_outstanding_misses.
        self._inflight: list[int] = []
        self.stats = CacheStats()
        # Callback deciding traffic class of an evicted dirty tile:
        # address -> "store_spill" | "store_result".  Installed by the sim.
        self.classify_store = lambda addr: "store_spill"

    # -- address mapping -----------------------------------------------------

    def bank_of(self, addr: int) -> int:
        return addr % self.n_banks

    def set_of(self, addr: int) -> int:
        return (addr // self.n_banks) % self.n_sets

    def channel_of(self, addr: int) -> int:
        return self.bank_of(addr) % self._n_channels

    # -- internals ------------------------------------------------------------

    def _reserve_bank(self, bank: int, cycle: int) -> int:
        start = max(cycle, self._bank_free[bank])
        self.stats.bank_wait_cycles += start - cycle
        self._bank_free[bank] = start + self._bank_cycles
        return start

    def _reserve_bank_write(self, bank: int, cycle: int) -> int:
        start = max(cycle, self._bank_wfree[bank])
        self.stats.bank_wait_cycles += start - cycle
        self._bank_wfree[bank] = start + self._bank_cycles
        return start

    def _touch(self, bank: int, set_idx: int, addr: int,
               dirty: bool | None) -> None:
        lines = self._sets[bank][set_idx]
        was_dirty = lines.pop(addr, False)
        lines[addr] = was_dirty if dirty is None else (dirty or was_dirty)

    def _install(self, bank: int, set_idx: int, addr: int, dirty: bool,
                 cycle: int) -> None:
        lines = self._sets[bank][set_idx]
        if len(lines) >= self.ways:
            victim, victim_dirty = next(iter(lines.items()))
            del lines[victim]
            if victim_dirty:
                kind = self.classify_store(victim)
                self.hbm.write_line(self.channel_of(victim), cycle, kind)
                self.stats.dirty_evictions += 1
        lines[addr] = dirty

    # -- public accesses -------------------------------------------------------

    def load(self, addr: int, cycle: int, miss_kind: str) -> int:
        """Read a tile; returns the cycle its data leaves the bank."""
        bank = self.bank_of(addr)
        set_idx = self.set_of(addr)
        lines = self._sets[bank][set_idx]
        start = self._reserve_bank(bank, cycle)
        self.stats.bytes_accessed += self._tile_bytes
        if addr in lines:
            self.stats.hits += 1
            self._touch(bank, set_idx, addr, None)
            return start + self.config.cache_hit_latency + self._bank_cycles
        if addr not in self._seen:
            # First touch: allocate zero-filled, no DRAM read.
            self._seen.add(addr)
            self.stats.allocations += 1
            self._install(bank, set_idx, addr, dirty=False, cycle=start)
            return start + self.config.cache_hit_latency + self._bank_cycles
        # Genuine miss: fetch from the bank's HBM channel, subject to
        # MSHR availability (up to 256 concurrent misses, Table 2).
        self.stats.misses += 1
        tag_done = start + self.config.cache_hit_latency
        while self._inflight and self._inflight[0] <= tag_done:
            heapq.heappop(self._inflight)
        if len(self._inflight) >= self.config.max_outstanding_misses:
            wait_until = heapq.heappop(self._inflight)
            self.stats.mshr_stall_cycles += max(0, wait_until - tag_done)
            tag_done = max(tag_done, wait_until)
        fill = self.hbm.read_line(self.channel_of(addr), tag_done, miss_kind)
        heapq.heappush(self._inflight, fill)
        self._install(bank, set_idx, addr, dirty=False, cycle=fill)
        return fill + self._bank_cycles

    def store(self, addr: int, cycle: int) -> int:
        """Write a tile back from a PE (write-allocate, write-back)."""
        bank = self.bank_of(addr)
        set_idx = self.set_of(addr)
        lines = self._sets[bank][set_idx]
        start = self._reserve_bank_write(bank, cycle)
        self.stats.stores += 1
        self.stats.bytes_accessed += self._tile_bytes
        self._seen.add(addr)
        if addr in lines:
            self._touch(bank, set_idx, addr, dirty=True)
        else:
            self._install(bank, set_idx, addr, dirty=True, cycle=start)
        return start + self._bank_cycles

    # -- end-of-run flush ------------------------------------------------------

    def flush_results(self, cycle: int, is_result) -> int:
        """Write back dirty *result* tiles at the end of the run.

        Dead intermediates (consumed update tiles) are dropped without
        traffic — the scheduler knows they will never be read again.
        Returns the drain-completion cycle.
        """
        done = cycle
        for bank in range(self.n_banks):
            for set_idx in range(self.n_sets):
                for addr, dirty in self._sets[bank][set_idx].items():
                    if dirty and is_result(addr):
                        done = max(
                            done,
                            self.hbm.write_line(
                                self.channel_of(addr), cycle, "store_result"
                            ),
                        )
        return done
