"""Tests for the cache hierarchy and DMA engine."""

import pytest

from repro.arch import CostModel
from repro.errors import ConfigError
from repro.mem import Cache, CacheHierarchy, DmaEngine, Memory
from repro.sim import Engine


class TestCache:
    def test_first_access_misses_then_hits(self):
        cache = Cache("L1", 4096, ways=4, hit_cycles=4, miss_cycles=100)
        assert cache.access(0x1000) == 104
        assert cache.access(0x1000) == 4
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_shares_entry(self):
        cache = Cache("L1", 4096, ways=4, hit_cycles=4, miss_cycles=100)
        cache.access(0x1000)
        assert cache.access(0x1038) == 4  # same 64B line

    def test_lru_eviction(self):
        # 2-way, tiny cache: 2 lines per set
        cache = Cache("tiny", 256, ways=2, line_bytes=64, hit_cycles=1,
                      miss_cycles=10)
        # all map to set 0 when addresses differ by sets*line
        stride = cache.sets * 64
        cache.access(0)
        cache.access(stride)
        cache.access(0)              # refresh 0's recency
        cache.access(2 * stride)     # evicts `stride`
        assert cache.contains(0)
        assert not cache.contains(stride)
        assert cache.evictions == 1

    def test_warm_installs_without_charging(self):
        cache = Cache("L1", 4096, ways=4, hit_cycles=4, miss_cycles=100)
        cache.warm(0x1000, 256)
        assert cache.access(0x1000) == 4
        assert cache.access(0x10C0) == 4

    def test_flush(self):
        cache = Cache("L1", 4096, ways=4, hit_cycles=4, miss_cycles=100)
        cache.access(0x1000)
        cache.flush()
        assert not cache.contains(0x1000)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", 0)
        with pytest.raises(ConfigError):
            Cache("bad", 100, ways=3, line_bytes=64)  # 1 line, 3 ways


class TestHierarchy:
    def test_miss_costs_stack(self):
        costs = CostModel()
        hier = CacheHierarchy(costs)
        cold = hier.access(0x1000)
        assert cold == (costs.l1_hit_cycles + costs.l2_hit_cycles
                        + costs.l3_hit_cycles + costs.dram_cycles)
        assert hier.access(0x1000) == costs.l1_hit_cycles

    def test_l1_eviction_falls_back_to_l2(self):
        costs = CostModel()
        hier = CacheHierarchy(costs, l1_kib=4, l2_kib=64, l3_kib=256)
        hier.access(0x0)
        # blow out L1 (4KiB) but stay within L2
        hier.walk_working_set(0x10000, 32 * 1024)
        cycles = hier.access(0x0)
        assert cycles == costs.l1_hit_cycles + costs.l2_hit_cycles

    def test_working_set_walk_and_stats(self):
        hier = CacheHierarchy()
        hier.walk_working_set(0, 64 * 64)
        stats = hier.stats()
        assert stats["L1"]["misses"] == 64
        hier.walk_working_set(0, 64 * 64)
        assert hier.l1.hits == 64

    def test_pollution_shape_switch_hurts_rewalk(self):
        """The Section 1 claim in miniature: after a competing thread
        trashes the cache, re-walking the original set costs more."""
        hier = CacheHierarchy(l1_kib=4, l2_kib=32, l3_kib=128)
        hier.walk_working_set(0, 4096)
        warm = hier.walk_working_set(0, 4096)
        hier.walk_working_set(0x100000, 256 * 1024)  # competing thread
        polluted = hier.walk_working_set(0, 4096)
        assert polluted > 2 * warm

    def test_flush_resets_presence_not_stats(self):
        hier = CacheHierarchy()
        hier.access(0x1000)
        hier.flush()
        assert hier.l1.misses == 1
        hier.access(0x1000)
        assert hier.l1.misses == 2


class TestWalkValidation:
    @pytest.mark.parametrize("stride", [0, -64, True, 1.5, "64"])
    def test_bad_stride_rejected(self, stride):
        hier = CacheHierarchy()
        with pytest.raises(ConfigError, match="stride"):
            hier.walk_working_set(0, 4096, stride)
        assert hier.l1.misses == 0

    @pytest.mark.parametrize("nbytes", [-4096, True, 4096.0, None])
    def test_bad_nbytes_rejected(self, nbytes):
        hier = CacheHierarchy()
        with pytest.raises(ConfigError, match="nbytes"):
            hier.walk_working_set(0, nbytes)
        assert hier.l1.misses == 0

    def test_empty_walk_costs_nothing(self):
        hier = CacheHierarchy()
        assert hier.walk_working_set(0x1000, 0) == 0
        assert hier.l1.misses == 0

    @pytest.mark.parametrize("base", [0.5, True, None, "0"])
    def test_bad_base_rejected(self, base):
        hier = CacheHierarchy()
        with pytest.raises(ConfigError, match="base"):
            hier.walk_working_set(base, 4096)
        assert hier.l1.misses == 0


def _untouched(hier: CacheHierarchy) -> bool:
    """No level holds, pins or has counted anything."""
    return all(not cache._pinned and not any(cache._sets)
               and cache.hits == cache.misses == 0
               for cache in (hier.l1, hier.l2, hier.l3))


class TestValidation:
    """Bad sizes, latencies and ranges fail with a ConfigError naming
    the argument, before anything changes."""

    @pytest.mark.parametrize("field, value", [
        ("size_bytes", 4096.5), ("size_bytes", True), ("size_bytes", 0),
        ("ways", True), ("ways", 4.0), ("line_bytes", True),
        ("line_bytes", "64"), ("hit_cycles", -4), ("hit_cycles", 1.5),
        ("miss_cycles", -1), ("miss_cycles", True)])
    def test_bad_cache_args_rejected(self, field, value):
        args = dict(size_bytes=4096, ways=4, line_bytes=64, hit_cycles=4,
                    miss_cycles=100)
        args[field] = value
        with pytest.raises(ConfigError, match=field):
            Cache("L1", **args)

    @pytest.mark.parametrize("field, value", [
        ("l1_kib", True), ("l1_kib", 0), ("l2_kib", 512.0),
        ("l3_kib", None), ("line_bytes", True)])
    def test_bad_hierarchy_args_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CacheHierarchy(**{field: value})

    def test_free_levels_allowed(self):
        cache = Cache("L1", 4096, hit_cycles=0, miss_cycles=0)
        assert cache.access(0) == 0 and cache.misses == 1

    @pytest.mark.parametrize("op", ["warm", "pin", "unpin"])
    @pytest.mark.parametrize("base, nbytes, field", [
        (0, -64, "nbytes"), (0, True, "nbytes"), (0, 64.0, "nbytes"),
        (0.5, 64, "base"), (True, 64, "base")])
    def test_bad_range_rejected(self, op, base, nbytes, field):
        hier = CacheHierarchy()
        with pytest.raises(ConfigError, match=field):
            getattr(hier, op)(base, nbytes)
        assert _untouched(hier)

    def test_empty_range_is_base_line(self):
        hier = CacheHierarchy()
        hier.pin(0x1000, 0)
        assert hier.l1._pinned == {0x1000 // 64}


class TestDma:
    def test_transfer_lands_after_latency_and_bandwidth(self):
        engine = Engine()
        mem = Memory()
        dma = DmaEngine(engine, mem, latency_cycles=100, bytes_per_cycle=8)
        done_at = dma.write(0x1000, [1, 2, 3, 4])  # 32 bytes -> 4 cycles
        assert done_at == 104
        assert mem.load(0x1000) == 0  # not yet
        engine.run()
        assert engine.now == 104
        assert mem.load_words(0x1000, 4) == [1, 2, 3, 4]

    def test_dma_write_triggers_watch_at_landing_time(self):
        engine = Engine()
        mem = Memory()
        dma = DmaEngine(engine, mem, latency_cycles=50, bytes_per_cycle=64)
        watch = mem.watch_bus.watch(0x2000)
        times = []
        watch.signal.add_waiter(lambda _info: times.append(engine.now))
        dma.write_word(0x2000, 7)
        engine.run()
        assert times == [51]

    def test_completion_callback(self):
        engine = Engine()
        mem = Memory()
        dma = DmaEngine(engine, mem)
        done = []
        dma.write(0x1000, [1], on_complete=lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 1

    def test_stats(self):
        engine = Engine()
        mem = Memory()
        dma = DmaEngine(engine, mem)
        dma.write(0x1000, [1, 2])
        engine.run()
        assert dma.transfers == 1
        assert dma.bytes_moved == 16

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            DmaEngine(Engine(), Memory(), bytes_per_cycle=0)
