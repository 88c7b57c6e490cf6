"""Tests for the TLB model."""

import pytest

from repro.errors import ConfigError
from repro.mem.tlb import PAGE_BYTES, Tlb


class TestTranslate:
    def test_first_access_walks(self):
        tlb = Tlb(walk_cycles=100, hit_cycles=1)
        assert tlb.translate(0x1000) == 101
        assert tlb.misses == 1

    def test_second_access_hits(self):
        tlb = Tlb(walk_cycles=100, hit_cycles=1)
        tlb.translate(0x1000)
        assert tlb.translate(0x1008) == 1  # same page
        assert tlb.hits == 1

    def test_page_granularity(self):
        tlb = Tlb()
        tlb.translate(0)
        assert tlb.contains(PAGE_BYTES - 8)
        assert not tlb.contains(PAGE_BYTES)

    def test_lru_eviction(self):
        tlb = Tlb(entries=4, ways=4)  # one set
        for page in range(4):
            tlb.translate(page * PAGE_BYTES)
        tlb.translate(0)  # refresh page 0
        tlb.translate(4 * PAGE_BYTES)  # evicts LRU = page 1
        assert tlb.contains(0)
        assert not tlb.contains(1 * PAGE_BYTES)

    def test_hit_rate(self):
        tlb = Tlb()
        tlb.translate(0)
        tlb.translate(8)
        tlb.translate(16)
        assert tlb.hit_rate == pytest.approx(2 / 3)


class TestWarmPinFlush:
    def test_warm_preloads_range(self):
        tlb = Tlb()
        tlb.warm(0, 3 * PAGE_BYTES)
        assert tlb.translate(2 * PAGE_BYTES) == tlb.hit_cycles

    def test_pin_survives_thrash(self):
        tlb = Tlb(entries=8, ways=4)
        tlb.pin(0, PAGE_BYTES)
        for page in range(1, 64):
            tlb.translate(page * PAGE_BYTES)
        assert tlb.contains(0)

    def test_flush_spares_pinned(self):
        tlb = Tlb()
        tlb.pin(0, PAGE_BYTES)
        tlb.warm(PAGE_BYTES, PAGE_BYTES)
        tlb.flush()
        assert tlb.contains(0)
        assert not tlb.contains(PAGE_BYTES)

    def test_unpin_then_flush_drops(self):
        tlb = Tlb()
        tlb.pin(0, PAGE_BYTES)
        tlb.unpin(0, PAGE_BYTES)
        tlb.flush()
        assert not tlb.contains(0)

    def test_fully_pinned_set_bypasses(self):
        tlb = Tlb(entries=4, ways=4)
        for page in range(4):
            tlb.pin(page * PAGE_BYTES, PAGE_BYTES)
        before = tlb.bypasses
        tlb.translate(4 * PAGE_BYTES)
        assert tlb.bypasses == before + 1


class TestWorkingSetWalk:
    def test_cold_vs_warm_walk(self):
        tlb = Tlb(walk_cycles=100)
        cold = tlb.walk_working_set(0, 4 * PAGE_BYTES)
        warm = tlb.walk_working_set(0, 4 * PAGE_BYTES)
        assert cold > warm
        # 4 pages walked once, the rest hits
        accesses = 4 * PAGE_BYTES // 64
        assert cold == accesses * tlb.hit_cycles + 4 * tlb.walk_cycles

    def test_thrash_shape(self):
        # a working set larger than the TLB never stops missing
        tlb = Tlb(entries=8, ways=4, walk_cycles=100)
        big = 64 * PAGE_BYTES
        first = tlb.walk_working_set(0, big, stride=PAGE_BYTES)
        second = tlb.walk_working_set(0, big, stride=PAGE_BYTES)
        assert second == first  # no reuse survives


class TestValidation:
    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            Tlb(entries=10, ways=4)

    def test_bad_page_size(self):
        with pytest.raises(ConfigError):
            Tlb(page_bytes=0)

    @pytest.mark.parametrize("stride", [0, -64, True, 1.5, "64"])
    def test_bad_walk_stride(self, stride):
        tlb = Tlb()
        with pytest.raises(ConfigError, match="stride"):
            tlb.walk_working_set(0, PAGE_BYTES, stride)
        assert tlb.misses == 0

    @pytest.mark.parametrize("nbytes", [-PAGE_BYTES, True, 4096.0, None])
    def test_bad_walk_nbytes(self, nbytes):
        tlb = Tlb()
        with pytest.raises(ConfigError, match="nbytes"):
            tlb.walk_working_set(0, nbytes)
        assert tlb.misses == 0

    @pytest.mark.parametrize("field, value", [
        ("entries", True), ("entries", 64.5), ("ways", True),
        ("ways", 4.0), ("page_bytes", True), ("page_bytes", 4096.0),
        ("hit_cycles", -1), ("walk_cycles", -100), ("walk_cycles", 1.5)])
    def test_bad_args_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            Tlb(**{field: value})

    @pytest.mark.parametrize("op", ["warm", "pin", "unpin"])
    @pytest.mark.parametrize("base, nbytes, field", [
        (0, -PAGE_BYTES, "nbytes"), (0, 4096.0, "nbytes"),
        (0.5, PAGE_BYTES, "base"), (None, PAGE_BYTES, "base")])
    def test_bad_range_rejected(self, op, base, nbytes, field):
        tlb = Tlb()
        with pytest.raises(ConfigError, match=field):
            getattr(tlb, op)(base, nbytes)
        assert not tlb._pinned and not any(tlb._sets)

    @pytest.mark.parametrize("base", [0.5, True])
    def test_bad_walk_base(self, base):
        tlb = Tlb()
        with pytest.raises(ConfigError, match="base"):
            tlb.walk_working_set(base, PAGE_BYTES)
        assert tlb.misses == 0
