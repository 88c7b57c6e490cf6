"""Set-associative LRU cache hierarchy.

Used for the *pollution* side of context-switch cost: the paper's
Section 1 complains that frequent switches "lead to poor caching
behavior" and Section 4 argues thread state plus working sets must stay
on-chip. The model is a conventional set-associative LRU simulator with
per-level hit latencies taken from :class:`~repro.arch.costs.CostModel`.

This is an access-timing model only -- data values live in
:class:`~repro.mem.memory.Memory`; the cache tracks presence. The TLB
(:class:`~repro.mem.tlb.Tlb`) is a :class:`Cache` whose lines are pages.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigError, require_int


class Cache:
    """One cache level (set-associative, LRU, allocate-on-miss)."""

    def __init__(self, name: str, size_bytes: int, ways: int = 8,
                 line_bytes: int = 64, hit_cycles: int = 4,
                 parent: Optional["Cache"] = None,
                 miss_cycles: int = 250):
        for arg, value, least in (("size_bytes", size_bytes, 1),
                                  ("ways", ways, 1),
                                  ("line_bytes", line_bytes, 1),
                                  ("hit_cycles", hit_cycles, 0),
                                  ("miss_cycles", miss_cycles, 0)):
            require_int(f"{name!r} {arg}", value, least)
        lines = size_bytes // line_bytes
        if lines % ways != 0:
            raise ConfigError(
                f"{name!r}: {lines} lines not divisible into {ways} ways")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = lines // ways
        self.hit_cycles = hit_cycles
        self.parent = parent
        self.miss_cycles = miss_cycles  # cost beyond the last level
        # plain dicts in LRU order: insertion order is recency order, a
        # hit re-inserts, and the first key is always the LRU victim
        self._sets: List[dict] = [{} for _ in range(self.sets)]
        self._pinned: set = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0

    # ------------------------------------------------------------------
    def access(self, addr: int) -> int:
        """Touch ``addr``; returns total load-to-use cycles."""
        line = addr // self.line_bytes
        index = line % self.sets
        ways = self._sets[index]
        if line in ways:
            self.hits += 1
            del ways[line]
            ways[line] = True
            return self.hit_cycles
        self.misses += 1
        parent = self.parent
        below = parent.access(addr) if parent is not None else self.miss_cycles
        self._fill(index, line)
        return self.hit_cycles + below

    def contains(self, addr: int) -> bool:
        line = addr // self.line_bytes
        return line in self._sets[line % self.sets]

    def warm(self, base: int, nbytes: int) -> None:
        """Prefetch an address range without charging latency.

        Models the paper's "prefetching techniques that warm up caches
        of all types as soon as threads become runnable".
        """
        for line in self._lines(base, nbytes):
            index = line % self.sets
            ways = self._sets[index]
            if line in ways:
                del ways[line]
                ways[line] = True
            else:
                self._fill(index, line)
        if self.parent is not None:
            self.parent.warm(base, nbytes)

    def pin(self, base: int, nbytes: int) -> None:
        """Pin an address range: resident and never evicted.

        Models Section 4: "we can pin the most critical
        instructions/data/translations (few KBytes) for
        performance-sensitive threads in caches, using fine-grain cache
        partitioning techniques that allow hundreds of small partitions
        without loss of associativity [66]". A set whose ways are all
        pinned bypasses new fills rather than losing pinned lines.
        """
        self._pinned.update(self._lines(base, nbytes))
        self.warm(base, nbytes)

    def unpin(self, base: int, nbytes: int) -> None:
        """Release a pinned range (lines stay cached, become evictable)."""
        self._pinned.difference_update(self._lines(base, nbytes))

    def flush(self) -> None:
        """Drop every line except pinned ones (they are unevictable)."""
        for ways in self._sets:
            for line in [l for l in ways if l not in self._pinned]:
                del ways[line]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def walk_working_set(self, base: int, nbytes: int, stride: int = 64) -> int:
        """Touch ``nbytes`` from ``base`` every ``stride`` bytes through
        this cache and its parents; returns total cycles.

        The basic tool for measuring pollution: run a working set, switch
        to another, return, and compare cycles.

        A pass whose stride is every level's line size, over lines that
        no level holds or pins, misses every line at every level, so it
        is computed per set (:meth:`_stream`) instead of line by line:
        E13's 32 MiB interference streams are such passes. Every other
        pass is one :meth:`access` per address.
        """
        require_int("base", base)
        require_int("nbytes", nbytes, 0)
        require_int("stride", stride, 1)
        levels = [self]
        while levels[-1].parent is not None:
            levels.append(levels[-1].parent)
        first = base // stride
        count = len(range(base, base + nbytes, stride))
        if (all(cache.line_bytes == stride for cache in levels)
                and not any(cache._holds(first, first + count)
                            for cache in levels)):
            for cache in levels:
                cache._stream(first, count)
            return count * (sum(cache.hit_cycles for cache in levels)
                            + levels[-1].miss_cycles)
        total = 0
        for addr in range(base, base + nbytes, stride):
            total += self.access(addr)
        return total

    # ------------------------------------------------------------------
    def _lines(self, base: int, nbytes: int) -> range:
        """The lines of ``[base, base + nbytes)``, at least ``base``'s;
        a bad range raises a :class:`ConfigError` before any change."""
        require_int("base", base)
        require_int("nbytes", nbytes, 0)
        return range(base // self.line_bytes,
                     (base + max(nbytes - 1, 0)) // self.line_bytes + 1)

    def _holds(self, first: int, end: int) -> bool:
        """Whether any line in ``[first, end)`` is resident or pinned."""
        if any(first <= line < end for line in self._pinned):
            return True
        sets, nsets = self._sets, self.sets
        # a resident line in range sits in the set of one of the first
        # ``nsets`` lines of the range
        return any(first <= held < end
                   for line in range(first, min(end, first + nsets))
                   for held in sets[line % nsets])

    def _stream(self, first: int, count: int) -> None:
        """Miss lines ``first .. first + count - 1``, none resident or
        pinned here, as ``count`` calls of :meth:`access` would.

        In each set the pinned lines stay, and the newest ``ways -
        pinned`` of (the unpinned lines in LRU order, then the set's new
        lines) survive; the overflow is evicted, oldest first. A set
        whose ways are all pinned bypasses every new line.
        """
        end = first + count
        pinned = self._pinned
        self.misses += count
        for line in range(first, min(end, first + self.sets)):
            ways = self._sets[line % self.sets]
            new = range(line, end, self.sets)
            unpinned = [held for held in ways if held not in pinned]
            if len(ways) - len(unpinned) == self.ways:
                self.bypasses += len(new)
                continue
            overflow = max(len(ways) + len(new) - self.ways, 0)
            self.evictions += overflow
            for victim in unpinned[:overflow]:
                del ways[victim]
            ways.update(dict.fromkeys(
                new[max(overflow - len(unpinned), 0):], True))

    def _fill(self, index: int, line: int) -> None:
        ways = self._sets[index]
        if len(ways) >= self.ways:
            victim = next((l for l in ways if l not in self._pinned), None)
            if victim is None:
                self.bypasses += 1  # set fully pinned: do not allocate
                return
            del ways[victim]
            self.evictions += 1
        ways[line] = True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{type(self).__name__} {self.name} "
                f"{self.size_bytes >> 10}KiB hit_rate={self.hit_rate:.2f}>")


class CacheHierarchy:
    """A conventional L1/L2/L3 stack built from the cost model."""

    def __init__(self, costs=None, l1_kib: int = 32, l2_kib: int = 512,
                 l3_kib: int = 8192, line_bytes: int = 64):
        for arg, value in (("l1_kib", l1_kib), ("l2_kib", l2_kib),
                           ("l3_kib", l3_kib), ("line_bytes", line_bytes)):
            require_int(arg, value, 1)
        if costs is None:
            from repro.arch.costs import CostModel
            costs = CostModel()
        # observability: harvested at snapshot time only; the access hot
        # loops are untouched
        import repro.obs as obs
        session = obs.active()
        if session is not None:
            session.register_source("mem.cache", self.fill_metrics)
        self.l3 = Cache("L3", l3_kib * 1024, ways=16, line_bytes=line_bytes,
                        hit_cycles=costs.l3_hit_cycles, parent=None,
                        miss_cycles=costs.dram_cycles)
        self.l2 = Cache("L2", l2_kib * 1024, ways=8, line_bytes=line_bytes,
                        hit_cycles=costs.l2_hit_cycles, parent=self.l3)
        self.l1 = Cache("L1", l1_kib * 1024, ways=8, line_bytes=line_bytes,
                        hit_cycles=costs.l1_hit_cycles, parent=self.l2)

    def access(self, addr: int) -> int:
        """Load-to-use latency through the hierarchy."""
        return self.l1.access(addr)

    def warm(self, base: int, nbytes: int) -> None:
        self.l1.warm(base, nbytes)

    def pin(self, base: int, nbytes: int) -> None:
        """Pin a critical range at every level (Section 4 partitioning)."""
        for cache in (self.l1, self.l2, self.l3):
            cache.pin(base, nbytes)

    def unpin(self, base: int, nbytes: int) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.unpin(base, nbytes)

    def flush(self) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.flush()

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {
            cache.name: {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate,
            }
            for cache in (self.l1, self.l2, self.l3)
        }

    def fill_metrics(self, registry, prefix: str) -> None:
        """Snapshot-time metric harvest (see repro.obs.snapshot)."""
        for cache in (self.l1, self.l2, self.l3):
            level = cache.name.lower()
            registry.inc(f"{prefix}.{level}.hits", cache.hits)
            registry.inc(f"{prefix}.{level}.misses", cache.misses)
            registry.inc(f"{prefix}.{level}.evictions", cache.evictions)
            registry.inc(f"{prefix}.{level}.bypasses", cache.bypasses)
            registry.set(f"{prefix}.{level}.hit_rate",
                         round(cache.hit_rate, 6))

    def walk_working_set(self, base: int, nbytes: int, stride: int = 64) -> int:
        """Touch a working set sequentially from L1; returns total cycles
        (see :meth:`Cache.walk_working_set`)."""
        return self.l1.walk_working_set(base, nbytes, stride)
