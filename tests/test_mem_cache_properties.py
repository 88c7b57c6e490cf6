"""``walk_working_set`` against an explicit per-line ``access`` loop.

Random cache chains (one to three levels sharing a line size) and TLBs
get interleaved ``pin``/``unpin``/``warm``/``flush``/``access`` calls
at random levels, and walks with unaligned bases and strides of half a
line, one line and two lines. Each program runs on two equal machines:
one walks with ``walk_working_set``, its twin calls ``access`` once per
address. After every walk the cycles, the four counters at every
level, the pinned lines and each set's LRU order must be equal.

A line-strided walk over lines no level holds or pins takes the closed
form (``Cache._stream``). :func:`closed_forms` counts those walks, and
which of the closed form's cases they reached, and fails if none ran:
the test would then compare the per-line loop with itself.
"""

from collections import Counter
from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache
from repro.mem.tlb import Tlb

#: what a closed-form walk did to some set, as :func:`closed_forms`
#: names it
CASES = ("bypass", "pinned lines held", "partial eviction", "full eviction")


@contextmanager
def closed_forms():
    """Count closed-form walks inside the block, and the cases reached.

    Yields a ``Counter`` with one ``"walk"`` per closed-form walk and
    one entry per case of :data:`CASES` seen. Raises ``AssertionError``
    if no walk inside the block took the closed form.
    """
    seen = Counter()
    stream = Cache._stream

    def counted(cache, first, count):
        sets = cache.sets
        touched = {line % sets: list(cache._sets[line % sets])
                   for line in range(first, first + min(count, sets))}
        bypasses = cache.bypasses
        stream(cache, first, count)
        if cache.bypasses > bypasses:
            seen["bypass"] += 1
        for index, before in touched.items():
            ways = cache._sets[index]
            old = [line for line in before if line not in cache._pinned]
            kept = [line for line in old if line in ways]
            if len(old) < len(before):
                seen["pinned lines held"] += 1
            if old and not kept:
                seen["full eviction"] += 1
            elif len(kept) < len(old):
                seen["partial eviction"] += 1
        if cache.parent is None:  # the last level: one per walk
            seen["walk"] += 1

    Cache._stream = counted
    try:
        yield seen
    finally:
        Cache._stream = stream
    if not seen["walk"]:
        raise AssertionError("no walk took the closed form inside the block")


#: (ways, sets, hit cycles) of one level
_level = st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4, 8]),
                   st.integers(1, 20))

#: (tlb, line bytes, levels from the top, cycles beyond the last level)
_geometries = st.tuples(st.booleans(), st.sampled_from([4, 16, 64]),
                        st.lists(_level, min_size=1, max_size=3),
                        st.integers(0, 300))


def _build(geometry):
    """The top level of a fresh machine; a TLB uses the first level."""
    tlb, line_bytes, levels, beyond = geometry
    if tlb:
        ways, sets, hit = levels[0]
        return Tlb(entries=ways * sets, ways=ways, page_bytes=line_bytes,
                   hit_cycles=hit, walk_cycles=beyond)
    top = None
    for depth, (ways, sets, hit) in enumerate(reversed(levels)):
        top = Cache(f"L{len(levels) - depth}", ways * sets * line_bytes,
                    ways=ways, line_bytes=line_bytes, hit_cycles=hit,
                    parent=top, miss_cycles=beyond)
    return top


def _chain(top):
    levels = []
    while top is not None:
        levels.append(top)
        top = top.parent
    return levels


def _state(top):
    return [(cache.hits, cache.misses, cache.evictions, cache.bypasses,
             set(cache._pinned), [list(ways) for ways in cache._sets])
            for cache in _chain(top)]


#: (operation, level, base and length in quarter lines, stride in half
#: lines); a range to pin, unpin or warm is a quarter of the length
_ops = st.tuples(
    st.sampled_from(["pin", "unpin", "warm", "flush", "access",
                     "walk", "walk", "walk"]),
    st.integers(0, 2), st.integers(0, 4 * 96), st.integers(0, 4 * 40),
    st.sampled_from([1, 2, 4]))


@given(geometry=_geometries, program=st.lists(_ops, max_size=12))
# a pinned line that is not resident: line 1 is pinned while line 0
# pins the only way, so it is bypassed; unpinning line 0 lets the walk
# fill line 1, which is pinned from then on and so makes line 2 bypass
@example(geometry=(False, 4, [(1, 1, 1)], 10),
         program=[("pin", 0, 0, 0, 2), ("pin", 0, 4, 0, 2),
                  ("unpin", 0, 0, 0, 2), ("walk", 0, 4, 8, 2)])
@settings(max_examples=400, deadline=None)
def _walks_match_per_line_access(geometry, program):
    walked, stepped = _build(geometry), _build(geometry)
    line_bytes = walked.line_bytes
    for op, level, base, length, stride in program:
        base = base * line_bytes // 4
        nbytes = length * line_bytes // 4
        if op == "walk":
            stride = stride * line_bytes // 2
            cycles = walked.walk_working_set(base, nbytes, stride)
            expected = 0
            for addr in range(base, base + nbytes, stride):
                expected += stepped.access(addr)
            assert cycles == expected
            assert _state(walked) == _state(stepped)
            continue
        for top in (walked, stepped):
            chain = _chain(top)
            cache = chain[min(level, len(chain) - 1)]
            if op == "flush":
                cache.flush()
            elif op == "access":
                cache.access(base)
            else:  # pin, unpin and warm take a range of up to 10 lines
                getattr(cache, op)(base, nbytes // 4)


def test_walk_matches_per_line_access():
    with closed_forms() as seen:
        _walks_match_per_line_access()
    assert all(seen[case] for case in CASES), seen
