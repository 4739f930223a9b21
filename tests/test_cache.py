"""Cache arrays: lookup, allocation, eviction, TUS pinning rules."""

import pytest

from repro.common.config import CacheConfig
from repro.mem.cache import CacheArray
from repro.mem.cacheline import CacheLine, State
from repro.mem.replacement import LRU, MRU


def small_cache(assoc=4, sets=4):
    cfg = CacheConfig("test", sets * assoc * 64, assoc, 1)
    return CacheArray(cfg)


class TestLookup:
    def test_miss_on_empty(self):
        c = small_cache()
        assert c.lookup(0x1000) is None

    def test_hit_after_allocate(self):
        c = small_cache()
        c.allocate(0x1000, State.E)
        line = c.lookup(0x1000)
        assert line is not None and line.state == State.E

    def test_hit_ignores_offset(self):
        c = small_cache()
        c.allocate(0x1000, State.S)
        assert c.lookup(0x103F) is not None

    def test_counters(self):
        c = small_cache()
        c.lookup(0x1000)
        c.allocate(0x1000, State.S)
        c.lookup(0x1000)
        assert c.stats["misses"] == 1
        assert c.stats["hits"] == 1

    def test_probe_has_no_side_effects(self):
        c = small_cache()
        c.probe(0x1000)
        assert c.stats["misses"] == 0

    def test_invalid_line_not_found(self):
        c = small_cache()
        line = c.allocate(0x1000, State.S)
        line.state = State.I
        assert c.lookup(0x1000) is None

    def test_not_visible_line_found_despite_invalid_state(self):
        # Unauthorized (TUS) lines are invisible to coherence but the
        # local controller must find them.
        c = small_cache()
        line = c.allocate(0x1000, State.I)
        line.not_visible = True
        assert c.probe(0x1000) is line


class TestAllocation:
    def test_double_allocate_rejected(self):
        c = small_cache()
        c.allocate(0x1000, State.S)
        with pytest.raises(LookupError):
            c.allocate(0x1000, State.S)

    def test_eviction_when_full(self):
        c = small_cache(assoc=2, sets=1)
        c.allocate(0x00, State.S, cycle=1)
        c.allocate(0x40, State.S, cycle=2)
        c.allocate(0x80, State.S, cycle=3)
        assert c.probe(0x00) is None       # LRU victim
        assert c.probe(0x80) is not None

    def test_on_evict_called_with_victim(self):
        c = small_cache(assoc=1, sets=1)
        c.allocate(0x00, State.M)
        evicted = []
        c.allocate(0x40, State.S, on_evict=evicted.append)
        assert [line.addr for line in evicted] == [0x00]

    def test_writeback_counter_for_dirty_victim(self):
        c = small_cache(assoc=1, sets=1)
        c.allocate(0x00, State.M)
        c.allocate(0x40, State.S)
        assert c.stats["writebacks"] == 1

    def test_pinned_lines_never_evicted(self):
        c = small_cache(assoc=2, sets=1)
        pinned = c.allocate(0x00, State.I)
        pinned.not_visible = True
        c.allocate(0x40, State.S)
        c.allocate(0x80, State.S)   # must evict 0x40, not the pinned line
        assert c.probe(0x00) is pinned
        assert c.probe(0x40) is None

    def test_allocate_raises_when_all_pinned(self):
        c = small_cache(assoc=1, sets=1)
        c.allocate(0x00, State.I).not_visible = True
        with pytest.raises(LookupError):
            c.allocate(0x40, State.S)

    def test_veto_redirects_victim(self):
        c = small_cache(assoc=2, sets=1)
        a = c.allocate(0x00, State.S, cycle=1)
        c.allocate(0x40, State.S, cycle=2)
        # Without veto, LRU would evict a (0x00); veto forces 0x40.
        c.allocate(0x80, State.S, veto=lambda line: line is a)
        assert c.probe(0x00) is a
        assert c.probe(0x40) is None


class TestInstall:
    def test_installs_and_returns_the_new_line(self):
        c = small_cache()
        line = c.install(0x1008, State.E, cycle=3)
        assert line is c.probe(0x1000)
        assert (line.addr, line.state) == (0x1000, State.E)

    def test_resident_copy_takes_the_fill_in_place(self):
        c = small_cache(assoc=2, sets=1)
        resident = c.allocate(0x00, State.S, cycle=1)
        c.allocate(0x40, State.S, cycle=2)
        assert c.install(0x00, State.E, cycle=3) is None
        assert c.probe(0x00) is resident and resident.state == State.E
        c.allocate(0x80, State.S, cycle=4)    # the touch made 0x40 LRU
        assert c.probe(0x40) is None and c.probe(0x00) is resident

    def test_read_fill_leaves_a_resident_copy_unchanged(self):
        c = small_cache()
        resident = c.allocate(0x00, State.M)
        assert c.install(0x00, State.S) is None
        assert resident.state == State.M

    def test_evicts_the_first_unvetoed_victim(self):
        c = small_cache(assoc=2, sets=1)
        a = c.allocate(0x00, State.S, cycle=1)
        b = c.allocate(0x40, State.M, cycle=2)
        evicted = []
        # LRU would evict a; the veto moves the eviction to b.
        line = c.install(0x80, State.S, on_evict=evicted.append,
                         veto=lambda victim: victim is a)
        assert line is c.probe(0x80)
        assert evicted == [b] and c.probe(0x40) is None
        assert c.stats["writebacks"] == 1

    def test_none_when_every_way_is_pinned_or_vetoed(self):
        c = small_cache(assoc=2, sets=1)
        c.allocate(0x00, State.I).not_visible = True
        c.allocate(0x40, State.S).locked = True
        assert c.install(0x80, State.S) is None
        c.probe(0x40).locked = False
        assert c.install(0x80, State.S, veto=lambda victim: True) is None
        assert c.probe(0x80) is None and c.stats["evictions"] == 0


class TestCapacityQueries:
    def test_has_free_way(self):
        c = small_cache(assoc=2, sets=1)
        assert c.has_free_way(0x00)
        c.allocate(0x00, State.S)
        c.allocate(0x40, State.S)
        assert c.has_free_way(0x80)   # replaceable lines exist

    def test_no_free_way_when_pinned(self):
        c = small_cache(assoc=2, sets=1)
        c.allocate(0x00, State.I).not_visible = True
        c.allocate(0x40, State.I).not_visible = True
        assert not c.has_free_way(0x80)

    def test_free_ways_counts(self):
        c = small_cache(assoc=4, sets=1)
        assert c.free_ways(0x00) == 4
        c.allocate(0x00, State.S)
        assert c.free_ways(0x40) == 4   # resident line is replaceable
        c.probe(0x00).locked = True
        assert c.free_ways(0x40) == 3

    def test_occupancy(self):
        c = small_cache()
        c.allocate(0x1000, State.S)
        c.allocate(0x2000, State.M)
        assert c.occupancy() == 2


class TestInvalidate:
    def test_invalidate_removes(self):
        c = small_cache()
        c.allocate(0x1000, State.M)
        removed = c.invalidate(0x1000)
        assert removed is not None
        assert c.probe(0x1000) is None

    def test_invalidate_missing_returns_none(self):
        assert small_cache().invalidate(0x1000) is None


class TestReplacementPolicies:
    def test_lru_order(self):
        policy = LRU()
        lines = [CacheLine(0x40 * i, State.S) for i in range(3)]
        for i, line in enumerate(lines):
            policy.touch(line, i)
        policy.touch(lines[0], 5)  # refresh line 0
        assert policy.victim(lines) is lines[1]

    def test_mru_order(self):
        policy = MRU()
        lines = [CacheLine(0x40 * i, State.S) for i in range(3)]
        for i, line in enumerate(lines):
            policy.touch(line, i)
        assert policy.victim(lines) is lines[2]

    def test_victim_none_when_all_pinned(self):
        policy = LRU()
        lines = [CacheLine(0, State.S)]
        lines[0].locked = True
        assert policy.victim(lines) is None
