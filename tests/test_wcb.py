"""Write-combining buffers: coalescing, cycles, atomic groups, lex."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.addr import LEX_BITS, LINE_SHIFT, word_mask
from repro.mem.wcb import InsertResult, WCBFile

A = 0x10_0040
B = 0x10_0080
C = 0x10_00C0
#: A line with the same lex order as A (differs above the lex bits).
A_LEX_TWIN = A + (1 << (LEX_BITS + LINE_SHIFT))

M0 = word_mask(A, 8)
M1 = word_mask(A + 8, 8)


class TestBasicInsertion:
    def test_first_store_allocates(self):
        wcb = WCBFile(2)
        assert wcb.insert(A, M0) == InsertResult.ALLOCATED
        assert len(wcb) == 1

    def test_same_line_coalesces(self):
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        assert wcb.insert(A, M1) == InsertResult.COALESCED
        assert wcb.find(A).mask == M0 | M1
        assert wcb.find(A).stores == 2

    def test_new_line_takes_next_buffer(self):
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        assert wcb.insert(B, M0) == InsertResult.ALLOCATED
        assert len(wcb) == 2

    def test_full_needs_flush(self):
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        wcb.insert(B, M0)
        assert wcb.insert(C, M0) == InsertResult.NEED_FLUSH
        assert len(wcb) == 2  # nothing changed

    def test_offset_normalised_to_line(self):
        wcb = WCBFile(2)
        wcb.insert(A + 8, M1)
        assert wcb.find(A) is not None


class TestCycles:
    def test_return_to_earlier_buffer_forms_cycle(self):
        # The paper's ABA pattern: A, B, A makes {A, B} one atomic group.
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        wcb.insert(B, M0)
        assert wcb.insert(A, M1) == InsertResult.COALESCED
        groups = {entry.group for entry in wcb.buffers}
        assert len(groups) == 1

    def test_no_cycle_on_consecutive_same_line(self):
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        wcb.insert(A, M1)
        wcb.insert(B, M0)
        groups = {entry.group for entry in wcb.buffers}
        assert len(groups) == 2

    def test_cycle_counter(self):
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        wcb.insert(B, M0)
        wcb.insert(A, M1)
        assert wcb._cycles_formed.value == 1

    def test_lex_conflict_blocks_cycle(self):
        # A and its lex twin share the low 16 line-address bits: they may
        # never join one atomic group (Section III-C).
        wcb = WCBFile(3)
        wcb.insert(A, M0)
        wcb.insert(A_LEX_TWIN, M0)
        assert wcb.insert(A, M1) == InsertResult.LEX_CONFLICT
        # The blocked store changed nothing.
        assert wcb.find(A).mask == M0


class TestDrain:
    def test_drain_returns_groups_in_order(self):
        wcb = WCBFile(3)
        wcb.insert(A, M0)
        wcb.insert(B, M0)
        wcb.insert(C, M0)
        groups = wcb.drain_groups()
        assert [g[0].addr for g in groups] == [A, B, C]
        assert wcb.empty

    def test_drain_clusters_atomic_group(self):
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        wcb.insert(B, M0)
        wcb.insert(A, M1)  # cycle: {A, B}
        groups = wcb.drain_groups()
        assert len(groups) == 1
        assert {e.addr for e in groups[0]} == {A, B}

    def test_groups_leave_the_buffers_in_place(self):
        wcb = WCBFile(3)
        wcb.insert(A, M0)
        wcb.insert(B, M0)
        wcb.insert(A, M1)  # cycle: {A, B}
        wcb.insert(C, M0)
        groups = wcb.groups()
        assert [[e.addr for e in g] for g in groups] == [[A, B], [C]]
        assert len(wcb) == 3
        assert [[e.addr for e in g] for g in wcb.drain_groups()] == \
            [[A, B], [C]]

    def test_drain_resets_last_written(self):
        wcb = WCBFile(2)
        wcb.insert(A, M0)
        wcb.drain_groups()
        wcb.insert(B, M0)
        assert wcb.insert(B, M1) == InsertResult.COALESCED
        # No phantom cycle with the drained A.
        assert len({e.group for e in wcb.buffers}) == 1


class TestSearch:
    def test_find_counts_searches(self):
        wcb = WCBFile(2)
        wcb.find(A)
        wcb.find(B)
        assert wcb._searches.value == 2

    def test_find_miss(self):
        assert WCBFile(2).find(A) is None


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)),
                min_size=1, max_size=40))
def test_wcb_invariants(ops):
    """Property: buffers never exceed capacity, masks only grow, and all
    buffered lines are distinct."""
    wcb = WCBFile(3)
    lines = [0x20_0000 + i * 64 for i in range(6)]
    for line_idx, word in ops:
        line = lines[line_idx]
        result = wcb.insert(line, word_mask(line + word * 8, 8))
        assert len(wcb) <= 3
        if result == InsertResult.NEED_FLUSH:
            groups = wcb.drain_groups()
            assert wcb.empty
            flat = [e.addr for g in groups for e in g]
            assert len(flat) == len(set(flat))
    addrs = [e.addr for e in wcb.buffers]
    assert len(addrs) == len(set(addrs))
