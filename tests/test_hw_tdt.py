"""Tests for the Thread Descriptor Table, including Table 1 of the paper."""

import pytest

from repro import build_machine
from repro.arch.registers import RegisterClass
from repro.errors import PermissionFault
from repro.hw import Permission, PtidState, TdtEntry, ThreadDescriptorTable
from repro.hw.tdt import TdtCache, read_entry
from repro.mem import Memory


def paper_table_1(machine):
    """Build exactly the example TDT of Table 1."""
    return machine.build_tdt("tdt", {
        0x0: (0x01, Permission(0b1000)),
        0x1: (0x00, Permission(0b0000)),
        0x2: (0x10, Permission(0b1111)),
        0x3: (0x11, Permission(0b1110)),
    })


class TestTable1:
    """E01: reproduce Table 1 row by row."""

    def setup_method(self):
        self.machine = build_machine(hw_threads_per_core=32)
        self.tdt = paper_table_1(self.machine)

    def test_row_0_start_only(self):
        entry = self.tdt.get_entry(0x0)
        assert entry == TdtEntry(0x0, 0x01, Permission(0b1000))
        assert entry.valid
        assert entry.allows(Permission.START)
        assert not entry.allows(Permission.STOP)
        assert not entry.allows(Permission.MODIFY_SOME)
        assert not entry.allows(Permission.MODIFY_MOST)

    def test_row_1_invalid(self):
        entry = self.tdt.get_entry(0x1)
        assert not entry.valid
        assert entry.permissions == Permission.NONE

    def test_row_2_all_permissions(self):
        entry = self.tdt.get_entry(0x2)
        assert entry.ptid == 0x10
        for bit in (Permission.START, Permission.STOP,
                    Permission.MODIFY_SOME, Permission.MODIFY_MOST):
            assert entry.allows(bit)

    def test_row_3_no_modify_most(self):
        entry = self.tdt.get_entry(0x3)
        assert entry.ptid == 0x11
        assert entry.allows(Permission.START)
        assert entry.allows(Permission.STOP)
        assert entry.allows(Permission.MODIFY_SOME)
        assert not entry.allows(Permission.MODIFY_MOST)

    def test_register_permission_mapping(self):
        some_only = self.tdt.get_entry(0x3)
        assert some_only.allows_register(RegisterClass.GENERAL)
        assert some_only.allows_register(RegisterClass.VECTOR)
        assert not some_only.allows_register(RegisterClass.PC)
        assert not some_only.allows_register(RegisterClass.CONTROL)
        full = self.tdt.get_entry(0x2)
        assert full.allows_register(RegisterClass.PC)
        assert full.allows_register(RegisterClass.CONTROL)
        # privileged registers are never grantable via the TDT
        assert not full.allows_register(RegisterClass.PRIVILEGED)


class TestTdtMemoryResidence:
    def test_entries_live_in_simulated_memory(self):
        mem = Memory()
        region = mem.alloc("tdt", 1024)
        tdt = ThreadDescriptorTable(mem, region.base)
        tdt.set_entry(2, 7, Permission.ALL)
        assert mem.load(region.base + 2 * 16) == 7
        assert mem.load(region.base + 2 * 16 + 8) == 0b1111

    def test_hardware_walk_matches_software_view(self):
        mem = Memory()
        region = mem.alloc("tdt", 1024)
        tdt = ThreadDescriptorTable(mem, region.base)
        tdt.set_entry(5, 9, Permission.START | Permission.STOP)
        entry = read_entry(mem, region.base, 5)
        assert entry == tdt.get_entry(5)

    def test_clear_entry_invalidates(self):
        mem = Memory()
        tdt = ThreadDescriptorTable(mem, mem.alloc("tdt", 1024).base)
        tdt.set_entry(1, 3, Permission.ALL)
        tdt.clear_entry(1)
        assert not tdt.get_entry(1).valid

    def test_vtid_bounds(self):
        mem = Memory()
        tdt = ThreadDescriptorTable(mem, mem.alloc("tdt", 1024).base, capacity=4)
        with pytest.raises(PermissionFault):
            tdt.set_entry(4, 0, Permission.ALL)
        with pytest.raises(PermissionFault):
            read_entry(mem, tdt.base, -1)


class TestTdtCache:
    def test_miss_then_hit_latencies(self):
        mem = Memory()
        tdt = ThreadDescriptorTable(mem, mem.alloc("tdt", 1024).base)
        tdt.set_entry(0, 1, Permission.ALL)
        cache = TdtCache()
        entry1, cost1 = cache.lookup(mem, tdt.base, 0)
        entry2, cost2 = cache.lookup(mem, tdt.base, 0)
        assert entry1 == entry2
        assert cost1 == cache.costs.tdt_miss_cycles
        assert cost2 == cache.costs.tdt_lookup_cycles
        assert cache.hits == 1 and cache.misses == 1

    def test_update_without_invtid_is_stale(self):
        # the paper REQUIRES explicit invalidation; staleness is correct
        mem = Memory()
        tdt = ThreadDescriptorTable(mem, mem.alloc("tdt", 1024).base)
        tdt.set_entry(0, 1, Permission.ALL)
        cache = TdtCache()
        cache.lookup(mem, tdt.base, 0)
        tdt.set_entry(0, 2, Permission.START)  # update, no invtid
        entry, _ = cache.lookup(mem, tdt.base, 0)
        assert entry.ptid == 1  # stale
        assert cache.invalidate(tdt.base, 0)
        entry, _ = cache.lookup(mem, tdt.base, 0)
        assert entry.ptid == 2  # fresh after invalidation

    def test_invalidate_missing_returns_false(self):
        assert not TdtCache().invalidate(0x1000, 3)

    def test_invalidated_entry_pays_a_walk(self):
        mem = Memory()
        tdt = ThreadDescriptorTable(mem, mem.alloc("tdt", 1024).base)
        tdt.set_entry(3, 9, Permission.ALL)
        cache = TdtCache()
        cache.lookup(mem, tdt.base, 3)
        cache.invalidate(tdt.base, 3)
        entry, cost = cache.lookup(mem, tdt.base, 3)
        assert entry.ptid == 9
        assert cost == cache.costs.tdt_miss_cycles

    def test_invalidate_all(self):
        mem = Memory()
        tdt = ThreadDescriptorTable(mem, mem.alloc("tdt", 1024).base)
        tdt.set_entry(0, 1, Permission.ALL)
        cache = TdtCache()
        cache.lookup(mem, tdt.base, 0)
        cache.invalidate_all()
        assert len(cache) == 0


class TestGuestVisibleTdt:
    """TDT-checked start/stop from guest programs."""

    def _two_thread_machine(self, perms, manager_supervisor=False):
        machine = build_machine(hw_threads_per_core=32)
        tdt = machine.build_tdt("tdt", {1: (1, perms)})
        fault_area = machine.alloc("fault", 64)
        machine.load_asm(0, """
            start 1
            halt
        """, supervisor=manager_supervisor, tdtr=tdt.base, edp=fault_area.base)
        machine.load_asm(1, "movi r1, 123\nhalt")
        return machine, fault_area

    def test_start_with_permission_works(self):
        machine, _fault = self._two_thread_machine(Permission.START)
        machine.boot(0)
        machine.run()
        assert machine.thread(1).finished
        assert machine.thread(1).arch.read("r1") == 123

    def test_start_without_permission_faults(self):
        machine, fault = self._two_thread_machine(Permission.STOP)
        machine.boot(0)
        machine.run()
        target = machine.thread(1)
        assert not target.finished  # never started
        assert target.state is PtidState.DISABLED
        # caller got a permission-fault descriptor instead
        from repro.hw.exceptions import ExceptionDescriptor, ExceptionKind
        descriptor = ExceptionDescriptor.read(machine.memory, fault.base)
        assert descriptor.kind is ExceptionKind.PERMISSION_FAULT
        assert descriptor.ptid == 0

    def test_invalid_entry_faults(self):
        machine, fault = self._two_thread_machine(Permission.NONE)
        machine.boot(0)
        machine.run()
        assert not machine.thread(1).finished

    def test_supervisor_bypasses_tdt(self):
        machine, _ = self._two_thread_machine(Permission.NONE,
                                              manager_supervisor=True)
        machine.boot(0)
        machine.run()
        assert machine.thread(1).finished

    def test_user_thread_without_tdt_faults(self):
        machine = build_machine(hw_threads_per_core=8)
        fault = machine.alloc("fault", 64)
        machine.load_asm(0, "start 1\nhalt", supervisor=False,
                         edp=fault.base)  # tdtr stays 0
        machine.load_asm(1, "halt")
        machine.boot(0)
        machine.run()
        assert machine.memory.load(fault.base) != 0  # descriptor present


class TestInvtidInstruction:
    def test_tdt_update_invisible_until_invtid(self):
        machine = build_machine(hw_threads_per_core=32)
        # vtid 1 -> ptid 1 initially; manager starts vtid 1 twice with a
        # remap to ptid 2 in between. Without invtid the second start
        # must still hit ptid 1's (stale) cached entry.
        tdt = machine.build_tdt("tdt", {1: (1, Permission.ALL)})
        done = machine.alloc("done", 64)
        machine.load_asm(0, """
            start 1          ; caches vtid1 -> ptid1
            work 2000
            start 1          ; stale: still ptid1 (a no-op, it runs)
            work 2000
            halt
        """, supervisor=True, tdtr=tdt.base)
        machine.load_asm(1, "movi r1, 111\nhalt")
        machine.load_asm(2, "movi r1, 222\nhalt")
        machine.boot(0)
        machine.run(until=1500)
        tdt.set_entry(1, 2, Permission.ALL)  # remap, NO invtid
        machine.run()
        assert machine.thread(1).finished
        assert not machine.thread(2).finished, "stale TDT entry was bypassed"
        _ = done

    def test_invtid_makes_update_visible(self):
        machine = build_machine(hw_threads_per_core=32)
        tdt = machine.build_tdt("tdt", {1: (1, Permission.ALL)})
        machine.load_asm(0, """
            start 1
            work 2000
            invtid 0, 1      ; invalidate my own TDT's entry for vtid 1
            start 1          ; re-walks the table: now ptid 2
            work 2000
            halt
        """, supervisor=True, tdtr=tdt.base)
        # supervisor with tdtr set: vtid 0 resolves via TDT too, so map it
        tdt.set_entry(0, 0, Permission.ALL)
        machine.load_asm(1, "movi r1, 111\nhalt")
        machine.load_asm(2, "movi r1, 222\nhalt")
        machine.boot(0)
        machine.run(until=1500)
        tdt.set_entry(1, 2, Permission.ALL)
        machine.run()
        assert machine.thread(1).finished
        assert machine.thread(2).finished
