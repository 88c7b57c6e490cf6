"""The cost model: every latency constant in one auditable place.

Each field cites the sentence of the paper (or the paper's own citation)
that motivates its default. The experiments never hard-code latencies;
they read them from a :class:`CostModel`, so sensitivity studies are a
matter of constructing variants (see :meth:`CostModel.scaled`).

All values are CPU cycles at the paper's reference 3 GHz clock
(1 ns = 3 cycles).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError, require_int


@dataclass(frozen=True)
class CostModel:
    """Latency constants for both worlds (baseline and proposed).

    Baseline (context-switching) world
    ----------------------------------
    mode_switch_cycles
        Trap into the kernel and back within one hardware thread
        (syscall/sysret plus the state management around it). Paper,
        Section 2: "the state management necessary when switching
        privilege levels within a hardware thread can take hundreds of
        cycles [46, 69]". Direct cost; cache/TLB pollution is separate.
    sw_switch_cycles
        Software thread switch in the same privilege level: register
        save/restore and kernel bookkeeping. Paper, Section 1: "Even
        switching between software threads in the same protection level
        incurs hundreds of cycles of overhead [25, 46]".
    sw_switch_fp_extra_cycles
        Additional cost when the 512-byte FXSAVE area must be saved and
        restored (Section 2, "Access to All Registers in the Kernel").
    scheduler_cycles
        One kernel-scheduler invocation (pick-next plus queue
        maintenance). Part of the Section 1 wakeup chain: "running the
        kernel scheduler".
    irq_entry_cycles / irq_exit_cycles
        Entering/leaving a hard IRQ context via the IDT, including the
        interrupt frame. Section 2: eliminating "an expensive transition
        to a hard IRQ context".
    ipi_cycles
        Delivering an inter-processor interrupt to another core
        (Section 1: "potentially sending an inter-processor interrupt
        (IPI) to another core").
    vm_exit_cycles
        Hardware VM-exit to root mode and the corresponding resume.
        Section 2: "waste hundreds of nanoseconds context-switching to
        root-mode" [20, 53] -- hundreds of ns = roughly a thousand
        cycles round-trip at 3 GHz.
    cache_pollution_cycles
        Aggregate cache/TLB warmup penalty after a context switch
        ("suffering many cache misses along the way", Section 1). The
        indirect cost FlexSC [69] measures.

    Proposed (hardware-thread) world
    --------------------------------
    hw_start_rf_cycles
        Starting a ptid whose state sits in the per-core register file:
        "proportional to the length of the pipeline, roughly 20 clock
        cycles in modern processors" (Section 4).
    hw_start_l2_cycles / hw_start_l3_cycles
        Starting a ptid whose state was spilled to L2/L3: "the
        additional cost of a bulk transfer of register state from the L2
        or L3 cache is limited to 10 to 50 clock cycles (i.e., 3ns to
        16ns for a 3GHz CPU)" (Section 4). We take 10+20 and 50+20 (the
        transfer is *additional* to the pipeline refill).
    hw_stop_cycles
        Disabling a ptid: drain its in-flight instructions -- of the
        order of the pipeline depth.
    monitor_wakeup_cycles
        Write-to-runnable latency of the monitor unit (HyperPlane [57]
        shows "such monitoring is possible with relatively small
        overhead").
    rpull_rpush_cycles
        One remote register read/write by another ptid.
    tdt_lookup_cycles / tdt_miss_cycles
        vtid->ptid translation hit in the TDT cache vs. a walk of the
        memory-resident table (invtid forces misses).

    Coherence (src/repro/coherence, off by default)
    -----------------------------------------------
    dir_arm_cycles
        ``monitor`` joining a line's directory sharer set: one
        directory lookup + entry update, of L2-access order.
    dir_disarm_cycles
        Retiring a sharer entry when a watch is consumed or cancelled.
    dir_inval_base_cycles
        Writer-side fixed cost of a store hitting a shared line: the
        directory visit that starts the invalidation fan-out.
    dir_inval_per_sharer_cycles
        Per-sharer invalidation message; the directory serializes them,
        so both the writer's charge and the k-th waiter's forward delay
        grow by this much per sharer.
    dir_forward_cycles
        Forwarding the wakeup to one sharer -- a cache-to-cache hop, of
        L3-access order.
    tdt_cross_shard_cycles
        Resolving a vtid homed on another node's TDT partition: one
        fabric round trip (2 x the 2000-cycle default link base).

    Memory system
    -------------
    l1_hit_cycles, l2_hit_cycles, l3_hit_cycles, dram_cycles
        Conventional load-to-use latencies used by the cache simulator.
    """

    # --- baseline world ------------------------------------------------
    mode_switch_cycles: int = 300
    sw_switch_cycles: int = 500
    sw_switch_fp_extra_cycles: int = 200
    scheduler_cycles: int = 800
    irq_entry_cycles: int = 400
    irq_exit_cycles: int = 300
    ipi_cycles: int = 1500
    vm_exit_cycles: int = 1200
    cache_pollution_cycles: int = 1000

    # --- proposed world ------------------------------------------------
    hw_start_rf_cycles: int = 20
    hw_start_l2_cycles: int = 30
    hw_start_l3_cycles: int = 70
    hw_stop_cycles: int = 10
    monitor_wakeup_cycles: int = 4
    rpull_rpush_cycles: int = 3
    tdt_lookup_cycles: int = 1
    tdt_miss_cycles: int = 40

    # --- coherence (directory watch bus + sharded TDT) -------------------
    dir_arm_cycles: int = 6
    dir_disarm_cycles: int = 4
    dir_inval_base_cycles: int = 12
    dir_inval_per_sharer_cycles: int = 8
    dir_forward_cycles: int = 20
    tdt_cross_shard_cycles: int = 4_000

    # --- memory system --------------------------------------------------
    l1_hit_cycles: int = 4
    l2_hit_cycles: int = 14
    l3_hit_cycles: int = 50
    dram_cycles: int = 250

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            require_int(field.name, getattr(self, field.name), 0)

    # ------------------------------------------------------------------
    # derived path costs
    # ------------------------------------------------------------------
    def baseline_io_wakeup_cycles(self, cross_core: bool = False,
                                  include_pollution: bool = True) -> int:
        """Cost of waking a blocked software thread on I/O, the Section 1
        chain: IRQ entry + handler exit + scheduler + (optional IPI) +
        software switch + cache-pollution penalty."""
        total = (self.irq_entry_cycles + self.irq_exit_cycles
                 + self.scheduler_cycles + self.sw_switch_cycles)
        if cross_core:
            total += self.ipi_cycles
        if include_pollution:
            total += self.cache_pollution_cycles
        return total

    def hw_wakeup_cycles(self, tier: str = "rf") -> int:
        """Cost of an mwait-wakeup dispatch in the proposed model."""
        return self.monitor_wakeup_cycles + self.hw_start_cycles(tier)

    def hw_start_cycles(self, tier: str) -> int:
        """Start latency by storage tier ('rf' | 'l2' | 'l3')."""
        if tier == "rf":
            return self.hw_start_rf_cycles
        if tier == "l2":
            return self.hw_start_l2_cycles
        if tier == "l3":
            return self.hw_start_l3_cycles
        raise ConfigError(f"unknown storage tier {tier!r}")

    def sw_switch_total_cycles(self, fp_state: bool = False,
                               include_pollution: bool = True) -> int:
        """Full software context switch including scheduler."""
        total = self.sw_switch_cycles + self.scheduler_cycles
        if fp_state:
            total += self.sw_switch_fp_extra_cycles
        if include_pollution:
            total += self.cache_pollution_cycles
        return total

    def syscall_sync_cycles(self, fp_save: bool = False) -> int:
        """In-thread synchronous syscall entry+exit overhead."""
        total = self.mode_switch_cycles
        if fp_save:
            total += self.sw_switch_fp_extra_cycles
        return total

    def syscall_hw_thread_cycles(self, tier: str = "rf") -> int:
        """Dedicated-ptid syscall: start the kernel ptid, pass args."""
        return self.hw_start_cycles(tier) + self.rpull_rpush_cycles

    def vm_exit_hw_thread_cycles(self, tier: str = "rf") -> int:
        """VM-exit as stop(guest)+start(hypervisor) instead of a mode switch."""
        return self.hw_stop_cycles + self.hw_start_cycles(tier)

    # ------------------------------------------------------------------
    def scaled(self, **overrides: int) -> "CostModel":
        """A copy with selected fields replaced (for sensitivity sweeps)."""
        return dataclasses.replace(self, **overrides)
