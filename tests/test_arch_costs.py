"""Tests for the cost model and its derived path costs."""

import dataclasses

import pytest

from repro.arch import CostModel
from repro.errors import ConfigError


@pytest.fixture
def costs():
    return CostModel()


def test_paper_rf_start_is_about_20_cycles(costs):
    # Section 4: "roughly 20 clock cycles in modern processors"
    assert costs.hw_start_rf_cycles == 20


def test_paper_l2_l3_transfer_within_10_to_50_extra(costs):
    # Section 4: bulk transfer from L2/L3 adds 10-50 cycles over RF start
    assert 10 <= costs.hw_start_l2_cycles - costs.hw_start_rf_cycles <= 50
    assert 10 <= costs.hw_start_l3_cycles - costs.hw_start_rf_cycles <= 50


def test_sw_switch_is_hundreds_of_cycles(costs):
    # Section 1: "hundreds of cycles of overhead"
    assert 100 <= costs.sw_switch_cycles <= 1000


def test_mode_switch_is_hundreds_of_cycles(costs):
    # Section 2: "can take hundreds of cycles [46, 69]"
    assert 100 <= costs.mode_switch_cycles <= 1000


def test_vm_exit_is_hundreds_of_ns(costs):
    # Section 2: "hundreds of nanoseconds" -> >= 300 cycles at 3GHz
    assert costs.vm_exit_cycles >= 300


def test_hw_wakeup_beats_baseline_wakeup_by_an_order_of_magnitude(costs):
    # The central claim: mwait wakeup vs IRQ+scheduler+switch chain.
    for tier in ("rf", "l2", "l3"):
        assert costs.baseline_io_wakeup_cycles() > 10 * costs.hw_wakeup_cycles(tier)


def test_baseline_wakeup_chain_components(costs):
    base = costs.baseline_io_wakeup_cycles(cross_core=False, include_pollution=False)
    assert base == (costs.irq_entry_cycles + costs.irq_exit_cycles
                    + costs.scheduler_cycles + costs.sw_switch_cycles)
    assert (costs.baseline_io_wakeup_cycles(cross_core=True, include_pollution=False)
            == base + costs.ipi_cycles)
    assert (costs.baseline_io_wakeup_cycles(cross_core=False, include_pollution=True)
            == base + costs.cache_pollution_cycles)


def test_tier_ordering(costs):
    assert (costs.hw_start_cycles("rf") < costs.hw_start_cycles("l2")
            < costs.hw_start_cycles("l3"))


def test_unknown_tier_raises(costs):
    with pytest.raises(ConfigError):
        costs.hw_start_cycles("dram")


def test_fp_state_makes_switches_dearer(costs):
    assert (costs.sw_switch_total_cycles(fp_state=True)
            > costs.sw_switch_total_cycles(fp_state=False))
    assert (costs.syscall_sync_cycles(fp_save=True)
            > costs.syscall_sync_cycles(fp_save=False))


def test_hw_syscall_beats_sync_syscall(costs):
    for tier in ("rf", "l2", "l3"):
        assert costs.syscall_hw_thread_cycles(tier) < costs.syscall_sync_cycles()


def test_hw_vm_exit_beats_hw_mode_switch(costs):
    for tier in ("rf", "l2"):
        assert costs.vm_exit_hw_thread_cycles(tier) < costs.vm_exit_cycles


def test_scaled_overrides_single_field(costs):
    tweaked = costs.scaled(sw_switch_cycles=999)
    assert tweaked.sw_switch_cycles == 999
    assert tweaked.scheduler_cycles == costs.scheduler_cycles
    assert costs.sw_switch_cycles == 500  # original untouched


def test_negative_cost_rejected():
    with pytest.raises(ConfigError):
        CostModel(sw_switch_cycles=-1)


@pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
def test_non_integer_cost_rejected(value):
    """Every constant is a whole number of cycles: a float, a bool or a
    string fails at construction, naming the field, not mid-run."""
    for field in dataclasses.fields(CostModel):
        with pytest.raises(ConfigError, match=field.name):
            CostModel(**{field.name: value})
    with pytest.raises(ConfigError, match="monitor_wakeup_cycles"):
        CostModel().scaled(monitor_wakeup_cycles=value)


def test_memory_hierarchy_ordering(costs):
    assert (costs.l1_hit_cycles < costs.l2_hit_cycles
            < costs.l3_hit_cycles < costs.dram_cycles)
