"""Integration tests: every experiment runs (quick mode) and reproduces
the paper's shape -- orderings, crossovers, and exact constants."""

import pytest

from repro.analysis.report import Verdict
from repro.errors import ConfigError
from repro.experiments import all_experiments, get_experiment
from repro.experiments.registry import register


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = [e.experiment_id for e in all_experiments()]
        assert ids == [f"E{i:02d}" for i in range(1, 19)]

    def test_lookup_by_id(self):
        exp = get_experiment("E05")
        assert "VM-exit" in exp.title

    def test_unknown_id_lists_known(self):
        with pytest.raises(ConfigError) as err:
            get_experiment("E99")
        assert "E01" in str(err.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register("E01", "dup", "nowhere")(lambda **kw: None)

    def test_every_experiment_has_anchor(self):
        for exp in all_experiments():
            assert "Section" in exp.paper_anchor or "Table" in exp.paper_anchor


@pytest.fixture(scope="module")
def results():
    """Run every experiment once in quick mode; shared across tests."""
    return {e.experiment_id: e.run(quick=True) for e in all_experiments()}


class TestAllExperiments:
    def test_no_refuted_claims(self, results):
        for eid, result in results.items():
            refuted = [c.claim for c in result.claims
                       if c.verdict is Verdict.REFUTED]
            assert not refuted, f"{eid} refuted: {refuted}"

    def test_every_experiment_has_tables_and_claims(self, results):
        for eid, result in results.items():
            assert result.tables, f"{eid} produced no tables"
            assert result.claims, f"{eid} produced no claims"

    def test_renders_are_nonempty(self, results):
        for result in results.values():
            assert len(result.render()) > 100
            assert result.render_markdown().startswith("###")


class TestE01Shape:
    def test_table1_outcomes_match_permissions(self, results):
        observed = results["E01"].series("observed")
        assert observed[0x0] == {"start": True, "stop": False,
                                 "modify_some": False, "modify_most": False}
        assert observed[0x2] == {"start": True, "stop": True,
                                 "modify_some": True, "modify_most": True}
        assert observed[0x3]["modify_most"] is False
        assert not any(observed[0x1].values())


class TestE02Shape:
    def test_hw_dispatch_order_of_magnitude_faster(self, results):
        data = results["E02"].data
        assert data["speedup"] > 10

    def test_isa_and_model_agree(self, results):
        data = results["E02"].data
        assert 0.2 * data["hw_mean"] <= data["isa_mean"] \
            <= 5 * data["hw_mean"]


class TestE03Shape:
    def test_mwait_latency_tracks_polling(self, results):
        series = results["E03"].series("series")
        for load in results["E03"].series("loads"):
            assert series["mwait"][load]["p50"] \
                <= series["polling"][load]["p50"] + 1_700

    def test_polling_wastes_most(self, results):
        series = results["E03"].series("series")
        load = results["E03"].series("loads")[0]
        assert series["polling"][load]["wasted_frac"] > 0.5
        assert series["mwait"][load]["wasted_frac"] < 0.05


class TestE04Shape:
    def test_hw_path_lowest_overhead(self, results):
        series = results["E04"].series("series")
        for work, cell in series["hw-thread"].items():
            assert cell["overhead_frac"] < series["sync"][work]["overhead_frac"]


class TestE05Shape:
    def test_slowdown_ordering_at_every_interval(self, results):
        series = results["E05"].series("series")
        for interval in series["in-thread"]:
            hw = series["hw-thread"][interval]["slowdown"]
            sx = series["splitx"][interval]["slowdown"]
            it = series["in-thread"][interval]["slowdown"]
            assert hw <= sx <= it

    def test_splitx_sharing_degrades(self, results):
        sharing = results["E05"].series("sharing")
        counts = sorted(sharing)
        assert sharing[counts[-1]]["splitx"] >= sharing[counts[0]]["splitx"]
        # hw design is flat in guest count
        assert sharing[counts[-1]]["hw"] == pytest.approx(
            sharing[counts[0]]["hw"], rel=0.01)


class TestE06Shape:
    def test_fp_penalty_only_on_sync(self, results):
        cells = results["E06"].series("cells")
        assert cells["sync"]["fp"] > cells["sync"]["base"]
        assert cells["hw-thread"]["fp"] == cells["hw-thread"]["base"]


class TestE07Shape:
    def test_direct_start_rtt_two_orders_smaller(self, results):
        rtt = results["E07"].series("rtt")
        assert rtt["scheduler"] / rtt["direct-start"] > 50


class TestE08Shape:
    def test_untrusted_hv_no_privilege(self, results):
        outcome = results["E08"].series("outcome")
        assert outcome.hv_ran_privileged is False

    def test_matrix_non_hierarchical(self, results):
        matrix = results["E08"].series("matrix")
        assert matrix["b_stopped_a"] and matrix["c_stopped_b"]
        assert not matrix["c_stopped_a"]


class TestE09Shape:
    def test_sw_threads_worst_at_high_load(self, results):
        series = results["E09"].series("load_series")
        top = max(series["hw-threads"])
        assert (series["sw-threads"][top]["p99"]
                >= series["hw-threads"][top]["p99"])


class TestE10Shape:
    def test_paper_constants(self, results):
        data = results["E10"].data
        assert data["rf_full"] == 83
        assert data["chip_bytes"] == 6400 * 1024

    def test_tiers_fill_in_order(self, results):
        occupancy = results["E10"].series("occupancy")
        assert occupancy["rf"] > 0
        assert occupancy["l3"] >= 0


class TestE11Shape:
    def test_tier_latencies_ordered(self, results):
        measured = results["E11"].series("measured")
        assert measured["rf"] < measured["l2"] < measured["l3"]

    def test_sw_switch_dwarfs_hw_start(self, results):
        data = results["E11"].data
        assert data["sw_switch"] > 10 * data["measured"]["rf"]

    def test_pinning_helps(self, results):
        pinning = results["E11"].series("pinning")
        assert pinning["pinned"] < pinning["unpinned"]


class TestE12Shape:
    def test_ps_wins_at_high_scv(self, results):
        series = results["E12"].series("series")
        high = max(series["ps"])
        assert series["ps"][high]["p99"] < series["fifo"][high]["p99"]

    def test_sw_rr_pays_for_fine_quanta(self, results):
        ablation = results["E12"].series("ablation")
        fine = min(ablation)
        assert ablation[fine]["sw"]["p99"] > ablation[fine]["hw"]["p99"]
        assert ablation[fine]["sw"]["overhead"] > 0


class TestE14Shape:
    def test_ratio_grows_with_node_count(self, results):
        tail = results["E14"].series("tail")
        ratios = [tail[n]["ratio"]
                  for n in results["E14"].series("node_counts")]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_deep_fanout_amplifies_past_2x(self, results):
        tail = results["E14"].series("tail")
        for cell in tail.values():
            if cell["fanout"] >= 8:
                assert cell["ratio"] > 2.0

    def test_every_cell_conserved(self, results):
        tail = results["E14"].series("tail")
        assert all(cell["conserved"] for cell in tail.values())

    def test_fan_in_tax_hits_only_sw(self, results):
        tax = results["E14"].series("tax")
        counts = results["E14"].series("node_counts")
        sw = [tax[n]["sw_util"] for n in counts]
        assert all(b > a for a, b in zip(sw, sw[1:]))
        hw = {tax[n]["hw_util"] for n in counts}
        assert len(hw) == 1  # flat: no crowd term

    def test_no_policy_recovers_hw(self, results):
        policies = results["E14"].series("policies")
        for cell in policies.values():
            assert cell["sw-threads"] > cell["hw-threads"]

    def test_hedging_masks_drops(self, results):
        hedge = results["E14"].series("hedge")
        assert hedge["on"]["dropped"] < hedge["off"]["dropped"]
        assert hedge["on"]["hedges"] > 0


class TestE15Shape:
    def test_backends_agree_within_2x(self, results):
        assert results["E15"].series("worst_p99_deviation") <= 2.0

    def test_every_cell_ran_both_backends(self, results):
        cells = results["E15"].series("cells")
        for nodes in results["E15"].series("node_counts"):
            for design in results["E15"].series("designs"):
                for backend in ("model", "isa"):
                    cell = cells[nodes][design][backend]
                    assert cell["completed"] > 0
                    assert cell["conserved"]

    def test_sw_tax_ordering_survives_the_jump(self, results):
        ratios = results["E15"].series("sw_hw_ratios")
        assert all(r > 1.0 for r in ratios["model"])
        assert all(r > 1.0 for r in ratios["isa"])

    def test_all_claims_supported(self, results):
        assert results["E15"].all_supported()


class TestE16Shape:
    def test_conservation_exact_everywhere(self, results):
        conservation = results["E16"].series("conservation")
        assert conservation["checked"] > 0
        assert conservation["violations"] == 0

    def test_ratio_ordering_reproduces_e14(self, results):
        scale = results["E16"].series("scale")
        ratios = [scale[n]["ratio"]
                  for n in results["E16"].series("node_counts")]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_tax_plus_queue_dominates_sw_tail(self, results):
        scale = results["E16"].series("scale")
        for nodes, cell in scale.items():
            assert cell["sw_taxq_p99"] > cell["hw_taxq_p99"]
            if nodes >= 8:
                assert cell["sw_taxq_p99"] > cell["sw_taxq_p50"]

    def test_sharded_spans_byte_identical(self, results):
        assert results["E16"].series("sharding_identical") is True

    def test_publishes_span_exemplars_per_design(self, results):
        exemplars = results["E16"].series("span_exemplars")
        assert set(exemplars) == {"hw-threads", "sw-threads",
                                  "event-loop"}
        from repro.obs.spans import critical_path
        for trees in exemplars.values():
            assert trees
            for tree in trees:
                path = critical_path(tree)
                assert sum(path.values()) == tree["latency"]

    def test_isa_tax_lands_on_sw_only(self, results):
        isa = results["E16"].series("isa")
        assert isa["sw-threads"]["p99"]["tax_share"] \
            > isa["hw-threads"]["p99"]["tax_share"]


class TestE17Shape:
    def test_last_wake_monotone_in_sharers(self, results):
        sweep = results["E17"].series("sharer_sweep")
        last = [row["last_wake"] for row in sweep]
        assert all(a < b for a, b in zip(last, last[1:]))

    def test_first_wake_flat_in_sharers(self, results):
        # the first forward leaves the directory at index 0 regardless
        # of how many sharers queue behind it
        sweep = results["E17"].series("sharer_sweep")
        first = [row["first_wake"] for row in sweep]
        assert len(set(first)) == 1

    def test_writer_pays_per_sharer(self, results):
        from repro.arch.costs import CostModel
        costs = CostModel()
        for row in results["E17"].series("sharer_sweep"):
            assert row["writer_cycles"] == (
                costs.dir_inval_base_cycles
                + costs.dir_inval_per_sharer_cycles * row["sharers"])

    def test_remote_mwait_beats_callback(self, results):
        for row in results["E17"].series("remote_mwait"):
            assert row["rdma_p50"] < row["callback_p50"]
            assert row["rdma_p99"] < row["callback_p99"]
            assert row["callback_tax_p50"] / row["rdma_tax_p50"] >= 10

    def test_p50_gap_is_the_transition_tax(self, results):
        overhead = results["E17"].series("sw_transition_overhead")
        for row in results["E17"].series("remote_mwait"):
            gap = row["callback_p50"] - row["rdma_p50"]
            assert 0.8 * overhead <= gap <= 1.1 * overhead

    def test_tdt_amplification_grows_with_fanout(self, results):
        rows = results["E17"].series("tdt_amplification")
        amps = [row["amplification"] for row in rows]
        assert all(a < b for a, b in zip(amps, amps[1:]))
        assert amps[-1] > 10 * amps[0] / rows[-1]["fanout"]

    def test_flat_tdt_bill_is_one_rewalk(self, results):
        from repro.arch.costs import CostModel
        costs = CostModel()
        rewalk = costs.tdt_miss_cycles - costs.tdt_lookup_cycles
        for row in results["E17"].series("tdt_amplification"):
            assert row["flat_cycles_per_invtid"] == rewalk

    def test_all_claims_supported(self, results):
        assert results["E17"].all_supported()

