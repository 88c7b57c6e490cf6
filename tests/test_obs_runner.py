"""Tests for the instrumented evaluation runner and the obs CLI verbs.

The determinism contract: an instrumented evaluation produces
byte-identical metrics snapshots whether it runs serially or fanned
across worker processes (each experiment gets its own fresh obs session
either way).
"""

import json

import pytest

from repro.cli import main
from repro.experiments.parallel import run_instrumented

EXPERIMENTS = ["E03", "E10", "E14"]  # machine-based, analytic, cluster


class TestRunInstrumented:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_instrumented(EXPERIMENTS, quick=True, workers=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_instrumented(EXPERIMENTS, quick=True, workers=2)

    def test_results_match_serial(self, serial, parallel):
        serial_text = [r.render_markdown() for r in serial.results]
        parallel_text = [r.render_markdown() for r in parallel.results]
        assert serial_text == parallel_text

    def test_snapshots_byte_identical(self, serial, parallel):
        assert list(serial.snapshots) == EXPERIMENTS
        for experiment_id in EXPERIMENTS:
            assert (json.dumps(serial.snapshots[experiment_id],
                               sort_keys=True)
                    == json.dumps(parallel.snapshots[experiment_id],
                                  sort_keys=True))

    def test_cluster_sources_land_in_snapshot(self, serial):
        counters = serial.snapshots["E14"]["metrics"]["counters"]
        for prefix in ("cluster.service", "cluster.node",
                       "cluster.fabric"):
            assert any(name.startswith(prefix) for name in counters), prefix

    def test_snapshot_content_sane(self, serial):
        snapshot = serial.snapshots["E03"]
        counters = snapshot["metrics"]["counters"]
        assert counters["engine.cycles"] > 0
        assert snapshot["machines"] > 0
        assert snapshot["timeline"]["spans"] > 0


class TestCliObsVerbs:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["run", "E10", "--quick",
                     "--trace", str(trace_path),
                     "--metrics", str(metrics_path)]) == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))
        snapshot = json.loads(metrics_path.read_text())
        assert "metrics" in snapshot
        err = capsys.readouterr().err
        assert "trace written" in err
        assert "metrics snapshot written" in err

    def test_profile_verb_prints_buckets(self, capsys):
        assert main(["profile", "E10", "--quick"]) == 0
        out = capsys.readouterr().out
        for bucket in ("issue", "stall", "mwait", "fastforward",
                       "idle", "total"):
            assert bucket in out
        assert "attribution exact" in out

    def test_profile_unknown_id_fails(self, capsys):
        assert main(["profile", "E99"]) == 2

    def test_evaluate_metrics_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "metrics"
        assert main(["evaluate", "--quick", "--metrics",
                     str(out_dir)]) in (0, 1)
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == [f"E{n:02d}-metrics.json"
                           for n in range(1, 19)]
        for path in out_dir.iterdir():
            snapshot = json.loads(path.read_text())
            assert "metrics" in snapshot
