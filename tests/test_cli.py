"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 19):
            assert f"E{i:02d}" in out

    def test_anchors_shown(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "Table 1" in out


class TestRun:
    def test_run_quick_experiment(self, capsys):
        assert main(["run", "E10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out

    def test_lowercase_id_accepted(self, capsys):
        assert main(["run", "e10", "--quick"]) == 0

    def test_unknown_id_fails_with_message(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "E01" in capsys.readouterr().err

    def test_seed_parses_hex(self, capsys):
        assert main(["run", "E10", "--quick", "--seed", "0xBEEF"]) == 0


class TestJsonOutput:
    def test_run_json_is_parseable(self, capsys):
        import json
        assert main(["run", "E10", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "E10"
        assert payload["claims"]
        assert all(c["verdict"] == "supported" for c in payload["claims"])
        assert payload["tables"][0]["columns"]


class TestCluster:
    def test_runs_and_prints_summary_table(self, capsys):
        assert main(["cluster", "--nodes", "4", "--fanout", "2",
                     "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "hw-threads" in out
        assert "conserved" in out

    def test_design_all_compares_three(self, capsys):
        assert main(["cluster", "--nodes", "4", "--design", "all",
                     "--requests", "30"]) == 0
        out = capsys.readouterr().out
        for name in ("hw-threads", "sw-threads", "event-loop"):
            assert name in out

    def test_unknown_design_fails(self, capsys):
        assert main(["cluster", "--design", "fibers"]) == 2
        assert "unknown server design" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["cluster", "trace"])
    @pytest.mark.parametrize("flags", [("--policy", "jsq"),
                                       ("--policy", "p2c"),
                                       ("--hedge-after", "1000")])
    def test_sharded_load_aware_routing_fails(self, capsys, verb, flags):
        assert main([verb, "--nodes", "4", "--shards", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert "shards > 1 needs state-free routing" in err
        assert "'random' or 'round-robin'" in err

    def test_json_output_parseable(self, capsys):
        import json
        assert main(["cluster", "--nodes", "2", "--requests", "20",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hw-threads"]["conserved"] is True


#: every option of the two run verbs and the default it parses to
RUN_FLAGS = {
    "cluster": {
        "--nodes": 8, "--design": "hw-threads", "--backend": "model",
        "--policy": "round-robin", "--fanout": 1, "--load": 0.6,
        "--requests": 500, "--queue-limit": None, "--hedge-after": None,
        "--shards": 1, "--drop-prob": 0.0, "--seed": 0xC0FFEE,
        "--json": False, "--trace": None, "--metrics": None,
        "--span-trace": None},
    "trace": {
        "--top": 5, "--nodes": 8, "--design": "sw-threads",
        "--backend": "model", "--policy": "round-robin", "--fanout": 1,
        "--load": 0.6, "--requests": 500, "--queue-limit": None,
        "--hedge-after": None, "--shards": 1, "--seed": 0xC0FFEE,
        "--json": False, "--span-trace": None},
}


@pytest.mark.parametrize("verb", sorted(RUN_FLAGS))
def test_run_verb_options_and_defaults(verb):
    import argparse

    from repro.cli import _build_parser

    parser = _build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    parsed = parser.parse_args([verb])
    options = {option: getattr(parsed, action.dest)
               for action in sub.choices[verb]._actions
               for option in action.option_strings if action.dest != "help"}
    assert options == RUN_FLAGS[verb]


class TestTrace:
    ARGS = ["--nodes", "4", "--fanout", "2", "--load", "0.3",
            "--requests", "30"]

    def test_renders_slowest_trees(self, capsys):
        assert main(["trace", "--top", "2", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert out.count("critical path:") == 2
        assert "*critical*" in out
        assert "switch_tax" in out
        assert "completed requests traced" in out

    def test_json_payload(self, capsys):
        import json
        assert main(["trace", "--json", *self.ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["completed"] == 30
        assert set(payload["components"]) == {
            "hedge_wait", "net_request", "queue", "service",
            "switch_tax", "blocked", "net_response"}

    def test_bad_top_rejected(self, capsys):
        assert main(["trace", "--top", "0", *self.ARGS]) == 2
        assert "--top" in capsys.readouterr().err

    def test_span_trace_file_validates(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace
        path = tmp_path / "spans.trace.json"
        assert main(["trace", "--top", "2", "--span-trace", str(path),
                     *self.ARGS]) == 0
        validate_chrome_trace(json.loads(path.read_text()))

    def test_sharded_trace_matches_single(self, capsys):
        import json
        args = ["trace", "--json", "--nodes", "4", "--fanout", "1",
                "--load", "0.3", "--requests", "20"]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main([*args, "--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert json.loads(single) == json.loads(sharded)


class TestClusterSpanTrace:
    def test_design_all_collects_every_design(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace
        path = tmp_path / "spans.trace.json"
        assert main(["cluster", "--nodes", "4", "--design", "all",
                     "--fanout", "2", "--load", "0.3",
                     "--requests", "20", "--span-trace", str(path)]) == 0
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        names = {event["args"]["name"]
                 for event in trace["traceEvents"]
                 if event["name"] == "process_name"}
        for design in ("hw-threads", "sw-threads", "event-loop"):
            assert any(name.startswith(design) for name in names)


class TestRunSpanFlags:
    def test_untraced_experiment_rejected(self, capsys):
        assert main(["run", "E10", "--quick",
                     "--span-trace", "/tmp/nope.json"]) == 2
        assert "publishes no span trees" in capsys.readouterr().err


class TestIsaReference:
    def test_lists_proposed_instructions(self, capsys):
        assert main(["isa"]) == 0
        out = capsys.readouterr().out
        for op in ("monitor", "mwait", "start", "stop", "rpull",
                   "rpush", "invtid"):
            assert op in out


class TestSensitivity:
    def test_prints_break_even_table(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "mode_switch_cycles" in out
        assert "safety margin" in out


class TestMisc:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_module_entry_point(self):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "E01" in result.stdout
