"""Self-tests of the benchmark. Run from the repository root::

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import ledger  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: ``[A-Za-z0-9_.-]+``, starting with a letter or digit, at most 64 long
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(workload: wl.Workload) -> wl.Workload:
    """The workload with short runs, for quick checks."""
    shrink = 20 if workload.configs[0].backend == "isa" else 150
    return dataclasses.replace(workload, configs=tuple(
        dataclasses.replace(c, requests=shrink) for c in workload.configs))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_ledger_leaves_digests_unchanged(name):
    workload = small(wl.WORKLOADS[name])
    plain = wl.run_iteration(workload, 7)
    book = ledger.Ledger()
    with book.installed():
        traced = wl.run_iteration(workload, 7)
    assert [o.digest for o in traced] == [o.digest for o in plain]
    assert book.calls, "the ledger recorded no spans"


def test_ledger_restores_every_wrapped_attribute():
    owners = ([cls for cls, _ in ledger.ENTRY_POINTS]
              + [module for module, _ in ledger.ENTRY_FUNCTIONS]
              + [ledger.Engine, ledger.HeapEngine, ledger.WheelEngine,
                 ledger.Program])
    before = [dict(vars(owner)) for owner in owners]
    with ledger.Ledger().installed():
        pass
    assert [dict(vars(owner)) for owner in owners] == before


def test_tampered_summary_counts_as_failed(monkeypatch):
    summarize = wl.cluster_run.summarize_run

    def tampered(service):
        summary = summarize(service)
        summary["completed"] += 1
        return summary

    monkeypatch.setattr(wl.cluster_run, "summarize_run", tampered)
    workload = wl.WORKLOADS["cluster_model"]
    bench = run.Bench(workload, wl.DEFAULT_SEED)
    bench.iterate()
    assert (bench.attempted, bench.failed) == (len(workload.configs),
                                               len(workload.configs))


def test_names_match_the_pattern():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    workload = small(wl.WORKLOADS[name])
    bench = run.Bench(workload, 11)
    metrics = run.per_layer(*bench.traced(0))
    assert bench.failed == 0
    assert {m: u for m, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    # request spans are on only where the workload asks for them
    assert (metrics["obs.spans.calls"][0] > 0) == workload.request_spans


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, wl.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_recorded_digests_reproduce(name, seed):
    workload = wl.WORKLOADS[name]
    expected = wl.recorded_digests(name, seed)
    assert wl.failures(wl.run_iteration(workload, seed), expected) == 0


def test_refuses_mode_switches(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_PREDECODE", "1")
    assert run.main(["--workload", "cluster_model", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster_model",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
