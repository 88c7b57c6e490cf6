"""The import boundary between the simulator's two fidelity levels.

A behavioral-model cluster run must not load the ISA machine, the ISA
backend, the PDES runtime, the coherence layers beyond the directory,
or the baseline-kernel models: the packages that re-export them
(``repro``, ``repro.cluster``, ``repro.backends``, ``repro.coherence``,
``repro.kernel``) resolve those names on first attribute access. Each
run below starts a fresh interpreter, so modules other tests loaded
cannot hide an eager import.
"""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules (and the packages whose every module) a model-backend
#: cluster run must leave unloaded.
HEAVY = (
    "repro.machine", "repro.hw", "repro.isa", "repro.mem",
    "repro.backends.machine", "repro.cluster.pdes",
    "repro.coherence.tdt_shard", "repro.coherence.remote",
    "repro.kernel.interrupts", "repro.kernel.io", "repro.kernel.syscalls",
    "repro.kernel.threads",
)

#: The packages whose heavy re-exports are lazy.
PACKAGES = ("repro", "repro.cluster", "repro.backends", "repro.coherence",
            "repro.kernel")

RUN = """
import json, sys
import repro.cluster.run as cluster_run
import repro.obs.spans as spans

config = cluster_run.ClusterConfig({config})
with spans.tracing():
    result = cluster_run.run_cluster(config, seed=7)
print(json.dumps({{
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
    "summary": result.summary,
}}))
"""


def fresh_run(config: str) -> dict:
    """One cluster run in a new interpreter: the ``repro`` modules it
    loaded and its summary."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", RUN.format(config=config)],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout)


def heavy(modules) -> list:
    return [m for m in modules
            if any(m == h or m.startswith(h + ".") for h in HEAVY)]


def test_model_run_loads_no_isa_or_pdes_module():
    run = fresh_run(
        "nodes=4, fanout=2, policy='jsq', "
        "design=cluster_run.DESIGNS['sw-threads'], "
        "link=cluster_run.LinkSpec(drop_prob=0.05), hedge_after=40_000, "
        "requests=20")
    assert run["summary"]["conserved"]
    assert run["summary"]["completed"] > 0
    assert "repro.cluster.run" in run["modules"]
    assert heavy(run["modules"]) == []


def test_isa_run_loads_the_machine_on_demand():
    run = fresh_run("nodes=2, backend='isa', requests=10")
    assert run["summary"]["conserved"]
    assert run["summary"]["completed"] > 0
    assert "repro.machine" in run["modules"]
    assert "repro.backends.machine" in run["modules"]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_api(name):
    package = importlib.import_module(name)
    star = {}
    exec(f"from {name} import *", star)
    for export in package.__all__:
        value = getattr(package, export)
        # resolved once, then a plain dict hit
        assert vars(package)[export] is value
        assert star[export] is value
        home = getattr(value, "__module__", None)
        if home is not None:
            assert getattr(importlib.import_module(home), export) is value
        else:  # a constant: every submodule that binds it agrees
            holders = [vars(module) for key, module in sys.modules.items()
                       if key.startswith(name + ".")
                       and export in vars(module)]
            assert holders
            assert all(h[export] is value for h in holders)
    message = f"module {name!r} has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        getattr(package, "no_such_name")
