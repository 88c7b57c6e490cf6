"""The evaluation harness: experiments E01-E18.

The paper is a HotOS vision paper with one table (the example TDT) and
no measured figures; its evaluation surface is the set of quantitative
claims in Sections 2-4. Each module here turns one claim (or Table 1)
into a runnable experiment that produces an
:class:`~repro.analysis.report.ExperimentResult` with printable tables
and paper-vs-measured claim records. DESIGN.md Section 4 is the index.

Usage::

    from repro.experiments import get_experiment, all_experiments
    result = get_experiment("E03").run(quick=True)
    print(result.render())

Every ``run`` accepts ``quick=True`` (smaller workloads for CI and
the test suite) and a ``seed`` for the RNG streams.
"""

from repro.experiments.registry import (
    Experiment,
    all_experiments,
    get_experiment,
    register,
)

# importing the modules registers them
from repro.experiments import (  # noqa: E402  (registration imports)
    e01_tdt,
    e02_interrupts,
    e03_fast_io,
    e04_syscalls,
    e05_vmexits,
    e06_fp_registers,
    e07_microkernel,
    e08_untrusted_hv,
    e09_distributed,
    e10_state_storage,
    e11_wakeup_latency,
    e12_scheduling,
    e13_cache_warmup,
    e14_cluster,
    e15_backend_agreement,
    e16_tail_anatomy,
    e17_coherence,
    e18_dispatch,
)

__all__ = [
    "Experiment",
    "register",
    "get_experiment",
    "all_experiments",
]
