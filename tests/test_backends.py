"""The server-backend protocol: registry, ISA backend, cluster knobs.

Covers the pluggable-backend refactor (model vs ISA behind one
protocol), the registry error paths, balancer probe staleness, and the
conservation-audit metrics round-trip.
"""

import pytest

from repro.arch.costs import CostModel
from repro.backends import (
    MachineBackend,
    ServerBackend,
    backend_names,
    create_backend,
)
from repro.cluster import (
    ClusterConfig,
    DESIGNS,
    LoadBalancer,
    get_design,
    run_cluster,
    scaled,
)
from repro.distributed.rpc import (
    EVENT_LOOP,
    HW_THREADS,
    RpcServerModel,
    SW_THREADS,
)
from repro.errors import ConfigError
from repro.sim.engine import Engine


def _tiny_config(**overrides):
    base = ClusterConfig(nodes=2, design=HW_THREADS, policy="round-robin",
                         fanout=1, load=0.06, mean_service_cycles=4_000,
                         segments=2, rtt_cycles=20_000, requests=12,
                         threads_per_peer=4)
    return scaled(base, **overrides) if overrides else base


# ----------------------------------------------------------------------
# the registry and its error paths
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_known_backends(self):
        assert backend_names() == ("isa", "model")

    def test_model_backend_is_the_rpc_server(self):
        server = create_backend("model", Engine(), HW_THREADS)
        assert isinstance(server, RpcServerModel)
        assert isinstance(server, ServerBackend)

    @pytest.mark.parametrize("design", [HW_THREADS, EVENT_LOOP],
                             ids=["ps", "fifo"])
    def test_model_backend_builds_one_core_past_the_check(self, design):
        # create_backend takes no cores: both disciplines get the
        # default single core, which the boundary check accepts
        assert create_backend("model", Engine(), design).cores == 1

    def test_isa_backend_is_the_machine(self):
        server = create_backend("isa", Engine(), HW_THREADS)
        assert isinstance(server, MachineBackend)
        assert isinstance(server, ServerBackend)

    def test_unknown_backend_is_actionable(self):
        with pytest.raises(ConfigError, match="unknown server backend"):
            create_backend("fpga", Engine(), HW_THREADS)
        with pytest.raises(ConfigError, match="model"):
            create_backend("fpga", Engine(), HW_THREADS)

    def test_unknown_backend_rejected_by_config(self):
        with pytest.raises(ConfigError, match="unknown server backend"):
            _tiny_config(backend="fpga")

    def test_unknown_design_is_actionable(self):
        with pytest.raises(ConfigError, match="unknown server design"):
            get_design("green-threads")
        with pytest.raises(ConfigError, match="hw-threads"):
            get_design("green-threads")

    @pytest.mark.parametrize("backend", ["model", "isa"])
    @pytest.mark.parametrize("resident", [-1, 2.5, True, "3"],
                             ids=["negative", "float", "bool", "str"])
    def test_resident_threads_checked_at_the_boundary(self, backend,
                                                      resident):
        # a float crowd used to run (and tax a sw-threads segment by a
        # fractional crowd), True ran as 1 and "3" raised a TypeError
        with pytest.raises(ConfigError, match="resident_threads"):
            create_backend(backend, Engine(), SW_THREADS,
                           resident_threads=resident)


# ----------------------------------------------------------------------
# the ISA backend honors the request-in/latency-out contract
# ----------------------------------------------------------------------
class TestMachineBackend:
    @pytest.mark.parametrize("design", [HW_THREADS, SW_THREADS,
                                        EVENT_LOOP])
    def test_segmented_request_completes(self, design):
        engine = Engine()
        server = create_backend("isa", engine, design,
                                costs=CostModel(), resident_threads=4)
        done = []
        server.submit(1, [500.0, 700.0], rtt_cycles=3_000,
                      on_done=lambda: done.append(engine.now))
        engine.run(until=200_000)
        assert server.completed == 1
        assert done
        latency = server.recorder.samples[0]
        # two segments plus one remote call, executed for real
        assert latency >= 500 + 700 + 3_000
        assert server.cpu_busy_cycles() >= 500 + 700

    def test_latency_tracks_the_behavioral_model(self):
        results = {}
        for backend in ("model", "isa"):
            engine = Engine()
            server = create_backend(backend, engine, HW_THREADS)
            server.submit(1, [1_000.0, 2_000.0], rtt_cycles=5_000)
            engine.run(until=200_000)
            results[backend] = server.recorder.samples[0]
        # the model taxes every segment analytically; the machine pays
        # one real wakeup -- they straddle each other within a few
        # percent, far inside the E15 agreement band
        assert 0.9 * results["model"] <= results["isa"] \
            <= 2.0 * results["model"]

    def test_overflow_queues_fifo(self):
        engine = Engine()
        server = create_backend("isa", engine, HW_THREADS)
        finished = []
        for req in range(40):   # more than the 32 hardware slots
            server.submit(req, [200.0], rtt_cycles=1_000,
                          on_done=lambda req=req: finished.append(req))
        engine.run(until=2_000_000)
        assert server.completed == 40
        assert len(finished) == 40

    #: (design, coherence) -> (completion time, retired instructions)
    TWELVE_SEGMENTS = {
        ("hw-threads", None): (991, 82),
        ("hw-threads", "directory"): (1_807, 82),
        ("sw-threads", None): (34_591, 82),
        ("sw-threads", "directory"): (35_407, 82),
    }

    @pytest.mark.parametrize("design,coherence", sorted(
        TWELVE_SEGMENTS, key=str))
    def test_one_register_carries_every_segment_length(self, design,
                                                       coherence):
        """Twelve distinct segment lengths, more than r6-r15 could hold,
        all through r6. At a one-cycle RTT the flat bus's reply lands
        before ``mwait`` (each wait falls through); the directory's
        forward delay makes every wait block. Completion time and
        retired instructions are those of the per-request programs
        with the lengths as immediates."""
        engine = Engine()
        server = create_backend("isa", engine, DESIGNS[design],
                                coherence=coherence)
        done = []
        server.submit(0, [37, 5, 120, 64, 9, 233, 18, 77, 2, 151, 43, 96],
                      rtt_cycles=1, on_done=lambda: done.append(engine.now))
        engine.run()
        monitor = server.machine.thread(0).monitor
        assert monitor.total_fallthroughs == (11 if coherence is None else 0)
        assert (done[0], server.machine.core(0).instructions_retired) == \
            self.TWELVE_SEGMENTS[design, coherence]

    def test_a_warm_cluster_run_builds_no_code(self, monkeypatch):
        """Programs are assembled and decoded once per (shape, mailbox
        bases) and process; a request's lengths travel in a register and
        a subscription stays armed. So a second run of a ``cluster_isa``
        configuration builds no instruction and no program, decodes
        nothing, and builds a watch only for each ``monitor``."""
        from repro.experiments.e14_cluster import _base_config
        from repro.isa.instructions import Instruction
        from repro.isa.program import Program
        from repro.mem.watch import Watch

        config = _base_config(nodes=4, fanout=2, policy="random",
                              backend="isa", design=HW_THREADS,
                              coherence="directory", requests=40)
        run_cluster(config, seed=1)
        built = {"Instruction": 0, "Program": 0, "decoded": 0, "Watch": 0}

        def counting(name, method):
            def wrapper(self, *args, **kwargs):
                built[name] += 1
                return method(self, *args, **kwargs)
            return wrapper

        decoded = Program.decoded

        def counting_decoded(program, dispatch):
            built["decoded"] += program._decoded_cache is None
            return decoded(program, dispatch)

        monkeypatch.setattr(Instruction, "__post_init__", counting(
            "Instruction", Instruction.__post_init__))
        monkeypatch.setattr(Program, "__init__", counting(
            "Program", Program.__init__))
        monkeypatch.setattr(Program, "decoded", counting_decoded)
        monkeypatch.setattr(Watch, "__init__", counting(
            "Watch", Watch.__init__))
        result = run_cluster(config, seed=1)
        assert result.summary["completed"] == 40
        arms = sum(thread.monitor.total_arms
                   for node in result.service.nodes
                   for thread in node.server.machine.core(0).threads)
        assert arms > 0
        assert built == {"Instruction": 0, "Program": 0, "decoded": 0,
                         "Watch": arms}

    def test_event_loop_runs_one_segment_at_a_time(self):
        engine = Engine()
        server = create_backend("isa", engine, EVENT_LOOP)
        order = []
        server.submit(1, [10_000.0], rtt_cycles=1_000,
                      on_done=lambda: order.append("long"))
        server.submit(2, [100.0], rtt_cycles=1_000,
                      on_done=lambda: order.append("short"))
        engine.run(until=500_000)
        # head-of-line: the long request was dispatched first and runs
        # to completion before the short one gets the worker
        assert order == ["long", "short"]


# ----------------------------------------------------------------------
# cluster integration: labels, streams, summaries
# ----------------------------------------------------------------------
class TestClusterBackends:
    def test_default_label_is_unchanged(self):
        # byte-identity anchor: the default backend must reproduce the
        # exact historical stream labels
        config = _tiny_config()
        assert config.label() == \
            "cluster.n2.hw-threads.round-robin.f1.l0.06"
        assert "isa" not in config.label()

    def test_isa_label_is_distinct_but_workload_is_shared(self):
        model = _tiny_config()
        isa = _tiny_config(backend="isa")
        assert model.label() != isa.label()
        assert model.workload_label() == isa.workload_label()

    def test_isa_cluster_agrees_with_model(self):
        summaries = {
            backend: run_cluster(_tiny_config(backend=backend)).summary
            for backend in ("model", "isa")}
        model, isa = summaries["model"], summaries["isa"]
        assert model["completed"] == isa["completed"] > 0
        assert model["conserved"] and isa["conserved"]
        assert 0.5 * model["p99"] <= isa["p99"] <= 2.0 * model["p99"]


# ----------------------------------------------------------------------
# balancer probe staleness (satellite: stale in-flight reads)
# ----------------------------------------------------------------------
class TestProbeStaleness:
    def test_zero_delay_is_exact_back_compat(self):
        exact = run_cluster(_tiny_config(policy="jsq")).summary
        zero = run_cluster(_tiny_config(policy="jsq",
                                        probe_delay_cycles=0)).summary
        assert exact == zero

    def test_stale_probes_are_cached(self):
        result = run_cluster(_tiny_config(policy="jsq", requests=40,
                                          probe_delay_cycles=50_000))
        balancer = result.service.balancer
        assert balancer.probes >= 1
        # snapshots refresh at most once per probe window
        assert balancer.probes < balancer.picks
        assert result.summary["conserved"]
        assert result.summary["completed"] == 40

    def test_staleness_vs_p99(self):
        """Stale jsq probes cost tail latency: at high load the exact
        oracle beats a badly stale snapshot. Mild staleness may tie, so
        only the endpoints are compared."""
        p99 = {}
        for delay in (0, 20_000, 200_000):
            summary = run_cluster(ClusterConfig(
                nodes=8, design=HW_THREADS, policy="jsq", fanout=2,
                load=0.8, mean_service_cycles=5_000, segments=4,
                rtt_cycles=20_000, requests=300,
                probe_delay_cycles=delay), seed=7).summary
            assert summary["conserved"], f"probe_delay={delay}"
            assert summary["completed"] == 300
            p99[delay] = summary["p99"]
        assert p99[200_000] > p99[0]

    def test_stale_balancer_needs_an_engine(self):
        engine = Engine()
        from repro.cluster import ClusterNode
        nodes = [ClusterNode(engine, 0, HW_THREADS)]
        with pytest.raises(ConfigError, match="engine"):
            LoadBalancer(nodes, "jsq", probe_delay_cycles=100)
        with pytest.raises(ConfigError, match=">= 0"):
            LoadBalancer(nodes, "jsq", probe_delay_cycles=-1,
                         engine=engine)

    def test_negative_delay_rejected_by_config(self):
        with pytest.raises(ConfigError, match="probe delay"):
            _tiny_config(probe_delay_cycles=-5)


# ----------------------------------------------------------------------
# conservation audit in the metrics snapshot (satellite: dashboards)
# ----------------------------------------------------------------------
class TestConservationMetrics:
    def test_snapshot_round_trips_the_audit(self):
        import repro.obs as obs

        with obs.session("conservation-test") as sess:
            result = run_cluster(_tiny_config())
        audit = result.service.conservation()
        gauges = sess.snapshot()["metrics"]["gauges"]
        base = "cluster.service0.conservation"
        for key in ("ok", "nodes_ok", "attempts_ok", "completions_ok",
                    "requests_ok"):
            assert gauges[f"{base}.{key}"] == int(audit[key])
        for key in ("attempts", "issued", "completed", "dropped",
                    "in_flight", "node_in_flight"):
            assert gauges[f"{base}.{key}"] == audit[key]
        for entry in audit["per_node"]:
            node_base = f"{base}.{entry['node']}"
            assert gauges[f"{node_base}.admitted"] == entry["admitted"]
            assert gauges[f"{node_base}.completed"] == entry["completed"]
            assert gauges[f"{node_base}.in_flight"] == entry["in_flight"]
            assert gauges[f"{node_base}.ok"] == int(entry["ok"])
        assert audit["ok"]
