"""``LoadBalancer.pick`` against the O(nodes) reference in ``lb_reference``.

Random programs of picks on nodes listed in shuffled id order, with
node loads changed and simulated time advanced between picks, and
``exclude`` empty, partial or covering every node. After every pick
the balancer must return the reference's node and leave its rng in the
reference's state -- for every policy, with exact loads and with stale
probe snapshots. The programs route over PDES proxy nodes, which have
no server: the test loads them by offering attempts and unloads them by
finishing those attempts. Exact jsq reads each node's count through a
field rather than ``in_flight()``, so ``ClusterNode`` and the proxy are
both checked to expose the same value there.
"""

from itertools import count
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.balancer import _IN_FLIGHT, POLICIES, LoadBalancer
from repro.cluster.node import ClusterNode
from repro.cluster.pdes import _ProxyNode
from repro.distributed.rpc import HW_THREADS, SW_THREADS
from repro.sim.engine import Engine
from tests import lb_reference


@st.composite
def _programs(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=99),
                        min_size=1, max_size=8, unique=True))
    count = len(ids)
    index = st.integers(min_value=0, max_value=count - 1)
    exclude = st.one_of(st.just("all"), st.lists(index, max_size=count))
    step = st.tuples(
        st.integers(min_value=0, max_value=30),         # cycles to advance
        st.lists(st.tuples(index, st.integers(min_value=-2, max_value=3)),
                 max_size=4),                          # load changes
        exclude)
    return (ids, draw(st.sampled_from(POLICIES)),
            draw(st.one_of(st.just(0), st.integers(min_value=1,
                                                   max_value=40))),
            draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
            draw(st.lists(step, min_size=1, max_size=30)))


@given(program=_programs())
@settings(max_examples=300, deadline=None)
def test_pick_matches_reference(program):
    ids, policy, probe_delay, seed, steps = program
    engine = Engine()
    nodes = [_ProxyNode(engine, node_id, HW_THREADS) for node_id in ids]
    fast = LoadBalancer(nodes, policy, rng=Random(seed),
                        probe_delay_cycles=probe_delay, engine=engine)
    slow = lb_reference.LoadBalancer(nodes, policy, rng=Random(seed),
                                     probe_delay_cycles=probe_delay,
                                     engine=engine)
    attempts = count()
    admitted = [[] for _ in nodes]
    for advance, changes, excluded in steps:
        engine.run(until=engine.now + advance)
        for i, delta in changes:
            for _ in range(delta):
                attempt = next(attempts)
                assert nodes[i].offer(attempt, [], 0)
                admitted[i].append(attempt)
            for _ in range(min(-delta, nodes[i].in_flight())):
                nodes[i].finish(admitted[i].pop())
        exclude = (tuple(nodes) if excluded == "all"
                   else tuple(nodes[i] for i in excluded))
        assert fast.pick(exclude) is slow.pick(exclude)
        assert fast.rng.getstate() == slow.rng.getstate()
        assert (fast.picks, fast.probes) == (slow.picks, slow.probes)


def test_jsq_load_field_is_in_flight():
    engine = Engine()
    node = ClusterNode(engine, 0, SW_THREADS)
    proxy = _ProxyNode(engine, 1, SW_THREADS)
    for request_id in range(3):
        node.offer(request_id, [50_000.0], 10)
        proxy.offer(request_id, [50_000.0], 10)
        assert _IN_FLIGHT(node) == node.in_flight() == request_id + 1
        assert _IN_FLIGHT(proxy) == proxy.in_flight() == request_id + 1
    proxy.finish(0)
    engine.run_until_idle()
    assert _IN_FLIGHT(node) == node.in_flight() == 0
    assert _IN_FLIGHT(proxy) == proxy.in_flight() == 2
