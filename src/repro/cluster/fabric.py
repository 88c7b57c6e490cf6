"""The datacenter network fabric.

A :class:`Fabric` carries messages between named endpoints ("client",
"node0", ...) on the shared engine. Every directed link shares one
:class:`LinkSpec`: a fixed one-way base latency, an exponential jitter
component (the switching/queueing wobble every real fabric has), and a
drop probability.

The fabric never retries: loss recovery is the caller's problem (the
cluster front-end hedges, see :mod:`repro.cluster.service`), which is
how μs-scale RPC stacks actually behave -- a retransmit timeout is
milliseconds, three orders of magnitude above the service time.

All randomness comes from a caller-supplied ``stream_factory`` mapping
each *directed link* ``"src->dst"`` to its own ``random.Random``
stream (named :class:`~repro.sim.rng.RngStreams` streams in a cluster
run, so the run is reproducible). Per-link streams make the draw
sequence of a link depend only on the traffic crossing *that* link --
the property the parallel-in-time sharded runtime
(:mod:`repro.cluster.pdes`) needs so its engine-less generation pass
can replay the request links' draws ahead of the responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.engine import Engine

from random import Random


@dataclass(frozen=True)
class LinkSpec:
    """One directed link's latency distribution and loss rate.

    ``base_cycles`` is the deterministic propagation + serialization
    floor; ``jitter_mean_cycles`` the mean of an additive exponential
    jitter term (0 disables it); ``drop_prob`` the i.i.d. probability
    that a message vanishes in transit.
    """

    base_cycles: int = 2_000          # ~0.7 us one-way at 3 GHz
    jitter_mean_cycles: float = 500.0
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        base = self.base_cycles
        if isinstance(base, bool) or not isinstance(base, int) or base < 1:
            raise ConfigError(
                f"base_cycles must be an integer >= 1, got {base!r}")
        if self.jitter_mean_cycles < 0:
            raise ConfigError(
                f"jitter mean must be >= 0, got {self.jitter_mean_cycles}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError(
                f"drop probability must be in [0, 1), got {self.drop_prob}")

    def sample_delay(self, rng: Random) -> int:
        """Draw one one-way delay in cycles."""
        delay = float(self.base_cycles)
        if self.jitter_mean_cycles > 0:
            delay += rng.expovariate(1.0 / self.jitter_mean_cycles)
        return max(1, int(round(delay)))


class Fabric:
    """Message transport between cluster endpoints.

    :meth:`send` either drops the message immediately (returning False,
    so the sender can account the loss synchronously) or schedules the
    delivery callback after a sampled one-way delay. ``in_flight``
    counts messages on the wire, which the conservation audit needs
    when a run stops at a horizon with deliveries still pending.
    """

    def __init__(self, engine: Engine,
                 stream_factory: Callable[[str], Random],
                 link: LinkSpec = LinkSpec()):
        self.engine = engine
        self.stream_factory = stream_factory
        self.link = link
        # per directed link, created on the link's first use
        self._streams: Dict[Tuple[str, str], Random] = {}
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.in_flight = 0
        self.latency_cycles = 0   # summed sampled delays, for mean latency
        # out-of-machine component: register with the ambient obs
        # session (if any) so snapshots carry fabric counters
        self._obs_registered = False
        import repro.obs as obs
        session = obs.active()
        if session is not None:
            session.register_source("cluster.fabric", self._fill_metrics)
            self._obs_registered = True

    # ------------------------------------------------------------------
    def rng_for(self, src: str, dst: str) -> Random:
        """The stream the ``src -> dst`` link draws from (created on
        first use)."""
        rng = self._streams.get((src, dst))
        if rng is None:
            rng = self._streams[(src, dst)] = \
                self.stream_factory(f"{src}->{dst}")
        return rng

    # ------------------------------------------------------------------
    def send(self, src: str, dst: str,
             fn: Callable[..., Any], *args: Any) -> bool:
        """Carry one message; returns False if the fabric dropped it."""
        return self.send_traced(src, dst, fn, *args) is not None

    def send_traced(self, src: str, dst: str,
                    fn: Callable[..., Any], *args: Any) -> Optional[int]:
        """Like :meth:`send`, but returns the absolute delivery time
        (``None`` when dropped), for callers that report when a
        message lands (the remote stores of the coherence layer)."""
        self.sent += 1
        spec = self.link
        rng = self._streams.get((src, dst)) or self.rng_for(src, dst)
        if spec.drop_prob > 0.0 and rng.random() < spec.drop_prob:
            self.dropped += 1
            return None
        delay = spec.sample_delay(rng)
        self.latency_cycles += delay
        self.in_flight += 1
        engine = self.engine
        due = engine._now + delay
        engine.at(due, self._deliver, fn, args)
        return due

    def _deliver(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.in_flight -= 1
        self.delivered += 1
        fn(*args)

    # ------------------------------------------------------------------
    def mean_delay_cycles(self) -> float:
        """Mean sampled one-way delay over every carried message."""
        carried = self.sent - self.dropped
        return self.latency_cycles / carried if carried else 0.0

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.sent", self.sent)
        registry.inc(f"{prefix}.delivered", self.delivered)
        registry.inc(f"{prefix}.dropped", self.dropped)
        registry.inc(f"{prefix}.latency_cycles", self.latency_cycles)
        registry.set(f"{prefix}.in_flight", self.in_flight)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Fabric sent={self.sent} delivered={self.delivered}"
                f" dropped={self.dropped} in_flight={self.in_flight}>")
