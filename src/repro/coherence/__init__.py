"""Coherence: pricing the paper's primitives at datacenter scale.

Three layers, built bottom-up (see docs/coherence.md):

- :mod:`repro.coherence.directory` -- an MSI-style per-line directory
  behind the watch bus, so ``monitor``/``mwait`` and watched-line
  writes pay real invalidation/forward cycles (off by default;
  byte-identical to the seed's flat bus when off);
- :mod:`repro.coherence.remote` -- cross-machine mwait: RDMA-style
  remote stores into per-node mailbox lines, carried by the cluster
  fabric and delivered as real stores through the destination's watch
  bus;
- :mod:`repro.coherence.tdt_shard` -- per-node TDT partitions with
  cross-shard resolution latency and invtid fan-out.

Experiment E17 caps the subsystem. The directory loads with the
package (cluster configs validate their coherence model name against
it); the remote-store and sharded-TDT layers load on first use.
"""

from repro._lazy import lazy_exports
from repro.coherence.directory import MODEL_NAMES, DirectoryModel

__getattr__ = lazy_exports(
    globals(),
    remote=("MailboxWindow", "RemoteStoreFabric"),
    tdt_shard=("ShardedTdt",))

__all__ = [
    "DirectoryModel",
    "MODEL_NAMES",
    "MailboxWindow",
    "RemoteStoreFabric",
    "ShardedTdt",
]
