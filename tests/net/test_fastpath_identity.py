"""The network/scheduler fast paths must be pure optimizations.

Three shortcuts sit on the hot delivery pipeline: ``Simulator.post_many``
places a transmit's copies on fan-out cursors (one scheduler entry per
multicast), plain deliveries skip ``Network._deliver`` (``_handle`` runs
straight from the calendar), and ``_handle`` jumps through per-class
dispatch tables.  These tests force all three OFF (one ``post`` per copy,
every delivery through ``_deliver``, catch-all handlers only) and assert
the resulting :class:`RunMetrics` are **bit-identical** to the default
run: the fast paths may change how events are scheduled, never what the
simulation computes.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

import repro.net.network as netmod
from repro.bench.runner import ExperimentConfig, _simulate
from repro.net.adversary import TargetedDelayAdversary
from repro.net.cpu import CpuModel
from repro.net.faults import LossyLink
from repro.net.message import Message
from repro.obs import Tracer
from repro.sim.scheduler import Simulator

from .test_fanout_exactness import reference_post_many

#: Jittered geo latency (RNG draw per delivery), a lossy/duplicating point
#: so the fault-copies branch is exercised on both paths, a sparse-edge
#: tribe (wide multicasts through the fan), and a jitter-free point whose
#: arrivals tie everywhere (the fan/bucket boundary end to end).
CONFIGS = [
    ExperimentConfig(
        protocol="sailfish", n=7, txns_per_proposal=50, duration=1.5,
        warmup=0.5, seed=11,
    ),
    ExperimentConfig(
        protocol="single-clan", n=8, clan_size=4, txns_per_proposal=50,
        duration=1.5, warmup=0.5, seed=12, drop_rate=0.05,
        duplicate_rate=0.02, reliable=True,
    ),
    ExperimentConfig(
        protocol="sailfish", n=20, txns_per_proposal=20, duration=1.2,
        warmup=0.4, seed=13, edge_mode="sparse",
    ),
    ExperimentConfig(
        protocol="single-clan", n=8, clan_size=4, txns_per_proposal=50,
        duration=1.5, warmup=0.5, seed=14, jitter=0.0,
    ),
]


def test_fast_vs_slow_metrics_identical():
    """Explicit A/B: default (fast) run vs all-shortcuts-off run."""
    for config in CONFIGS:
        fast = asdict(_simulate(config))
        real_init = netmod.Network.__init__

        def no_fastpath_init(self, *args, _real=real_init, **kwargs):
            _real(self, *args, **kwargs)
            if self.cpu is None:
                # A zero-cost CPU model routes every delivery via _deliver.
                self.cpu = CpuModel()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netmod.Network, "__init__", no_fastpath_init)
            mp.setattr(Simulator, "post_many", reference_post_many)
            # No dispatch tables: every node's catch-all handler runs.
            mp.setattr(netmod.Network, "set_dispatch", lambda self, node_id, table: None)
            slow = asdict(_simulate(config))
        assert fast == slow, f"fast-path divergence for {config}"


class _Blob(Message):
    __slots__ = ()

    def wire_size(self) -> int:
        return 100


@pytest.mark.parametrize("setup", ["sanitize", "adversary", "lossy", "traced"])
def test_multicast_rides_a_cursor(setup, monkeypatch):
    """Placement lives in the scheduler alone: no network configuration
    keeps a multicast's remote copies off the fan heap."""
    kwargs = {}
    if setup == "sanitize":
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    elif setup == "adversary":
        kwargs["adversary"] = TargetedDelayAdversary({1}, extra=0.01)
    elif setup == "lossy":
        kwargs["faults"] = LossyLink(0.1, seed=1)
    else:
        kwargs["tracer"] = Tracer()
    sim = Simulator()
    net = netmod.Network(sim, 8, **kwargs)
    if setup == "sanitize":
        assert sim.tie_audit is not None and net.freeze_guard is not None
    delivered = []
    for node in range(8):
        net.register(node, lambda src, msg, node=node: delivered.append(node))
    net.multicast(0, range(1, 8), _Blob())
    assert sim._fan_seq == 1 and len(sim._fan) == 1
    sim.run()
    assert len(delivered) == 7 - net.stats.messages_dropped
    assert delivered
