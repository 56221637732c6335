"""The network/scheduler fast paths must be pure optimizations.

The hot delivery pipeline has four layered shortcuts — fused delivery
(``_deliver_fast``), per-class dispatch tables, inline calendar-bucket
insertion, and fan-out cursors (one scheduler entry per multicast) — each
gated by eligibility flags computed in ``Network.__init__``.  These tests
force every shortcut OFF and assert the resulting :class:`RunMetrics` are
**bit-identical** to the default run: the fast paths may change how events
are scheduled, never what the simulation computes.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

import repro.net.network as netmod
from repro.bench.runner import ExperimentConfig, _simulate
from repro.net.adversary import TargetedDelayAdversary
from repro.net.faults import LossyLink
from repro.sim.scheduler import Simulator

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
            self._plain = False
            self._inline = False
            self._fan_out = False

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netmod.Network, "__init__", no_fastpath_init)
            slow = asdict(_simulate(config))
        assert fast == slow, f"fast-path divergence for {config}"


def test_fan_disabled_under_sanitizers(monkeypatch):
    """REPRO_SANITIZE installs the tie auditor, which must observe every
    insertion — the fan (like inline insertion) switches off."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    net = netmod.Network(Simulator(), 4)
    assert net.freeze_guard is not None
    assert not net._fan_out


def test_fan_disabled_with_adversary_or_faults():
    adversary = TargetedDelayAdversary({1}, extra=0.01)
    assert not netmod.Network(Simulator(), 4, adversary=adversary)._fan_out
    assert not netmod.Network(Simulator(), 4, faults=LossyLink(0.1, seed=1))._fan_out


def test_fan_active_on_plain_runs():
    sim = Simulator()
    net = netmod.Network(sim, 4)
    if sim.tie_audit is not None:  # suite running under REPRO_SANITIZE=1
        assert not net._fan_out
        return
    assert net._fan_out
