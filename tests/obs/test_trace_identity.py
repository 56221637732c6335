"""Tracing must be a pure observer: RunMetrics are bit-identical.

``Network._transmit`` is the one send loop for traced and untraced messages
alike: tracing (always at sample=1.0, per-message at 1/k) only attaches the
per-hop tuple ``(dst, sent_at, nic_wait, tx, prop)`` as the copy's key.  The
arrival expression, the RNG draws and the scheduler placement are the same
either way, so turning tracing on — at any sample rate, under a jittered
latency model or a delay adversary — may never perturb what the simulation
computes.
"""

from __future__ import annotations

from repro.bench.metrics import measure_run
from repro.committees.config import ClanConfig
from repro.consensus.deployment import Deployment
from repro.net.adversary import PartialSynchronyAdversary
from repro.net.latency import UniformLatencyModel
from repro.obs import Tracer
from repro.smr.mempool import SyntheticWorkload
from repro.smr.runtime import SmrRuntime


def _deployment_metrics(tracer, **network) -> dict:
    cfg = ClanConfig.single_clan(12, 6, seed=3)
    workload = SyntheticWorkload(txns_per_proposal=8)
    dep = Deployment(cfg, make_block=workload.make_block, seed=7, tracer=tracer, **network)
    dep.start()
    dep.run(until=4.0)
    return measure_run(dep, workload, warmup=0.5, end=4.0).__dict__


#: Network inputs, each a factory (the models are stateful RNG consumers):
#: the default, a jittered uniform model (its delay inlined as
#: ``clock + base + draw * jitter``) and a pre-GST delay adversary (its
#: extra added after the latency, ``(clock + delay) + extra``).
NETWORKS = {
    "default": dict,
    "uniform-jitter": lambda: {"latency": UniformLatencyModel(0.05, jitter=0.02, seed=4)},
    "partial-synchrony": lambda: {
        "adversary": PartialSynchronyAdversary(gst=2.0, max_extra=0.3, delta=0.5, seed=5)
    },
}


def test_sampled_tracing_preserves_run_metrics():
    for name, network in NETWORKS.items():
        base = _deployment_metrics(None, **network())
        for sample in (1.0, 1 / 16, 0.0):
            traced = _deployment_metrics(Tracer(sample=sample), **network())
            assert traced == base, f"tracing at sample={sample} perturbed the {name} run"


def _smr_digests(tracer) -> tuple:
    runtime = SmrRuntime(ClanConfig.single_clan(10, 5, seed=1), tracer=tracer)
    clients = [runtime.new_client(f"c{i}") for i in range(3)]
    runtime.start()
    for i in range(30):
        runtime.submit(clients[i % 3], ("set", f"k{i}", i))
    runtime.run(until=6.0)
    accepted = tuple(c.accepted_count() for c in clients)
    digests = tuple(
        sorted(ex.state_digest() for ex in runtime.executors.values())
    )
    return accepted, digests


def test_sampled_tracing_preserves_smr_outcome():
    base = _smr_digests(None)
    for sample in (1.0, 1 / 16):
        assert _smr_digests(Tracer(sample=sample)) == base
