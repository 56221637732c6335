"""Runtime sanitizers: violations are caught when on, nothing is paid when off.

The headline tests run the bench smoke configuration and one chaos smoke
scenario twice — sanitized and not — and require bit-identical results:
the sanitizers must observe, never perturb.
"""

import json
import os
from dataclasses import dataclass

import pytest

from repro.analysis import sanitizers
from repro.errors import SanitizerError
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.sim import Simulator
from repro.sim.rng import make_rng

SMOKE_BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir,
    "benchmarks", "baselines", "smoke.json",
)


@dataclass(slots=True)
class Note(Message):
    """Minimal field-carrying message (repr covers the fields, as for all
    protocol messages, so the freeze guard can digest it)."""

    round: int

    def wire_size(self):
        return 64


def make_net(n=3):
    sim = Simulator()
    net = Network(sim, n, latency=UniformLatencyModel(0.01))
    for i in range(n):
        net.register(i, lambda src, msg: None)
    return sim, net


# -- off by default: zero instrumentation -------------------------------------


def test_everything_off_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim, net = make_net()
    assert sim.tie_audit is None
    assert net.freeze_guard is None
    make_rng(7, "some-stream")
    assert sanitizers.stream_count() == 0


# -- freeze-after-send --------------------------------------------------------


def test_freeze_guard_clean_run(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim, net = make_net()
    net.multicast(0, [1, 2], Note(round=1))
    sim.run()
    assert net.freeze_guard.checks > 0
    assert net.freeze_guard.violations_seen == 0


def test_freeze_guard_catches_mutation_after_send(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim, net = make_net()
    msg = Note(round=1)
    net.send(0, 1, msg)
    msg.round = 2  # the mutation DET/MSG rules exist to prevent
    with pytest.raises(SanitizerError, match="freeze-after-send"):
        sim.run()
    assert net.freeze_guard.violations_seen == 1


def test_freeze_guard_allows_unchanged_resend(monkeypatch):
    # Retransmission of the same object (reliable transport) is legitimate.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim, net = make_net()
    msg = Note(round=1)
    net.send(0, 1, msg)
    net.send(0, 2, msg)
    sim.run()
    assert net.freeze_guard.violations_seen == 0


# -- RNG stream collisions ----------------------------------------------------


def test_stream_collision_detected(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    Simulator()  # run boundary: clears the registry
    make_rng(7, "latency")
    with pytest.raises(SanitizerError, match="collision"):
        make_rng(7, "latency")


def test_distinct_labels_do_not_collide(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    Simulator()
    make_rng(7, "latency")
    make_rng(7, "faults", 0, 1)
    make_rng(8, "latency")  # different master seed
    assert sanitizers.stream_count() == 3


def test_shared_streams_may_be_rederived(monkeypatch):
    # The leader-schedule beacon is re-derived by every node on purpose.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    Simulator()
    for _ in range(4):
        make_rng(7, "leader-schedule", 0, shared=True)


def test_shared_exclusive_mix_is_an_error(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    Simulator()
    make_rng(7, "beacon", shared=True)
    with pytest.raises(SanitizerError, match="shared and exclusive"):
        make_rng(7, "beacon")


def test_new_simulator_resets_registry(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    Simulator()
    make_rng(7, "latency")
    Simulator()  # sequential run: same derivations are fine again
    make_rng(7, "latency")


# -- scheduler tie-order audit ------------------------------------------------


def test_tie_audit_records_mixed_ties(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()

    def alpha():
        pass

    def beta():
        pass

    sim.schedule_at(1.0, alpha)
    sim.schedule_at(1.0, beta)
    sim.schedule_at(2.0, alpha)
    audit = sim.tie_audit
    assert audit.tie_events == 1
    assert len(audit.mixed_ties) == 1
    when, names = audit.mixed_ties[0]
    assert when == 1.0
    assert len(names) == 2


def test_tie_audit_order_digest_is_reproducible(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")

    def one_run():
        sim, net = make_net()
        net.multicast(0, [1, 2], Note(round=1))
        net.multicast(1, [0, 2], Note(round=2))
        sim.run()
        return sim.tie_audit.order_digest()

    assert one_run() == one_run()


# -- end-to-end: sanitized runs are bit-identical -----------------------------


def test_bench_smoke_bit_identical_under_sanitize(monkeypatch):
    from repro.bench.profiling import SMOKE_CONFIG
    from repro.bench.runner import run_experiment

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    plain = run_experiment(SMOKE_CONFIG)

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_experiment(SMOKE_CONFIG)
    assert sanitized == plain

    # The smoke's simulated results are pinned, rounded as the file stores
    # them: any drift is a behavioural change of the protocol stack.
    with open(SMOKE_BASELINE) as fh:
        pinned = json.load(fh)
    measured = {
        "throughput_tps": round(plain.throughput_tps, 2),
        "avg_latency_s": round(plain.avg_latency_s, 4),
        "p95_latency_s": round(plain.p95_latency_s, 4),
        "committed_txns": plain.committed_txns,
        "rounds": plain.rounds,
        "sim_events": plain.sim_events,
    }
    assert measured == {key: pinned[key] for key in measured}


def test_chaos_smoke_bit_identical_under_sanitize(monkeypatch):
    from repro.chaos import SMOKE_SCENARIOS, run_scenario

    scenario = SMOKE_SCENARIOS[0]
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = run_scenario(scenario)
    assert plain.ok

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_scenario(scenario)
    assert sanitized.ok
    assert sanitized.checks == plain.checks
    assert sanitized.stats == plain.stats
