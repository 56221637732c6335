"""The benchmark's workloads: build one simulated run from a seed and measure it.

Each workload is a fixed configuration of the simulator plus the inputs the
benchmark generates from ``--seed``.  A run is built, started, and driven to a
fixed *simulated* horizon (never to an event cap), then measured and checked.
The program under test only receives the generated configuration and, for the
SMR workload, the client submissions.

See ``perfbench/README.md`` for why each workload exists and which layer each
one stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.metrics import measure_run
from repro.bench.runner import ExperimentConfig
from repro.committees.config import ClanConfig
from repro.consensus.deployment import Deployment
from repro.consensus.params import ProtocolParams
from repro.errors import ConsensusError, ExecutionError
from repro.net.faults import LossyLink
from repro.net.latency import gcp_latency_model
from repro.smr.mempool import SyntheticWorkload
from repro.smr.runtime import SmrRuntime


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Args:
        horizon: simulated seconds every run is driven to.
        warmup: simulated seconds excluded from throughput and latency.
        drain: operations due after ``horizon - drain`` are not counted as
            attempted, because they cannot have committed by the horizon;
            the SMR workload submits none, so its replicas are idle and
            must agree by the horizon.
        trace_sample: head-sampling rate of the traced run's ``Tracer``;
            chosen so the forensics medians have at least ten samples
            beyond them.
    """

    name: str
    horizon: float
    warmup: float
    drain: float
    trace_sample: float


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, the rule ``repro.bench.metrics`` uses."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def committed_everywhere(deployment: Deployment) -> dict[bytes, float]:
    """Block digest -> time the last honest node ordered it, for blocks every
    honest node ordered."""
    honest = deployment.honest_ids
    seen: dict[bytes, int] = {}
    last: dict[bytes, float] = {}
    for node_id in honest:
        for vertex, when in deployment.nodes[node_id].ordered_log:
            digest = vertex.block_digest
            if digest is not None:
                seen[digest] = seen.get(digest, 0) + 1
                last[digest] = max(last.get(digest, when), when)
    return {d: last[d] for d, count in seen.items() if count == len(honest)}


# -- synthetic workloads (the paper's fixed-load benchmark) -------------------


@dataclass(frozen=True)
class SyntheticWorkloadSpec(Workload):
    """A ``SyntheticWorkload`` run: every proposer packs a fixed number of
    512-byte transactions into each proposal (the paper's §7 method)."""

    protocol: str = "single-clan"
    n: int = 12
    clan_size: int | None = None
    txns_per_proposal: int = 250
    edge_mode: str = "full"

    def build(self, seed: int, tracer=None, horizon: float | None = None):
        config = ExperimentConfig(
            protocol=self.protocol,
            n=self.n,
            clan_size=self.clan_size,
            txns_per_proposal=self.txns_per_proposal,
            bandwidth_bps=400e6,
            duration=self.horizon if horizon is None else horizon,
            warmup=self.warmup,
            seed=seed,
            edge_mode=self.edge_mode,
        )
        return SyntheticRun(self, config, tracer)


class SyntheticRun:
    """A deployment built exactly as ``repro.bench.runner._simulate`` builds
    one, split so construction and the run can be timed apart."""

    def __init__(self, spec: SyntheticWorkloadSpec, config: ExperimentConfig, tracer):
        self.spec = spec
        self.config = config
        self.workload = SyntheticWorkload(txns_per_proposal=config.txns_per_proposal)
        params = ProtocolParams(
            rbc_mode=config.rbc_mode,
            verify_signatures=False,
            leader_timeout=config.leader_timeout,
            edge_mode=config.edge_mode,
            edge_fanout=config.edge_fanout,
        )
        self.deployment = Deployment(
            config.clan_config(),
            params,
            latency=gcp_latency_model(config.n, jitter=config.jitter, seed=config.seed),
            bandwidth_bps=config.bandwidth_bps,
            make_block=self.workload.make_block,
            seed=config.seed,
            tracer=tracer,
            track_kinds=tracer is not None,
        )

    def start(self) -> None:
        self.deployment.start()

    def run(self) -> None:
        self.deployment.run(until=self.config.duration)

    def measure(self) -> dict:
        config = self.config
        metrics = measure_run(self.deployment, self.workload, config.warmup, config.duration)
        committed = committed_everywhere(self.deployment)
        cutoff = config.duration - self.spec.drain
        attempted = failed = committed_txns = 0
        for digest, (txns, created_at) in self.workload.blocks.items():
            if digest in committed:
                committed_txns += txns
            if created_at <= cutoff:
                attempted += txns
                if digest not in committed:
                    failed += txns
        return {
            "attempted": attempted,
            "failed": failed,
            "sim_tps": metrics.throughput_tps,
            "sim_latency_p50_s": metrics.p50_latency_s,
            "sim_latency_p95_s": metrics.p95_latency_s,
            "sim.latency_samples": metrics.committed_blocks,
            "committed_txns": committed_txns,
            "committed_blocks": len(committed),
            "sim.window_txns": metrics.committed_txns,
            # No clients: the SMR layer does not run.
            "smr.submitted": 0,
            "smr.accepted": 0,
            "smr.executed_txns": 0,
            "smr.replies_per_txn": 0.0,
        }

    def check(self) -> None:
        check_prefix_consistency(self.deployment)


# -- the SMR workload: concrete clients over a lossy network ------------------


@dataclass(frozen=True)
class SmrWorkloadSpec(Workload):
    """``SmrRuntime`` with open-loop clients on a fixed simulated schedule."""

    n: int = 16
    clans: int = 2
    clients: int = 8
    rate_per_client: float = 50.0
    drop_rate: float = 0.01

    def build(self, seed: int, tracer=None, horizon: float | None = None):
        return SmrRun(self, seed, tracer, self.horizon if horizon is None else horizon)


class SmrRun:
    """Multi-clan SMR: eight clients, each bound to one clan, submit
    ``incr`` operations on their own counter at seeded Poisson times until
    ``horizon - drain``."""

    def __init__(self, spec: SmrWorkloadSpec, seed: int, tracer, horizon: float):
        self.spec = spec
        self.horizon = horizon
        self.cutoff = horizon - spec.drain
        self.runtime = SmrRuntime(
            ClanConfig.multi_clan(spec.n, spec.clans, seed=seed),
            ProtocolParams(rbc_mode="optimistic", verify_signatures=False),
            latency=gcp_latency_model(spec.n, jitter=0.05, seed=seed),
            seed=seed,
            tracer=tracer,
            bandwidth_bps=400e6,
            faults=LossyLink(spec.drop_rate, seed=seed),
            reliable=True,
            track_kinds=tracer is not None,
        )
        self.deployment = self.runtime.deployment
        #: txn id -> (client, due time); filled as submissions fire.
        self.submitted: dict[str, tuple[object, float]] = {}
        #: txn id -> simulated time the client accepted it.
        self.accepted_at: dict[str, float] = {}
        self.replies = 0
        rng = random.Random(seed)
        for index in range(spec.clients):
            client = self.runtime.new_client(f"client{index}", index % spec.clans)
            self._watch(client)
            due = rng.expovariate(spec.rate_per_client)
            while due < self.cutoff:
                self.runtime.sim.schedule_at(due, self._submit, client, due)
                due += rng.expovariate(spec.rate_per_client)

    def _watch(self, client) -> None:
        """Record when the client accepts each txn: it holds the accept time
        privately, so observe its public reply entry point instead."""
        on_response = client.on_response

        def observed(node_id, txn_id, result, now):
            self.replies += 1
            on_response(node_id, txn_id, result, now)
            if txn_id not in self.accepted_at and client.is_accepted(txn_id):
                self.accepted_at[txn_id] = self.runtime.sim.now

        client.on_response = observed

    def _submit(self, client, due: float) -> None:
        txn = self.runtime.submit(client, ("incr", client.client_id, 1))
        self.submitted[txn.txn_id] = (client, due)

    def start(self) -> None:
        self.runtime.start()

    def run(self) -> None:
        self.runtime.run(until=self.horizon)

    def measure(self) -> dict:
        spec = self.spec
        failed = 0
        latencies = []
        for txn_id, (_client, due) in self.submitted.items():
            accepted = self.accepted_at.get(txn_id)
            if accepted is None:
                failed += 1
            elif due >= spec.warmup:
                latencies.append(accepted - due)
        latencies.sort()
        # The window is [warmup, cutoff] by due time: txns due then and accepted.
        in_window = len(latencies)
        committed = committed_everywhere(self.deployment)
        return {
            "attempted": len(self.submitted),
            "failed": failed,
            "sim_tps": in_window / (self.cutoff - spec.warmup),
            "sim_latency_p50_s": percentile(latencies, 0.50),
            "sim_latency_p95_s": percentile(latencies, 0.95),
            "sim.latency_samples": len(latencies),
            "committed_txns": len(self.accepted_at),
            "committed_blocks": len(committed),
            "sim.window_txns": in_window,
            "smr.submitted": len(self.submitted),
            "smr.accepted": len(self.accepted_at),
            "smr.executed_txns": sum(
                ex.executed_txns for ex in self.runtime.executors.values()
            ),
            "smr.replies_per_txn": self.replies / len(self.accepted_at),
        }

    def check(self) -> None:
        check_prefix_consistency(self.deployment)
        runtime = self.runtime
        for clan_idx in range(runtime.cfg.num_clans):
            try:
                runtime.check_execution_consistency(clan_idx)
            except ExecutionError as exc:
                raise CheckFailed(f"clan {clan_idx}: {exc}") from exc
        # Each client increments its own counter by one per txn.  Its
        # accepted results must be distinct values of the counter sequence
        # 1..held, where held is the counter the (agreeing) clan replicas
        # hold, and no replica may have applied more txns than were issued.
        per_client: dict[str, list[int]] = {}
        for txn_id in self.accepted_at:
            client, _due = self.submitted[txn_id]
            per_client.setdefault(client.client_id, []).append(client.result_of(txn_id))
        for client in runtime.clients.values():
            results = per_client.get(client.client_id, [])
            issued = sum(1 for c, _ in self.submitted.values() if c is client)
            replica = min(runtime.cfg.clan(client.clan_idx))
            held = runtime.executors[replica].machine.get(client.client_id) or 0
            if (
                held > issued
                or len(set(results)) != len(results)
                or not set(results) <= set(range(1, held + 1))
            ):
                raise CheckFailed(
                    f"{client.client_id}: accepted results are not distinct values "
                    f"of the replicas' counter 1..{held} ({issued} txns issued)"
                )


def check_prefix_consistency(deployment: Deployment) -> None:
    try:
        deployment.check_total_order_consistency()
    except ConsensusError as exc:
        raise CheckFailed(str(exc)) from exc


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SyntheticWorkloadSpec(
            name="clan-n12",
            horizon=20.0,
            warmup=2.0,
            drain=1.5,
            trace_sample=1 / 16,
            protocol="single-clan",
            n=12,
            clan_size=6,
            txns_per_proposal=250,
        ),
        SyntheticWorkloadSpec(
            name="tribe-n50-sparse",
            horizon=1.5,
            warmup=0.5,
            drain=0.75,
            trace_sample=1 / 8,
            protocol="sailfish",
            n=50,
            txns_per_proposal=32,
            edge_mode="sparse",
        ),
        SmrWorkloadSpec(
            name="smr-lossy-2clan",
            horizon=8.0,
            warmup=1.0,
            drain=2.5,
            trace_sample=1 / 16,
        ),
    )
}
