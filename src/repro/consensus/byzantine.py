"""Byzantine behaviors for fault-injection tests and robustness benchmarks.

A :class:`ByzantineBehavior` is installed on a node *after* construction and
perturbs its outbound behaviour.  All behaviours stay within the model the
protocol tolerates (≤ f such nodes): safety and liveness tests assert the
honest majority is unaffected.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..dag.block import Block
from ..dag.vertex import Vertex
from ..errors import ConsensusError
from ..types import Round

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import Deployment
    from .node import SailfishNode


class ByzantineBehavior:
    """Base: installs nothing (an honest 'Byzantine' node)."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        """Attach the behaviour to ``node``."""


class CrashAt(ByzantineBehavior):
    """Crash (stop sending and receiving) at a given simulated time."""

    def __init__(self, at: float) -> None:
        if at < 0:
            raise ConsensusError("crash time cannot be negative")
        self.at = at

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        deployment.sim.schedule(self.at, deployment.network.crash, node.node_id)


class SilentNode(ByzantineBehavior):
    """Participates in RBC for others' vertices but never proposes its own."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        node._propose = lambda round_: None  # type: ignore[assignment]


class LazyVoter(ByzantineBehavior):
    """Never includes the leader edge — withholds every vote."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        original = node._strong_edges

        def no_leader_edges(round_: Round):
            prev = round_ - 1
            edges = original(round_)
            if prev < 1:
                return edges
            leader = node.schedule.leader(prev)
            if node.schedule.leader(round_) == node.node_id:
                # When leading, keep the edge: without it the vertex would
                # need an NVC this node cannot produce.
                return edges
            without = tuple(ref for ref in edges if ref.source != leader)
            # Withhold the vote only while the vertex stays well-formed
            # (≥ 2f+1 strong edges) — a malformed vertex would be discarded
            # by everyone and make this behaviour indistinguishable from a
            # silent node.
            if len(without) >= node.cfg.quorum:
                return without
            return edges

        node._strong_edges = no_leader_edges  # type: ignore[assignment]


class EquivocatingProposer(ByzantineBehavior):
    """Sends different vertices (different blocks) to the two halves of the
    tribe at the VAL stage.  The RBC layer must prevent a split delivery."""

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        rbc = node.rbc
        network = deployment.network
        cfg = node.cfg

        def equivocating_broadcast(vertex: Vertex, block: Block | None) -> None:
            from .messages import VertexValMsg

            # Reversing the edge tuple changes the vertex digest while keeping
            # the vertex structurally valid — a minimal equivocation.
            twin = Vertex(
                round=vertex.round,
                source=vertex.source,
                block_digest=vertex.block_digest,
                strong_edges=tuple(reversed(vertex.strong_edges)),
                weak_edges=vertex.weak_edges,
                nvc=vertex.nvc,
            )
            for variant, parties in (
                (vertex, [p for p in range(cfg.n) if p % 2 == 0]),
                (twin, [p for p in range(cfg.n) if p % 2 == 1]),
            ):
                signature = rbc.val_signature(variant)
                # Both variants advertise (and carry) the same block — the
                # equivocation is in the vertex content, so recipients of
                # either variant can ECHO and the split is maximal.
                network.multicast(
                    node.node_id, parties, VertexValMsg(variant, block, signature)
                )

        rbc.broadcast = equivocating_broadcast  # type: ignore[assignment]


class WithholdingProposer(ByzantineBehavior):
    """Sends its block to only a minority of its clan, forcing block pulls."""

    def __init__(self, receive_full: int = 1) -> None:
        if receive_full < 0:
            raise ConsensusError("receive_full cannot be negative")
        self.receive_full = receive_full

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        rbc = node.rbc
        network = deployment.network
        cfg = node.cfg
        keep = self.receive_full

        def withholding_broadcast(vertex: Vertex, block: Block | None) -> None:
            from .messages import VertexValMsg

            signature = rbc.val_signature(vertex)
            if block is None:
                network.broadcast(node.node_id, VertexValMsg(vertex, None, signature))
                return
            clan = sorted(cfg.clan(cfg.block_clan_of(node.node_id)))
            lucky = set(clan[:keep])
            for party in range(cfg.n):
                body = block if party in lucky else None
                network.send(node.node_id, party, VertexValMsg(vertex, body, signature))

        rbc.broadcast = withholding_broadcast  # type: ignore[assignment]


def _prefix_broadcast_parts(rbc, vertex: Vertex, block: Block):
    """The pieces an honest prefix-mode broadcast would send.

    Returns (manifest, chunks, signature, in_clan, outside) so Byzantine
    proposers can replay the honest dissemination with perturbed timing or
    coverage.  Raises if the node is not in prefix mode."""
    from ..rbc.prefix import split_block

    if not rbc._prefix:
        raise ConsensusError("prefix dissemination requires rbc_mode='prefix'")
    in_clan, outside = rbc.clan_split(vertex.round)
    manifest, chunks = split_block(block, vertex.block_chunks)
    return manifest, chunks, rbc.val_signature(vertex), in_clan, outside


class SlowProposer(ByzantineBehavior):
    """Disseminates its block tail late: chunk i arrives ``i * delay`` after
    the vertex (prefix mode), or the whole block arrives ``delay`` late
    while the digest-only vertex goes out on time (other modes).

    The certified-prefix commit rule should absorb this without stalling any
    round: voters attest the chunks they hold at attestation time, and the
    commit orders that prefix."""

    def __init__(self, delay: float = 0.6) -> None:
        if delay <= 0:
            raise ConsensusError("delay must be positive")
        self.delay = delay

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        rbc = node.rbc
        network = deployment.network
        sim = deployment.sim
        delay = self.delay

        def slow_broadcast(vertex: Vertex, block: Block | None) -> None:
            from ..rbc.prefix import BlockChunkMsg
            from .messages import VertexValMsg

            if block is None or not rbc._prefix:
                signature = rbc.val_signature(vertex)
                if block is None:
                    network.broadcast(
                        node.node_id, VertexValMsg(vertex, None, signature)
                    )
                    return
                # Non-prefix fallback: vertex on time, block only after the
                # delay (everyone else pulls or waits).
                in_clan, outside = rbc.clan_split(vertex.round)
                network.multicast(
                    node.node_id, outside, VertexValMsg(vertex, None, signature)
                )
                sim.schedule(
                    delay, network.multicast, node.node_id, in_clan,
                    VertexValMsg(vertex, block, signature),
                )
                return
            manifest, chunks, signature, in_clan, outside = _prefix_broadcast_parts(
                rbc, vertex, block
            )
            network.multicast(
                node.node_id, in_clan, VertexValMsg(vertex, None, signature, manifest)
            )
            if outside:
                network.multicast(
                    node.node_id, outside, VertexValMsg(vertex, None, signature)
                )
            for chunk in chunks:
                msg = BlockChunkMsg(node.node_id, vertex.round, chunk)
                if chunk.index == 0:
                    network.multicast(node.node_id, in_clan, msg)
                else:
                    sim.schedule(
                        chunk.index * delay, network.multicast,
                        node.node_id, in_clan, msg,
                    )

        rbc.broadcast = slow_broadcast  # type: ignore[assignment]


class TailWithholder(ByzantineBehavior):
    """Never sends the tail of its blocks: only the first
    ``ceil(keep_fraction * chunks)`` chunks are disseminated (prefix mode).

    The commit rule should order exactly the disseminated prefix — the
    proposer loses its tail transactions but cannot stall the round or the
    executor.  In non-prefix modes this behaviour degenerates to an honest
    broadcast (there is no tail to withhold without chunking)."""

    def __init__(self, keep_fraction: float = 0.5) -> None:
        if not 0.0 <= keep_fraction <= 1.0:
            raise ConsensusError("keep_fraction must be within [0, 1]")
        self.keep_fraction = keep_fraction

    def install(self, node: "SailfishNode", deployment: "Deployment") -> None:
        rbc = node.rbc
        network = deployment.network
        original = rbc.broadcast
        fraction = self.keep_fraction

        def withholding_broadcast(vertex: Vertex, block: Block | None) -> None:
            from ..rbc.prefix import BlockChunkMsg
            from .messages import VertexValMsg

            if block is None or not rbc._prefix:
                original(vertex, block)
                return
            manifest, chunks, signature, in_clan, outside = _prefix_broadcast_parts(
                rbc, vertex, block
            )
            keep = min(len(chunks), max(1, math.ceil(len(chunks) * fraction)))
            network.multicast(
                node.node_id, in_clan, VertexValMsg(vertex, None, signature, manifest)
            )
            if outside:
                network.multicast(
                    node.node_id, outside, VertexValMsg(vertex, None, signature)
                )
            for chunk in chunks[:keep]:
                network.multicast(
                    node.node_id, in_clan,
                    BlockChunkMsg(node.node_id, vertex.round, chunk),
                )

        rbc.broadcast = withholding_broadcast  # type: ignore[assignment]
