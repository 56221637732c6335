"""Merged vertex+block reliable broadcast (§5).

One RBC instance per (proposer, round) carries the vertex to the whole tribe
and the block only to the proposer's clan:

* VAL to a clan member of the proposer's clan = vertex + block; VAL to
  everyone else = vertex alone (it embeds the block digest).
* A clan member ECHOes only after holding *both* vertex and block; everyone
  else after holding the vertex.
* Completion needs 2f+1 ECHOes and — when the vertex carries a block —
  at least f_c+1 of them from the proposer's clan, so an honest clan member
  provably holds the block.
* Vertex delivery never waits for the block: consensus progresses and commits
  on vertices; missing blocks are pulled off the critical path and delivered
  to clan members when they arrive.

Four modes, all completing through the rules of
:class:`~repro.rbc.core.RbcCore` shared with the standalone protocols:

* ``"two-round"`` — signed ECHOes aggregated into a multicast certificate
  (Fig. 3).
* ``"bracha"`` — unsigned ECHO/READY phases (Fig. 2).
* ``"optimistic"`` — unsigned fast path: deliver when *all n* parties ECHO
  one digest (2δ), falling back to the Bracha READY path when a conflicting
  digest shows up, the per-instance fallback timer fires, or any READY
  arrives (someone else already fell back).
* ``"prefix"`` — Bracha-style vertex certification, but the block travels
  as per-chunk messages bound to the vertex via a manifest digest
  (``vertex.chunk_root``); voters attest the prefix they hold and the
  commit rule orders the certified prefix (see ``consensus/node.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..committees.config import ClanConfig
from ..crypto.certificates import build_certificate, verify_certificate
from ..obs.ctx import TraceCtx, block_trace_key
from ..crypto.evidence import EvidencePool
from ..crypto.signatures import Pki
from ..dag.block import Block
from ..dag.vertex import Vertex
from ..errors import ConsensusError
from ..net.network import Network
from ..rbc.adapter import RbcAdapter
from ..rbc.core import RbcCore, RbcInstance
from ..rbc.messages import PayloadRequest, PayloadResponse
from ..rbc.prefix import (
    BlockChunk,
    BlockChunkMsg,
    ChunkManifest,
    ChunkRequestMsg,
    ChunkResponseMsg,
    split_block,
)
from ..rbc.retrieval import Responder, Retriever
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .messages import (
    VertexCertMsg,
    VertexEchoMsg,
    VertexReadyMsg,
    VertexValMsg,
    vertex_echo_statement,
    vertex_val_statement,
)

Key = tuple[NodeId, Round]


@dataclass
class VertexInstance(RbcInstance):
    """Per-(proposer, round) dissemination state: the core's tallies plus
    the vertex, its block (or chunks), and tracing.  ``delivered`` is the
    vertex's delivery; ``val_digest`` the first VAL's vertex digest."""

    vertex: Vertex | None = None
    block: Block | None = None
    echoed: bool = False
    block_delivered: bool = False
    # Prefix mode: the verified manifest, verified chunks by index, and
    # chunks buffered before the manifest arrived (lazily allocated).
    manifest: ChunkManifest | None = None
    chunks: dict[int, BlockChunk] | None = None
    chunk_buffer: dict[int, BlockChunk] | None = None
    # Phase timestamps, populated only when tracing is enabled.
    val_at: float | None = None
    echo_at: float | None = None
    #: Causal trace context of this vertex's dissemination (None when the
    #: instance is unsampled or tracing is off); inherited from the VAL
    #: message and stamped onto every ECHO/READY/CERT/chunk this node sends
    #: for the instance.
    ctx: object | None = None


class VertexRbc(RbcAdapter):
    """Per-node merged dissemination module.

    Callbacks:
        on_first_val(vertex): the first time this node learns the vertex
            content (VAL arrival or pull) — drives Sailfish's 1-RBC+1δ votes.
        on_vertex(vertex): RBC delivery of the vertex (non-equivocation +
            eventual delivery certified).
        on_block(block): the block is available locally *and* its vertex has
            been delivered; fired only on members of the proposer's clan.
    """

    def __init__(
        self,
        node_id: NodeId,
        clan_cfg: ClanConfig,
        network: Network,
        sim: Simulator,
        pki: Pki,
        on_first_val: Callable[[Vertex], None],
        on_vertex: Callable[[Vertex], None],
        on_block: Callable[[Block], None],
        mode: str = "two-round",
        verify_signatures: bool = True,
        retry_timeout: float = 0.25,
        fallback_timeout: float = 0.5,
        schedule=None,
        tracer=None,
        edge_mode: str = "full",
    ) -> None:
        if mode not in ("two-round", "bracha", "optimistic", "prefix"):
            raise ConsensusError(f"unknown RBC mode {mode!r}")
        self.node_id = node_id
        self.cfg = clan_cfg
        #: Round -> ClanConfig (epoch rotation); static wrapper by default.
        if schedule is None:
            from ..committees.rotation import StaticSchedule

            schedule = StaticSchedule(clan_cfg)
        self.schedule = schedule
        self.network = network
        self.sim = sim
        self.tracer = tracer if tracer is not None else network.tracer
        self.pki = pki
        self._key = pki.key(node_id)
        self.on_first_val = on_first_val
        self.on_vertex = on_vertex
        self.on_block = on_block
        self.mode = mode
        #: The completion rules; prefix mode completes like Bracha.
        self.core = RbcCore(clan_cfg.n, "bracha" if mode == "prefix" else mode)
        self._two_round = mode == "two-round"
        self._prefix = mode == "prefix"
        #: Edge policy of the vertices this node broadcasts ("full"/"sparse");
        #: informational here, but the per-broadcast edge counters below are
        #: what the sparse-edge benchmarks read to report realized fan-out.
        self.edge_mode = edge_mode
        #: Realized fan-out stats over this node's own broadcasts.
        self.vertices_broadcast = 0
        self.strong_refs_sent = 0
        self.weak_refs_sent = 0
        self.fallback_timeout = fallback_timeout
        self.retry_timeout = retry_timeout
        self.verify = verify_signatures
        self.instances: dict[Key, VertexInstance] = {}
        # Prefix-mode chunk-pull state: per-instance fetch entries (rotating
        # holders, capped backoff) and the serve-once rate-limit marks.
        self._chunk_fetch: dict[Key, dict] = {}
        self._chunk_served: set[tuple[NodeId, Round, int, NodeId]] = set()
        #: Prefix-mode hook: fired as (origin, round) whenever this node's
        #: verified chunk holdings for an instance grow (node completion).
        self.on_chunk = None
        self._block_retriever = Retriever(
            node_id, network, sim, self._on_pulled_block, retry_timeout, channel="block"
        )
        self._block_responder = Responder(
            node_id, network, self._lookup_block, channel="block"
        )
        self._vertex_retriever = Retriever(
            node_id, network, sim, self._on_pulled_vertex, retry_timeout, channel="vertex"
        )
        self._vertex_responder = Responder(
            node_id, network, self._lookup_vertex, channel="vertex"
        )
        #: Accountability: transferable equivocation proofs from signed VALs.
        self.evidence = EvidencePool()
        #: Forensics hook fired when a conflicting digest for an (origin,
        #: round) instance is first observed: (origin, round, n_conflicting).
        self.on_equivocation = None
        self._handlers = self.dispatch_table()

    # -- helpers ---------------------------------------------------------------

    def instance(self, origin: NodeId, round_: Round) -> VertexInstance:
        key = (origin, round_)
        state = self.instances.get(key)
        if state is None:
            # The clan condition is conservative: it applies whenever the
            # origin *may* attach a block (checked without the vertex, which
            # may not have arrived yet).  f_c+1 honest clan ECHOes always
            # arrive for block-less vertices too, so this never blocks.
            cfg = self.schedule.cfg_at(round_)
            if cfg.is_block_proposer(origin):
                clan = cfg.clan(cfg.block_clan_of(origin))
                state = VertexInstance(clan=clan, clan_quorum=self.core.clan_quorum(clan))
            else:
                state = VertexInstance()
            self.instances[key] = state
        return state

    def _serves_block(self, origin: NodeId, round_: Round) -> bool:
        """Is this node in the proposer's clan (receives/executes its blocks)?"""
        cfg = self.schedule.cfg_at(round_)
        idx = cfg.clan_index_of(origin)
        return idx is not None and idx == cfg.clan_index_of(self.node_id)

    # -- sending -----------------------------------------------------------------

    def broadcast(self, vertex: Vertex, block: Block | None) -> None:
        """Disseminate this node's vertex (and block, if it proposes blocks)."""
        if vertex.source != self.node_id:
            raise ConsensusError("can only broadcast own vertices")
        ctx = None
        if self.tracer.enabled:
            ctx = self._broadcast_ctx(vertex)
            if self.tracer.verbose or ctx is not None:
                self.tracer.counter(
                    "consensus.propose", node=self.node_id, round=vertex.round,
                    has_block=block is not None, time=self.sim.now,
                )
        if (block is None) != (vertex.block_digest is None):
            raise ConsensusError("vertex.block_digest must match block presence")
        if block is not None and block.payload_digest() != vertex.block_digest:
            raise ConsensusError("vertex.block_digest does not match block")
        self.vertices_broadcast += 1
        self.strong_refs_sent += len(vertex.strong_edges)
        self.weak_refs_sent += len(vertex.weak_edges)
        signature = self.val_signature(vertex)
        if block is None:
            val = VertexValMsg(vertex, None, signature)
            if ctx is not None:
                val.trace_ctx = ctx
            self.network.broadcast(self.node_id, val)
            return
        in_clan, outside = self.clan_split(vertex.round)
        chunks = ()
        if self._prefix:
            # The block travels as chunks; clan members get the manifest
            # (bound to the vertex via chunk_root) alongside the vertex.
            manifest, chunks = split_block(block, vertex.block_chunks)
            if manifest.manifest_digest() != vertex.chunk_root:
                raise ConsensusError("vertex.chunk_root does not match manifest")
            val = VertexValMsg(vertex, None, signature, manifest)
        else:
            val = VertexValMsg(vertex, block, signature)
        bare = VertexValMsg(vertex, None, signature)
        if ctx is not None:
            val.trace_ctx = ctx
            bare.trace_ctx = ctx
        self.network.multicast(self.node_id, in_clan, val)
        if outside:
            self.network.multicast(self.node_id, outside, bare)
        for chunk in chunks:
            cmsg = BlockChunkMsg(self.node_id, vertex.round, chunk)
            if ctx is not None:
                cmsg.trace_ctx = ctx
            self.network.multicast(self.node_id, in_clan, cmsg)

    def val_signature(self, vertex: Vertex):
        """This node's signature on a VAL for ``vertex`` (two-round mode
        only; None otherwise)."""
        if not self._two_round:
            return None
        return self._key.sign(
            vertex_val_statement(self.node_id, vertex.round, vertex.vertex_digest())
        )

    def clan_split(self, round_: Round) -> tuple[list[NodeId], list[NodeId]]:
        """The tribe split for this node's VALs in ``round_``: its block clan
        (vertex and block) and everyone else (vertex alone)."""
        cfg = self.schedule.cfg_at(round_)
        clan = cfg.clan(cfg.block_clan_of(self.node_id))
        n = self.cfg.n
        return [p for p in range(n) if p in clan], [p for p in range(n) if p not in clan]

    def _broadcast_ctx(self, vertex: Vertex) -> TraceCtx | None:
        """Open (and register) the causal trace for a sampled vertex.

        The trace id derives from the block digest when the vertex carries a
        block (so offline tools can rejoin it from a manifest digest alone),
        else from the (round, source) vertex identity.  A block whose
        transactions include a head-sampled txn is force-sampled via the
        ``("blkforce", digest)`` binding the SMR runtime registers at block
        creation — txn trees stay complete at any sample rate.
        """
        tr = self.tracer
        if vertex.block_digest is not None:
            key = block_trace_key(vertex.block_digest)
            forced = tr.ctx(("blkforce", vertex.block_digest)) is not None
        else:
            key = f"vtx:{vertex.round}:{vertex.source}"
            forced = False
        if not forced and not tr.sampled(key):
            return None
        ctx = TraceCtx(tr.trace_id(key), tr.next_span_id())
        tr.bind(("vertex", vertex.round, vertex.source), ctx)
        if vertex.block_digest is not None:
            tr.bind(("block", vertex.block_digest), ctx)
        # The trace's root span: the proposal event itself.  Children (hops,
        # per-node RBC phases, attach/order/execute) hang off ctx.span_id.
        now = self.sim.now
        tr.span(
            "rbc.broadcast", start=now, end=now, node=self.node_id,
            round=vertex.round, trace=ctx.trace_id, span=ctx.span_id,
        )
        return ctx

    def _span(
        self,
        name: str,
        start: float | None,
        state: VertexInstance,
        origin: NodeId,
        round_: Round,
    ):
        """A phase span ending now (from now if ``start`` is None): a child of
        the instance's trace context, else plain at full sampling only.
        Returns the context span, if one was emitted."""
        tr = self.tracer
        now = self.sim.now
        if start is None:
            start = now
        if state.ctx is not None:
            return tr.ctx_span(name, start=start, ctx=state.ctx, end=now,
                               node=self.node_id, origin=origin, round=round_)
        if tr.verbose:
            tr.span(name, start=start, end=now,
                    node=self.node_id, origin=origin, round=round_)
        return None

    # -- receiving ----------------------------------------------------------------

    def on_message(self, src: NodeId, msg: object) -> bool:
        """Dispatch a network message; returns False if it isn't ours."""
        handler = self._handlers.get(type(msg))
        if handler is None:
            return False
        handler(src, msg)
        return True

    def _on_payload_request(self, src: NodeId, msg: PayloadRequest) -> None:
        self._block_responder.on_request(src, msg)
        self._vertex_responder.on_request(src, msg)

    def _on_payload_response(self, src: NodeId, msg: PayloadResponse) -> None:
        self._block_retriever.on_response(src, msg)
        self._vertex_retriever.on_response(src, msg)

    def dispatch_table(self) -> dict:
        """Exact-class handler table, for :meth:`on_message` and for
        :meth:`Network.set_dispatch` (the owning node extends it with its
        own message types before installing it)."""
        return {
            VertexEchoMsg: self._on_echo,
            VertexCertMsg: self._on_cert,
            VertexValMsg: self._on_val,
            VertexReadyMsg: self._on_ready,
            PayloadRequest: self._on_payload_request,
            PayloadResponse: self._on_payload_response,
            BlockChunkMsg: self._on_chunk,
            ChunkRequestMsg: self._on_chunk_request,
            ChunkResponseMsg: self._on_chunk_response,
        }

    def _on_val(self, src: NodeId, msg: VertexValMsg) -> None:
        vertex = msg.vertex
        origin = vertex.source
        if src != origin:
            return  # authenticated channels
        if vertex.round < 1:
            return
        if vertex.block_digest is not None and not self.schedule.cfg_at(
            vertex.round
        ).is_block_proposer(origin):
            return  # §5: only clan members may propose blocks
        vdigest = vertex.vertex_digest()
        if self._two_round:
            if msg.signature is None:
                return
            if self.verify:
                if msg.signature.signer != origin or not self.pki.verify(msg.signature):
                    return
                expected = vertex_val_statement(origin, vertex.round, vdigest)
                if msg.signature.message_digest != expected:
                    return
        state = self.instance(origin, vertex.round)
        if self.tracer.enabled:
            if state.val_at is None:
                state.val_at = self.sim.now
            if state.ctx is None:
                state.ctx = getattr(msg, "trace_ctx", None)
        acts = self.core.touch(state)
        if acts is not None:
            self._apply(origin, vertex.round, state, acts)
        if self._two_round and msg.signature is not None:
            # Signed VALs are accountability material: two conflicting ones
            # from the same (origin, round) yield a transferable fraud proof.
            self.evidence.record(origin, vertex.round, vdigest, msg.signature)
        first = state.val_digest is None
        acts = self.core.val(state, vdigest)
        if first:
            state.vertex = vertex
            self.on_first_val(vertex)
        elif state.val_digest != vdigest:
            if self.on_equivocation is not None:
                self.on_equivocation(origin, vertex.round, len(state.conflicting))
            if acts is not None:
                self._apply(origin, vertex.round, state, acts)
            return
        if self._prefix and msg.manifest is not None and state.manifest is None:
            self._try_accept_manifest(origin, vertex.round, state, msg.manifest)
        if msg.block is not None and state.block is None:
            block = msg.block
            if (
                block.proposer == origin
                and block.round == vertex.round
                and vertex.block_digest is not None
                and block.payload_digest() == vertex.block_digest
            ):
                state.block = block
        self._maybe_echo(origin, vertex.round, state)
        self._maybe_finish(origin, vertex.round, state)

    def _maybe_echo(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        if state.echoed or state.vertex is None:
            return
        # Prefix mode: clan members echo on the vertex+manifest alone — the
        # whole point is that certification must not wait for the block tail.
        if self._prefix:
            if (
                state.vertex.block_chunks
                and self._serves_block(origin, round_)
                and state.manifest is None
            ):
                return
        else:
            needs_block = (
                state.vertex.block_digest is not None
                and self._serves_block(origin, round_)
            )
            if needs_block and state.block is None:
                return
        state.echoed = True
        if self.tracer.enabled:
            state.echo_at = self.sim.now
            self._span("rbc.val_to_echo", state.val_at, state, origin, round_)
        vdigest = state.val_digest
        signature = None
        if self._two_round:
            signature = self._key.sign(vertex_echo_statement(origin, round_, vdigest))
        echo = VertexEchoMsg(origin, round_, vdigest, signature)
        # Quorum-phase broadcasts are stamped only at sample=1.0: in sampled
        # mode each stamp would route an n-wide broadcast down the traced
        # slow path per sampled vertex, and the causal tree is already
        # complete via the VAL/chunk propagation plus local phase spans.
        if state.ctx is not None and self.tracer.verbose:
            echo.trace_ctx = state.ctx
        self.network.broadcast(self.node_id, echo)

    def _on_echo(self, src: NodeId, msg: VertexEchoMsg) -> None:
        if self._two_round:
            if msg.signature is None or msg.signature.signer != src:
                return
            if self.verify:
                expected = vertex_echo_statement(msg.origin, msg.round, msg.vertex_digest)
                if msg.signature.message_digest != expected:
                    return
                if not self.pki.verify(msg.signature):
                    return
        # Inlined instance() hit path: ECHOes are the n²-per-round traffic,
        # and after the first one the instance always exists.
        state = self.instances.get((msg.origin, msg.round))
        if state is None:
            state = self.instance(msg.origin, msg.round)
        acts = self.core.echo(state, src, msg.vertex_digest, msg.signature)
        if acts is not None:
            self._apply(msg.origin, msg.round, state, acts)

    def _on_cert(self, src: NodeId, msg: VertexCertMsg) -> None:
        state = self.instances.get((msg.origin, msg.round))
        if state is None:
            state = self.instance(msg.origin, msg.round)
        if state.quorum_digest is not None:
            return
        if self.verify:
            if not verify_certificate(
                self.pki, msg.cert, self.core.quorum, state.clan, state.clan_quorum
            ):
                return
            expected = vertex_echo_statement(msg.origin, msg.round, msg.vertex_digest)
            if msg.cert.message_digest != expected:
                return
        acts = self.core.cert(state, msg.vertex_digest)
        self._apply(msg.origin, msg.round, state, acts, msg)

    def _on_ready(self, src: NodeId, msg: VertexReadyMsg) -> None:
        if self._two_round:
            return
        state = self.instance(msg.origin, msg.round)
        acts = self.core.ready(state, src, msg.vertex_digest)
        if acts is not None:
            self._apply(msg.origin, msg.round, state, acts)

    # -- adapter hooks ----------------------------------------------------------

    def _send_ready(
        self, origin: NodeId, round_: Round, state: VertexInstance, digest_: bytes
    ) -> None:
        ready = VertexReadyMsg(origin, round_, digest_)
        if state.ctx is not None and self.tracer.verbose:
            ready.trace_ctx = state.ctx
        self.network.broadcast(self.node_id, ready)

    def _send_cert(
        self, origin: NodeId, round_: Round, state: VertexInstance, digest_: bytes
    ):
        cert = build_certificate(list(state.echo_sigs[digest_].values()))
        cert_msg = VertexCertMsg(origin, round_, digest_, cert, self.cfg.n)
        if state.ctx is not None and self.tracer.verbose:
            cert_msg.trace_ctx = state.ctx
        self.network.broadcast(self.node_id, cert_msg)
        return cert

    # -- completion -----------------------------------------------------------------

    def _certified(
        self,
        origin: NodeId,
        round_: Round,
        state: VertexInstance,
        digest_: bytes,
        cert=None,
    ) -> None:
        """The RBC quorum certified ``digest_``: deliver vertex, then block."""
        if state.vertex is None or state.vertex.vertex_digest() != digest_:
            # VAL still in flight (or equivocation shadow): pull the vertex
            # from any echoing party, off the critical path.
            holders = [p for p in state.echoes.get(digest_, ()) if p != self.node_id]
            if self._two_round and not holders:
                holders = [origin]
            if holders:
                self._vertex_retriever.fetch(origin, round_, digest_, holders)
            return
        self._maybe_finish(origin, round_, state)

    def _maybe_finish(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        if state.quorum_digest is None or state.vertex is None:
            return
        if state.vertex.vertex_digest() != state.quorum_digest:
            return
        if self.core.deliver(state):
            self._cancel_timer(state)
            if self.tracer.enabled:
                start = state.echo_at if state.echo_at is not None else state.val_at
                self._span("rbc.echo_to_deliver", start, state, origin, round_)
                delivered = self._span("rbc.e2e", state.val_at, state, origin, round_)
                if delivered is not None:
                    # Downstream stages on this node (DAG attach, ordering)
                    # parent under the local delivery span, giving the trace
                    # a per-node causal chain rather than a flat fan-out.
                    self.tracer.bind(("vdeliv", round_, origin, self.node_id), delivered)
            self.on_vertex(state.vertex)
        if self._prefix:
            # Prefix mode: blocks reach the node through the certified-prefix
            # commit path (node.on_commit_block), never through on_block.
            return
        if state.vertex.block_digest is None or not self._serves_block(
            origin, round_
        ):
            return
        if state.block_delivered:
            return
        if state.block is not None:
            state.block_delivered = True
            if self.tracer.enabled:
                self._span("rbc.block_e2e", state.val_at, state, origin, round_)
            self.on_block(state.block)
        else:
            self._fetch(origin, round_, state, state.quorum_digest)

    def _fetch(
        self, origin: NodeId, round_: Round, state: VertexInstance, digest_: bytes
    ) -> None:
        """Pull the missing block from echoing clan members.  Clan members
        start at ECHO-quorum time, before the READY quorum completes (§5)."""
        if self._prefix:
            return  # chunk pulls replace the whole-block plane
        if state.block is not None or state.block_delivered:
            return
        if state.vertex is None or state.vertex.block_digest is None:
            return
        if not self._serves_block(origin, round_):
            return
        cfg = self.schedule.cfg_at(round_)
        clan = cfg.clan(cfg.block_clan_of(origin))
        holders = [
            p
            for p in state.echoes.get(digest_, ())
            if p in clan and p != self.node_id
        ]
        if holders:
            self._block_retriever.fetch(
                origin, round_, state.vertex.block_digest, holders
            )

    def _on_pulled_block(self, origin: NodeId, round_: Round, block: Block) -> None:
        state = self.instance(origin, round_)
        if state.block is None:
            state.block = block
        self._maybe_echo(origin, round_, state)
        self._maybe_finish(origin, round_, state)

    def _on_pulled_vertex(self, origin: NodeId, round_: Round, vertex: Vertex) -> None:
        state = self.instance(origin, round_)
        vdigest = vertex.vertex_digest()
        if state.vertex is None:
            state.vertex = vertex
            state.val_digest = vdigest
            self.on_first_val(vertex)
        elif (
            state.quorum_digest == vdigest
            and state.vertex.vertex_digest() != vdigest
        ):
            # Equivocating proposer: the quorum certified a different vertex
            # than the VAL we saw first; the certified one is authoritative.
            state.conflicting.add(state.vertex.vertex_digest())
            if self.on_equivocation is not None:
                self.on_equivocation(origin, round_, len(state.conflicting))
            state.vertex = vertex
        self._maybe_finish(origin, round_, state)

    # -- prefix chunks ----------------------------------------------------------------

    def _try_accept_manifest(
        self, origin: NodeId, round_: Round, state: VertexInstance,
        manifest: ChunkManifest,
    ) -> bool:
        """Accept a manifest iff it matches the certified vertex's chunk root."""
        accepted = state.vertex
        if (
            accepted is None
            or not accepted.block_chunks
            or manifest.num_chunks != accepted.block_chunks
            or manifest.block_digest != accepted.block_digest
            or manifest.manifest_digest() != accepted.chunk_root
        ):
            return False
        state.manifest = manifest
        self._drain_chunk_buffer(origin, round_, state)
        return True

    def _on_chunk(self, src: NodeId, msg: BlockChunkMsg) -> None:
        if not self._prefix or src != msg.origin:
            return
        chunk = msg.chunk
        if chunk.proposer != msg.origin or chunk.round != msg.round:
            return
        if self.tracer.enabled:
            # Chunks may outrun the VAL; adopt the context either way.
            state = self.instance(msg.origin, msg.round)
            if state.ctx is None:
                state.ctx = getattr(msg, "trace_ctx", None)
        self._accept_chunk(msg.origin, msg.round, chunk)

    def _accept_chunk(self, origin: NodeId, round_: Round, chunk: BlockChunk) -> None:
        state = self.instance(origin, round_)
        if state.manifest is None:
            # Can't verify yet: buffer first-seen chunks until the manifest
            # (bound to the certified vertex) arrives.
            buf = state.chunk_buffer
            if buf is None:
                buf = state.chunk_buffer = {}
            buf.setdefault(chunk.index, chunk)
            return
        if not state.manifest.verify_chunk(chunk):
            return
        chunks = state.chunks
        if chunks is None:
            chunks = state.chunks = {}
        if chunk.index in chunks:
            return
        chunks[chunk.index] = chunk
        self._notify_chunks(origin, round_, state)

    def _drain_chunk_buffer(
        self, origin: NodeId, round_: Round, state: VertexInstance
    ) -> None:
        """Manifest just arrived: verify buffered chunks, then notify."""
        buf = state.chunk_buffer
        state.chunk_buffer = None
        if buf:
            chunks = state.chunks
            if chunks is None:
                chunks = state.chunks = {}
            for index in sorted(buf):
                chunk = buf[index]
                if index not in chunks and state.manifest.verify_chunk(chunk):
                    chunks[index] = chunk
        self._notify_chunks(origin, round_, state)

    def _notify_chunks(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        key = (origin, round_)
        entry = self._chunk_fetch.get(key)
        if entry is not None and self._fetch_satisfied(state, entry["k"]):
            timer = entry["timer"]
            if timer is not None:
                timer.cancel()
            del self._chunk_fetch[key]
        if self.on_chunk is not None:
            self.on_chunk(origin, round_)

    def held_prefix(self, origin: NodeId, round_: Round) -> int:
        """Contiguous verified chunks held from index 0 (0 without manifest)."""
        state = self.instances.get((origin, round_))
        if state is None or state.manifest is None:
            return 0
        chunks = state.chunks
        if not chunks:
            return 0
        held = 0
        total = state.manifest.num_chunks
        while held < total and held in chunks:
            held += 1
        return held

    def prefix_parts(
        self, origin: NodeId, round_: Round
    ) -> tuple[ChunkManifest | None, dict[int, BlockChunk]]:
        """The manifest and verified chunks this node holds for an instance."""
        state = self.instances.get((origin, round_))
        if state is None:
            return None, {}
        return state.manifest, dict(state.chunks) if state.chunks else {}

    def _fetch_satisfied(self, state: VertexInstance, k: int) -> bool:
        if state.manifest is None:
            return False
        chunks = state.chunks
        if k and not chunks:
            return False
        return all(i in chunks for i in range(k)) if k else True

    def fetch_chunks(
        self, origin: NodeId, round_: Round, k: int, holders: list[NodeId]
    ) -> None:
        """Pull chunks [0, k) from ``holders`` (attesters of at least k)."""
        key = (origin, round_)
        state = self.instance(origin, round_)
        if self._fetch_satisfied(state, k):
            return
        entry = self._chunk_fetch.get(key)
        if entry is None:
            self._chunk_fetch[key] = {
                "k": k, "holders": list(holders), "next": 0,
                "timeout": self.retry_timeout, "timer": None,
            }
            self._request_chunks(key)
            return
        entry["k"] = max(entry["k"], k)
        for holder in holders:
            if holder not in entry["holders"]:
                entry["holders"].append(holder)

    def _request_chunks(self, key: Key) -> None:
        entry = self._chunk_fetch.get(key)
        if entry is None:
            return
        origin, round_ = key
        state = self.instance(origin, round_)
        if self._fetch_satisfied(state, entry["k"]) or not entry["holders"]:
            del self._chunk_fetch[key]
            return
        holders = entry["holders"]
        target = holders[entry["next"] % len(holders)]
        entry["next"] += 1
        chunks = state.chunks
        requested = False
        for index in range(entry["k"]):
            if chunks is None or index not in chunks:
                requested = True
                req = ChunkRequestMsg(origin, round_, index)
                if state.ctx is not None:
                    req.trace_ctx = state.ctx
                self.network.send(self.node_id, target, req)
        if not requested:
            # All k chunks held but the manifest is missing (bare-vertex
            # pull, or k=0): probe index 0 — responses carry the manifest.
            req = ChunkRequestMsg(origin, round_, 0)
            if state.ctx is not None:
                req.trace_ctx = state.ctx
            self.network.send(self.node_id, target, req)
        entry["timer"] = self.sim.schedule(entry["timeout"], self._request_chunks, key)
        entry["timeout"] = min(entry["timeout"] * 1.5, 30.0)

    def _on_chunk_request(self, src: NodeId, msg: ChunkRequestMsg) -> None:
        if not self._prefix:
            return
        mark = (msg.origin, msg.round, msg.index, src)
        if mark in self._chunk_served:
            return  # serve-once per (instance, index, requester)
        state = self.instances.get((msg.origin, msg.round))
        if state is None or state.manifest is None:
            return
        chunk = state.chunks.get(msg.index) if state.chunks else None
        if chunk is None and msg.index != 0:
            return  # manifest-only answers only for the index-0 probe
        self._chunk_served.add(mark)
        resp = ChunkResponseMsg(msg.origin, msg.round, chunk, state.manifest)
        if state.ctx is not None:
            resp.trace_ctx = state.ctx
        self.network.send(self.node_id, src, resp)

    def _on_chunk_response(self, src: NodeId, msg: ChunkResponseMsg) -> None:
        if not self._prefix:
            return
        state = self.instances.get((msg.origin, msg.round))
        if state is None:
            return
        if msg.manifest is not None and state.manifest is None:
            if self._try_accept_manifest(msg.origin, msg.round, state, msg.manifest):
                # A late manifest can unblock this clan member's ECHO.
                self._maybe_echo(msg.origin, msg.round, state)
        chunk = msg.chunk
        if chunk is None:
            return
        if chunk.proposer != msg.origin or chunk.round != msg.round:
            return
        self._accept_chunk(msg.origin, msg.round, chunk)

    # -- housekeeping ---------------------------------------------------------------

    def gc_below(self, round_: Round) -> None:
        """Garbage-collect retrieval state for instances with round < ``round_``.

        Called by the node as its commit frontier advances; pull-client
        entries (with their retry timers) and pull-server rate-limit records
        for long-committed rounds would otherwise accumulate forever."""
        self._block_retriever.gc_below(round_)
        self._vertex_retriever.gc_below(round_)
        self._block_responder.gc_below(round_)
        self._vertex_responder.gc_below(round_)
        for key in [k for k in self._chunk_fetch if k[1] < round_]:
            timer = self._chunk_fetch.pop(key)["timer"]
            if timer is not None:
                timer.cancel()
        self._chunk_served = {m for m in self._chunk_served if m[1] >= round_}

    def suspend_timers(self) -> None:
        """Crash: stop all local retry timers (no requests from the grave)."""
        self._block_retriever.suspend()
        self._vertex_retriever.suspend()
        if self.core.optimistic:
            for state in self.instances.values():
                self._cancel_timer(state)
        for entry in self._chunk_fetch.values():
            if entry["timer"] is not None:
                entry["timer"].cancel()
                entry["timer"] = None

    def resume_timers(self) -> None:
        """Recovery: restart suspended pulls."""
        self._block_retriever.resume()
        self._vertex_retriever.resume()
        if self.core.optimistic:
            # A recovering node has no idea how long it was down; give up on
            # the fast path for every instance that was in flight.
            for key in sorted(self.instances):
                state = self.instances[key]
                if state.delivered or state.pessimistic:
                    continue
                if state.vertex is not None or state.echoes:
                    self._apply(
                        key[0], key[1], state, self.core.fall_back(state, "timeout")
                    )
        for key in sorted(self._chunk_fetch):
            if key in self._chunk_fetch:
                self._request_chunks(key)

    def _lookup_block(self, origin: NodeId, round_: Round) -> Block | None:
        state = self.instances.get((origin, round_))
        return state.block if state else None

    def _lookup_vertex(self, origin: NodeId, round_: Round) -> Vertex | None:
        state = self.instances.get((origin, round_))
        return state.vertex if state else None
