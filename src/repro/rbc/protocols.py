"""Standalone reliable broadcast of an opaque payload, over :class:`RbcCore`.

One adapter, :class:`RbcProtocol`, carries a payload (``bytes`` or any object
with ``wire_size()``/``payload_digest()``) for every completion mode of
:mod:`repro.rbc.core`; the five protocols below only fix its mode and
membership:

* :class:`BrachaRbc` — classic 3-round Bracha, payload to everyone.
* :class:`TwoRoundRbc` — Abraham et al.'s round-optimal RBC with signed ECHOs
  and certificates, payload to everyone.
* :class:`TribeBrachaRbc` — the paper's Fig. 2, signature-free and
  tribe-assisted.
* :class:`TribeTwoRoundRbc` — the paper's Fig. 3, two rounds with the
  ``EC_r(m)`` certificate.
* :class:`OptimisticRbc` — the signature-free all-n fast path over Fig. 2.

The adapter owns what the core leaves out: the sender sends ⟨VAL, m, r⟩ to
clan members and ⟨VAL, H(m), r⟩ to the rest; a clan member ECHOs only once it
holds m (so f_c+1 clan ECHOs certify an honest holder), everyone else on the
digest alone; signatures are checked here; and a clan member that reaches
delivery without m pulls it (:mod:`repro.rbc.retrieval`) from the clan
members that vouched for it — its ECHOers (Bracha modes) or the
certificate's clan signers (two-round modes) — starting as soon as the ECHO
quorum forms (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto.certificates import QuorumCertificate, build_certificate, verify_certificate
from ..crypto.hashing import digest as compute_digest
from ..crypto.signatures import Pki
from ..errors import BroadcastError
from ..net.network import Network
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .base import Delivery, DeliverFn, InstanceKey, Membership, payload_digest
from .adapter import RbcAdapter
from .core import RbcCore, RbcInstance
from .messages import (
    CertMsg,
    EchoMsg,
    PayloadRequest,
    PayloadResponse,
    ReadyMsg,
    ValMsg,
)
from .retrieval import Responder, Retriever


def echo_statement(origin: NodeId, round_: Round, digest_: bytes) -> bytes:
    """The statement an ECHO signature covers."""
    return compute_digest(b"ECHO", origin, round_, digest_)


def val_statement(origin: NodeId, round_: Round, digest_: bytes) -> bytes:
    """The statement the sender's VAL signature covers."""
    return compute_digest(b"VAL", origin, round_, digest_)


@dataclass
class InstanceState(RbcInstance):
    """Per-(origin, round) state of a payload RBC instance."""

    #: Full payloads received (via VAL or pull), keyed by digest.
    payloads: dict[bytes, Any] = field(default_factory=dict)
    echoed: bool = False
    # Phase timestamps, populated only when tracing is enabled: first VAL
    # seen, own ECHO sent, own READY sent.
    val_at: float | None = None
    echo_at: float | None = None
    ready_at: float | None = None


class RbcProtocol(RbcAdapter):
    """Per-node payload RBC module: instances keyed by ``(origin, round)``.

    Subclasses fix :attr:`mode`, the :class:`RbcCore` completion mode, and
    add what it needs: the two-round mode a PKI, the optimistic mode its
    fallback timeout.
    """

    mode = "bracha"

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        on_deliver: DeliverFn,
        retry_timeout: float = 0.5,
        register: bool = True,
        tracer=None,
    ) -> None:
        self.core = RbcCore(membership.n, self.mode)
        self.node_id = node_id
        self.membership = membership
        self.network = network
        self.sim = sim
        self.on_deliver = on_deliver
        #: Defaults to the network's tracer so RBC spans and net.hop records
        #: land in the same trace without extra wiring.
        self.tracer = tracer if tracer is not None else network.tracer
        #: Signing keys, set by the two-round subclasses.
        self.pki: Pki | None = None
        self._key = None
        self.instances: dict[InstanceKey, InstanceState] = {}
        self.deliveries: list[Delivery] = []
        self.in_clan = node_id in membership.clan
        self._clan_quorum = self.core.clan_quorum(membership.clan)
        self._retriever = Retriever(
            node_id, network, sim, self._on_pulled_payload, retry_timeout
        )
        self._responder = Responder(node_id, network, self._lookup_payload)
        #: Instances certified while this clan member lacked the payload,
        #: mapped to the certified digest.
        self._awaiting: dict[InstanceKey, bytes] = {}
        if register:
            network.register(node_id, self.on_message)

    def instance(self, origin: NodeId, round_: Round) -> InstanceState:
        key = (origin, round_)
        state = self.instances.get(key)
        if state is None:
            state = self.instances[key] = InstanceState(
                clan=self.membership.clan, clan_quorum=self._clan_quorum
            )
        return state

    def delivered(self, origin: NodeId, round_: Round) -> bool:
        state = self.instances.get((origin, round_))
        return bool(state and state.delivered)

    def is_pessimistic(self, origin: NodeId, round_: Round) -> bool:
        state = self.instances.get((origin, round_))
        return bool(state and state.pessimistic)

    # -- sending ----------------------------------------------------------------

    def broadcast(self, payload: Any, round_: Round) -> None:
        """``r_bcast``: disseminate ``payload`` as this node, in ``round_``."""
        digest_ = payload_digest(payload)
        if self.tracer.enabled:
            self.tracer.counter(
                "rbc.propose", node=self.node_id, round=round_, time=self.sim.now
            )
        signature = None
        if self._key is not None:
            signature = self._key.sign(val_statement(self.node_id, round_, digest_))
        clan = self.membership.clan
        in_clan = [p for p in self.membership.all_parties if p in clan]
        outside = [p for p in self.membership.all_parties if p not in clan]
        self.network.multicast(
            self.node_id, in_clan, ValMsg(self.node_id, round_, digest_, payload, signature)
        )
        if outside:
            self.network.multicast(
                self.node_id, outside, ValMsg(self.node_id, round_, digest_, None, signature)
            )

    # -- receiving --------------------------------------------------------------

    def on_message(self, src: NodeId, msg: Any) -> None:
        """Network entry point."""
        if isinstance(msg, ValMsg):
            self._on_val(src, msg)
        elif isinstance(msg, EchoMsg):
            self._on_echo(src, msg)
        elif isinstance(msg, ReadyMsg) and not self.core.two_round:
            self._on_ready(src, msg)
        elif isinstance(msg, CertMsg) and self.core.two_round:
            self._on_cert(src, msg)
        elif isinstance(msg, PayloadRequest):
            self._responder.on_request(src, msg)
        elif isinstance(msg, PayloadResponse):
            self._retriever.on_response(src, msg)
        else:
            raise BroadcastError(f"unexpected message {type(msg).__name__}")

    def _on_val(self, src: NodeId, msg: ValMsg) -> None:
        if src != msg.origin:
            return  # authenticated channels: VAL must come from its origin
        if self._key is not None:
            sig = msg.signature
            if sig is None or not self.pki.verify(sig):
                return
            if sig.message_digest != val_statement(msg.origin, msg.round, msg.digest):
                return
            if sig.signer != msg.origin:
                return
        state = self.instance(msg.origin, msg.round)
        # The fast-path timer is armed before the payload is validated.
        acts = self.core.touch(state)
        if acts is not None:
            self._apply(msg.origin, msg.round, state, acts)
        if self.tracer.enabled and state.val_at is None:
            state.val_at = self.sim.now
        digest_ = msg.digest
        if msg.payload is not None:
            if payload_digest(msg.payload) != digest_:
                return  # malformed: advertised digest does not match payload
            state.payloads.setdefault(digest_, msg.payload)
        acts = self.core.val(state, digest_)
        if state.val_digest != digest_:
            if acts is not None:
                self._apply(msg.origin, msg.round, state, acts)
            return  # equivocation: honour only the first VAL
        if state.echoed:
            self._maybe_complete(msg.origin, msg.round, state)
            return
        if self.in_clan and digest_ not in state.payloads:
            return  # clan members vouch only for values they hold
        state.echoed = True
        if self.tracer.enabled:
            state.echo_at = self.sim.now
            self._span("rbc.val_to_echo", state.val_at, msg.origin, msg.round)
        signature = None
        if self._key is not None:
            signature = self._key.sign(echo_statement(msg.origin, msg.round, digest_))
        self.network.broadcast(
            self.node_id, EchoMsg(msg.origin, msg.round, digest_, signature)
        )

    def _on_echo(self, src: NodeId, msg: EchoMsg) -> None:
        if self._key is not None:
            sig = msg.signature
            if sig is None or sig.signer != src:
                return
            if sig.message_digest != echo_statement(msg.origin, msg.round, msg.digest):
                return
            if not self.pki.verify(sig):
                return
        state = self.instance(msg.origin, msg.round)
        acts = self.core.echo(state, src, msg.digest, msg.signature)
        if acts is not None:
            self._apply(msg.origin, msg.round, state, acts)

    def _on_ready(self, src: NodeId, msg: ReadyMsg) -> None:
        state = self.instance(msg.origin, msg.round)
        acts = self.core.ready(state, src, msg.digest)
        if acts is not None:
            self._apply(msg.origin, msg.round, state, acts)

    def _on_cert(self, src: NodeId, msg: CertMsg) -> None:
        state = self.instance(msg.origin, msg.round)
        if state.delivered:
            return
        if not verify_certificate(
            self.pki,
            msg.cert,
            quorum=self.core.quorum,
            clan=self.membership.clan,
            clan_quorum=self._clan_quorum,
        ):
            return
        if msg.cert.message_digest != echo_statement(msg.origin, msg.round, msg.digest):
            return
        acts = self.core.cert(state, msg.digest)
        self._apply(msg.origin, msg.round, state, acts, msg)

    # -- adapter hooks ----------------------------------------------------------

    def _send_ready(self, origin: NodeId, round_: Round, state, digest_: bytes) -> None:
        # The totality READY follows delivery and opens no phase span.
        if self.tracer.enabled and not state.delivered:
            state.ready_at = self.sim.now
            start = state.echo_at if state.echo_at is not None else state.val_at
            self._span("rbc.echo_to_ready", start, origin, round_)
        self.network.broadcast(self.node_id, ReadyMsg(origin, round_, digest_))

    def _send_cert(self, origin: NodeId, round_: Round, state, digest_: bytes):
        cert = build_certificate(list(state.echo_sigs[digest_].values()))
        self.network.broadcast(
            self.node_id, CertMsg(origin, round_, digest_, cert, self.membership.n)
        )
        return cert

    def _fetch(self, origin: NodeId, round_: Round, state, digest_: bytes) -> None:
        if self.in_clan and digest_ not in state.payloads and not state.delivered:
            self._retriever.fetch(
                origin, round_, digest_, self._clan_holders(state.echoes[digest_])
            )

    def _clan_holders(self, parties) -> list[NodeId]:
        clan = self.membership.clan
        return [p for p in parties if p in clan]

    # -- delivery and retrieval -------------------------------------------------

    def _certified(
        self,
        origin: NodeId,
        round_: Round,
        state: InstanceState,
        digest_: bytes,
        cert: QuorumCertificate | None,
    ) -> None:
        if state.delivered:
            return
        if not self.in_clan or digest_ in state.payloads:
            self._deliver(origin, round_, state, digest_)
            return
        # Clan member without the value: pull it from the clan members that
        # vouched for it.  With no holder known yet, a later ECHO quorum
        # starts the pull (FETCH).
        self._awaiting[(origin, round_)] = digest_
        holders = self._clan_holders(
            cert.signers if cert is not None else state.echoes.get(digest_, ())
        )
        if holders:
            self._retriever.fetch(origin, round_, digest_, holders)

    def _maybe_complete(self, origin: NodeId, round_: Round, state: InstanceState) -> None:
        """Deliver if the instance was certified before the payload arrived."""
        digest_ = self._awaiting.get((origin, round_))
        if digest_ is not None and digest_ in state.payloads and not state.delivered:
            del self._awaiting[(origin, round_)]
            self._deliver(origin, round_, state, digest_)

    def _on_pulled_payload(self, origin: NodeId, round_: Round, payload: Any) -> None:
        state = self.instance(origin, round_)
        digest_ = payload_digest(payload)
        state.payloads.setdefault(digest_, payload)
        if self._awaiting.get((origin, round_)) == digest_ and not state.delivered:
            del self._awaiting[(origin, round_)]
            self._deliver(origin, round_, state, digest_)

    def _lookup_payload(self, origin: NodeId, round_: Round) -> Any | None:
        state = self.instances.get((origin, round_))
        if state is None or not state.payloads:
            return None
        if state.val_digest is not None and state.val_digest in state.payloads:
            return state.payloads[state.val_digest]
        return next(iter(state.payloads.values()))

    def _deliver(
        self, origin: NodeId, round_: Round, state: InstanceState, digest_: bytes
    ) -> None:
        """Invoke r_deliver exactly once (Integrity)."""
        if not self.core.deliver(state):
            return
        self._cancel_timer(state)
        payload = state.payloads.get(digest_)
        delivery = Delivery(origin, round_, payload, digest_, payload is not None)
        self.deliveries.append(delivery)
        if self.tracer.enabled:
            # Bracha-style instances end with ready→deliver, two-round ones
            # (no READY phase) with echo→deliver; rbc.e2e runs from the first
            # VAL (from delivery itself if the VAL never came).
            if state.ready_at is not None:
                self._span("rbc.ready_to_deliver", state.ready_at, origin, round_)
            elif state.echo_at is not None:
                self._span("rbc.echo_to_deliver", state.echo_at, origin, round_)
            self._span("rbc.e2e", state.val_at, origin, round_)
        self.on_deliver(delivery)

    def _span(self, name: str, start: float | None, origin: NodeId, round_: Round) -> None:
        """A phase span ending now (starting now if ``start`` is None)."""
        now = self.sim.now
        self.tracer.span(
            name, start=now if start is None else start, end=now,
            node=self.node_id, origin=origin, round=round_,
        )


class TribeBrachaRbc(RbcProtocol):
    """The paper's Fig. 2: signature-free tribe-assisted RBC, three rounds.

    READY needs 2f+1 ECHOs with at least f_c+1 from the clan; f+1 READYs
    amplify; 2f+1 READYs deliver m to clan members and H(m) to the rest.
    """

    mode = "bracha"


class OptimisticRbc(RbcProtocol):
    """Signature-free optimistic RBC: delivers after VAL+ECHO (2δ) when all
    n parties ECHO one digest, else falls back to the Fig. 2 READY path on a
    conflicting digest, on timeout, or on any READY (Shrestha/Losa/Yu).

    Safety: delivering d on all-n ECHOs means every honest party echoed d,
    and parties echo at most once, so no conflicting digest can gather an
    ECHO (hence READY) quorum.  Totality: parties that miss the all-n
    condition fall back by timer, and the 2f+1 honest ECHOs they share
    complete the READY path; fast-path deliverers answer READYs with their
    own.
    """

    mode = "optimistic"

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        on_deliver: DeliverFn,
        retry_timeout: float = 0.5,
        fallback_timeout: float = 0.5,
        register: bool = True,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, sim, on_deliver, retry_timeout,
            register=register, tracer=tracer,
        )
        #: How long an instance waits for the all-n ECHO agreement (armed on
        #: its first VAL or ECHO) before switching to the READY path.  Pick
        #: it above one retransmission round-trip of the transport so loss
        #: the reliable channel can mask does not force a fallback.
        self.fallback_timeout = fallback_timeout


class TribeTwoRoundRbc(RbcProtocol):
    """The paper's Fig. 3: two-round tribe-assisted RBC.

    2f+1 signed ECHOs with at least f_c+1 from the clan form the certificate
    EC_r(m) (a BLS multi-signature plus signer bitmap), which is multicast
    and delivers; receiving a valid EC_r(m) delivers too.
    """

    mode = "two-round"

    def __init__(
        self,
        node_id: NodeId,
        membership: Membership,
        network: Network,
        sim: Simulator,
        pki: Pki,
        on_deliver: DeliverFn,
        retry_timeout: float = 0.5,
        register: bool = True,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, membership, network, sim, on_deliver, retry_timeout,
            register=register, tracer=tracer,
        )
        self.pki = pki
        self._key = pki.key(node_id)


class BrachaRbc(TribeBrachaRbc):
    """Classic Bracha RBC over a tribe of ``n``: Fig. 2 with the whole tribe
    as the clan, so the clan condition collapses into the plain 2f+1.  The
    primitive existing DAG BFT protocols build on."""

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        network: Network,
        sim: Simulator,
        on_deliver: DeliverFn,
        register: bool = True,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, Membership.whole_tribe(n), network, sim, on_deliver,
            register=register, tracer=tracer,
        )


class TwoRoundRbc(TribeTwoRoundRbc):
    """Round-optimal RBC of Abraham et al. over a tribe of ``n``: Fig. 3 with
    the whole tribe as the clan.  The RBC the paper's Sailfish uses."""

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        network: Network,
        sim: Simulator,
        pki: Pki,
        on_deliver: DeliverFn,
        register: bool = True,
        tracer=None,
    ) -> None:
        super().__init__(
            node_id, Membership.whole_tribe(n), network, sim, pki, on_deliver,
            register=register, tracer=tracer,
        )
