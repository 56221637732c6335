"""The RBC completion rules, written once, as a sans-IO state machine.

:class:`RbcCore` owns every rule that decides *when* an RBC instance
completes, for all of the protocols in this package and for the consensus
layer's merged vertex RBC (:mod:`repro.consensus.vertex_rbc`):

* per-digest ECHO and READY tallies, with duplicate suppression;
* the clan condition — 2f+1 ECHOs of which at least f_c+1 come from the clan
  (Fig. 2/3), kept as an incremental per-digest counter;
* READY on the ECHO quorum and READY amplification on f+1 READYs (Bracha);
* the two-round certificate trigger and the relay-once rule for received
  certificates (Fig. 3);
* the optimistic all-n fast path, its fallback on conflict, timeout or any
  READY, and the totality READY a fast-path deliverer owes a faller;
* delivery-once and the fast/fallback delivery statistics.

Handlers take one event and return the actions the caller must perform, in
order, as ``(op, arg)`` pairs — or ``None`` when there is nothing to do, so
the common ECHO that merely joins a tally allocates nothing.  The core holds
no network, simulator, keys or message classes: what a payload is, when a
party may ECHO, how signatures are checked and where a missing payload is
pulled from are the callers' business (the adapters in
:mod:`repro.rbc.protocols` and :mod:`repro.consensus.vertex_rbc`).

Ops and the adapter's duty for each:

``ARM``       arm the instance's fallback timer and store its handle in
              ``inst.timer`` (optimistic only; ``arg`` is ``None``).
``FALLBACK``  the instance left the fast path for reason ``arg``: cancel its
              timer.
``READY``     multicast READY for digest ``arg``.
``FETCH``     an ECHO quorum for ``arg`` certifies honest clan holders: a clan
              member missing the payload may start pulling it (§5).
``CERT``      form the certificate EC(``arg``) from ``inst.echo_sigs[arg]``
              and multicast it.
``FORWARD``   relay the certificate just received (first one only).
``DELIVER``   a quorum certified ``arg``: deliver it once the payload is at
              hand, through :meth:`RbcCore.deliver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..types import NodeId, clan_response_quorum
from .base import Membership

ARM = "arm"
FALLBACK = "fallback"
READY = "ready"
FETCH = "fetch"
CERT = "cert"
FORWARD = "forward"
DELIVER = "deliver"

Action = tuple[str, Any]

_ARM_ONLY: tuple[Action, ...] = ((ARM, None),)

#: Completion modes of the core; the prefix mode completes as ``"bracha"``.
MODES = ("bracha", "two-round", "optimistic")


@dataclass
class RbcInstance:
    """Per-(origin, round) state the completion rules read and write.

    Adapters subclass it with their payload-specific fields.  ECHO/READY
    tallies are per digest: an equivocating sender may split the parties
    across digests, and quorum checks must never mix them.
    """

    #: The clan whose ECHOs gate completion (None: no clan condition) and
    #: its f_c+1 threshold, fixed when the instance is created.
    clan: frozenset[NodeId] | None = None
    clan_quorum: int = 0
    #: Digest of the first VAL; later VALs with other digests are ignored.
    val_digest: bytes | None = None
    #: Digests of conflicting VALs (equivocation evidence for tests/forensics).
    conflicting: set[bytes] = field(default_factory=set)
    echoes: dict[bytes, set[NodeId]] = field(default_factory=dict)
    #: ECHO senders from ``clan``, per digest.
    clan_echoes: dict[bytes, int] = field(default_factory=dict)
    #: Signatures on ECHO statements, per digest (two-round only; opaque here).
    echo_sigs: dict[bytes, dict[NodeId, Any]] = field(default_factory=dict)
    readies: dict[bytes, set[NodeId]] = field(default_factory=dict)
    ready_digest: bytes | None = None
    cert_sent: bool = False
    #: The first digest a quorum certified.
    quorum_digest: bytes | None = None
    delivered: bool = False
    #: Optimistic mode: has the instance abandoned the fast path, and the
    #: caller's handle of its armed fallback timer (None when unarmed).
    pessimistic: bool = False
    timer: Any = None


class RbcCore:
    """One party's completion rules for every instance of one RBC mode."""

    def __init__(self, n: int, mode: str) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown RBC completion mode {mode!r}")
        tribe = Membership.whole_tribe(n)
        self.n = n
        self.quorum = tribe.quorum
        self.amplify = tribe.ready_amplify
        self.two_round = mode == "two-round"
        self.optimistic = mode == "optimistic"
        self._clan_quorums: dict[frozenset[NodeId], int] = {}
        self.fast_deliveries = 0
        self.fallback_deliveries = 0
        #: Fallback trigger counts by reason ("conflict"/"timeout"/"ready").
        self.fallbacks: dict[str, int] = {}

    def clan_quorum(self, clan: frozenset[NodeId]) -> int:
        """f_c+1 for ``clan``, computed once per clan."""
        quorum = self._clan_quorums.get(clan)
        if quorum is None:
            quorum = self._clan_quorums[clan] = clan_response_quorum(len(clan))
        return quorum

    # -- events ---------------------------------------------------------------

    def touch(self, inst: RbcInstance) -> tuple[Action, ...] | None:
        """Traffic for a live instance: arm its fast-path timer if unarmed."""
        if (
            self.optimistic
            and inst.timer is None
            and not inst.pessimistic
            and not inst.delivered
        ):
            return _ARM_ONLY
        return None

    def val(self, inst: RbcInstance, digest: bytes) -> list[Action] | None:
        """A VAL for ``digest``.  Only the first VAL's digest is honoured:
        after the call, ``inst.val_digest != digest`` marks an equivocation,
        which knocks an optimistic instance off the fast path."""
        if inst.val_digest is None:
            inst.val_digest = digest
            return None
        if inst.val_digest == digest:
            return None
        inst.conflicting.add(digest)
        if self.optimistic:
            return self.fall_back(inst, "conflict")
        return None

    def echo(
        self, inst: RbcInstance, src: NodeId, digest: bytes, signature: Any = None
    ) -> list[Action] | None:
        """An ECHO (with its signature, two-round) from ``src``."""
        supporters = inst.echoes.get(digest)
        if supporters is None:
            supporters = inst.echoes[digest] = {src}
        elif src in supporters:
            return None
        else:
            supporters.add(src)
        clan = inst.clan
        if clan is not None and src in clan:
            counts = inst.clan_echoes
            counts[digest] = counts.get(digest, 0) + 1
        if self.two_round:
            inst.echo_sigs.setdefault(digest, {})[src] = signature
            if inst.cert_sent:
                return None  # tally kept, but the quorum already acted
        elif self.optimistic and not inst.pessimistic:
            acts = [(ARM, None)] if inst.timer is None and not inst.delivered else None
            if len(inst.echoes) > 1 or inst.conflicting:
                more = self.fall_back(inst, "conflict")
                if more is not None:
                    acts = more if acts is None else acts + more
            elif not inst.delivered and len(supporters) == self.n:
                # Fast path: all n parties echoed one digest.  Every clan
                # member echoed only while holding the payload, and the n
                # include this party, so delivery needs no pull.
                acts = acts or []
                acts.append(self._decide(inst, digest))
            return acts
        return self._echo_quorum(inst, digest, None)

    def ready(
        self, inst: RbcInstance, src: NodeId, digest: bytes
    ) -> list[Action] | None:
        """A READY from ``src`` (Bracha-style modes; two-round has none)."""
        if self.two_round:
            return None
        acts = None
        if self.optimistic:
            if not inst.pessimistic and not inst.delivered:
                # Someone already fell back: join its READY quorum now rather
                # than waiting out the local timer.
                acts = self.fall_back(inst, "ready")
            elif inst.delivered and inst.ready_digest is None:
                # Totality: this party delivered on the fast path (no READY
                # phase), but a peer fell back and needs 2f+1 READYs.  Every
                # fast-path deliverer answers, so a lone faller completes.
                inst.ready_digest = inst.quorum_digest
                acts = [(READY, inst.quorum_digest)]
        supporters = inst.readies.get(digest)
        if supporters is None:
            supporters = inst.readies[digest] = {src}
        elif src in supporters:
            return acts
        else:
            supporters.add(src)
        count = len(supporters)
        if count >= self.amplify and inst.ready_digest is None:
            inst.ready_digest = digest
            acts = acts or []
            acts.append((READY, digest))
        if count >= self.quorum:
            acts = acts or []
            acts.append(self._decide(inst, digest))
        return acts

    def cert(self, inst: RbcInstance, digest: bytes) -> list[Action]:
        """A certificate for ``digest`` the caller has verified."""
        acts: list[Action] = []
        if not inst.cert_sent:
            # Relay once, so every honest party eventually holds it even if
            # the quorum-former was the only honest multicaster.
            inst.cert_sent = True
            acts.append((FORWARD, digest))
        acts.append(self._decide(inst, digest))
        return acts

    def timeout(self, inst: RbcInstance) -> list[Action] | None:
        """The instance's fallback timer fired."""
        inst.timer = None
        if inst.delivered or inst.pessimistic:
            return None
        return self.fall_back(inst, "timeout")

    def fall_back(self, inst: RbcInstance, reason: str) -> list[Action] | None:
        """Abandon the fast path for one instance; it completes via READY."""
        if inst.pessimistic or inst.delivered:
            return None
        inst.pessimistic = True
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        acts: list[Action] = [(FALLBACK, reason)]
        # Replay the quorum check per digest: 2f+1 may long be met while the
        # fast path was holding out for all n.
        for digest in sorted(inst.echoes):
            self._echo_quorum(inst, digest, acts)
        return acts

    def deliver(self, inst: RbcInstance) -> bool:
        """Delivery-once: True exactly the first time the caller delivers."""
        if inst.delivered:
            return False
        inst.delivered = True
        if self.optimistic:
            if inst.pessimistic:
                self.fallback_deliveries += 1
            else:
                self.fast_deliveries += 1
        return True

    # -- rules ------------------------------------------------------------------

    def _echo_quorum(
        self, inst: RbcInstance, digest: bytes, acts: list[Action] | None
    ) -> list[Action] | None:
        """2f+1 ECHOs for ``digest`` with f_c+1 from the clan: READY (Bracha)
        or the certificate (two-round)."""
        if len(inst.echoes[digest]) < self.quorum:
            return acts
        if inst.clan is not None and inst.clan_echoes.get(digest, 0) < inst.clan_quorum:
            return acts
        if acts is None:
            acts = []
        if self.two_round:
            inst.cert_sent = True
            acts.append((CERT, digest))
            acts.append(self._decide(inst, digest))
            return acts
        if inst.ready_digest is None:
            inst.ready_digest = digest
            acts.append((READY, digest))
        acts.append((FETCH, digest))
        return acts

    @staticmethod
    def _decide(inst: RbcInstance, digest: bytes) -> Action:
        if inst.quorum_digest is None:
            inst.quorum_digest = digest
        return (DELIVER, digest)
