"""Adversarial RBC senders for fault-injection tests and benchmarks.

These helpers craft raw protocol messages directly on the network, modelling
senders that equivocate or withhold payloads.  They never touch honest-party
state, so they compose with any of the RBC modules.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..crypto.signatures import Pki
from ..errors import BroadcastError
from ..net.network import Network
from ..types import NodeId, Round
from .base import Membership, payload_digest
from .messages import ValMsg
from .protocols import RbcProtocol, val_statement


def silence(module: RbcProtocol) -> None:
    """Turn an RBC module into a silent (Byzantine-mute) party.

    The party stays on the membership roll but never echoes, readies, or
    serves pulls — the cheapest Byzantine behaviour, and the one that
    starves optimistic all-to-all fast paths.  Re-registers a drop-all
    handler because the network captured the original bound method.
    """
    def _drop(*_args, **_kwargs) -> None:
        return None

    module.broadcast = _drop
    module.on_message = _drop
    module.network.register(module.node_id, _drop)


def send_equivocating_vals(
    network: Network,
    origin: NodeId,
    round_: Round,
    assignments: dict[NodeId, Any],
    membership: Membership,
    pki: Pki | None = None,
) -> None:
    """Send different VALs to different parties (classic equivocation).

    ``assignments`` maps each recipient to the payload the Byzantine sender
    shows it.  Recipients outside the clan receive only the digest of their
    assigned payload.  With ``pki``, VALs are signed (two-round variants).
    """
    if not assignments:
        raise BroadcastError("equivocation needs at least one recipient")
    for recipient, payload in assignments.items():
        digest_ = payload_digest(payload)
        signature = None
        if pki is not None:
            signature = pki.key(origin).sign(val_statement(origin, round_, digest_))
        body = payload if recipient in membership.clan else None
        network.send(origin, recipient, ValMsg(origin, round_, digest_, body, signature))


def send_withholding_vals(
    network: Network,
    origin: NodeId,
    round_: Round,
    payload: Any,
    membership: Membership,
    receive_full: Iterable[NodeId],
    pki: Pki | None = None,
) -> None:
    """Send the payload to only ``receive_full`` clan members, digest to the rest.

    Models a Byzantine sender that starves most of the clan so they must use
    the pull path (§3's download-from-the-clan mechanism).
    """
    digest_ = payload_digest(payload)
    signature = None
    if pki is not None:
        signature = pki.key(origin).sign(val_statement(origin, round_, digest_))
    full = set(receive_full)
    unknown = full - set(membership.clan)
    if unknown:
        raise BroadcastError(f"receive_full parties {sorted(unknown)} not in clan")
    for recipient in membership.all_parties:
        body = payload if recipient in full else None
        network.send(origin, recipient, ValMsg(origin, round_, digest_, body, signature))
