"""Reliable broadcast protocols.

Every completion rule lives once, in :class:`~repro.rbc.core.RbcCore`: a
sans-IO state machine that takes one event (VAL, ECHO, READY, certificate,
timer) and returns the actions its caller performs.  Two adapters drive it,
both performing those actions through :class:`~repro.rbc.adapter.RbcAdapter`:

* :class:`~repro.rbc.protocols.RbcProtocol` broadcasts an opaque payload over
  the simulated network, multiplexing instances keyed by ``(origin, round)``.
  Five protocols fix its mode and membership:

  - :class:`BrachaRbc` — classic 3-round Bracha RBC (payload to everyone);
    the primitive existing DAG BFT builds on.
  - :class:`TwoRoundRbc` — Abraham et al.'s good-case 2-round RBC with signed
    ECHOs and certificates (payload to everyone).
  - :class:`TribeBrachaRbc` — the paper's Fig. 2: signature-free
    tribe-assisted RBC; payload only to the clan, digest to the rest, READY
    requires 2f+1 ECHOs with ≥ f_c+1 from the clan.
  - :class:`TribeTwoRoundRbc` — the paper's Fig. 3: 2-round tribe-assisted
    RBC with signed ECHOs and an ``EC_r(m)`` certificate.
  - :class:`OptimisticRbc` — signature-free optimistic fast path: delivers
    after VAL+ECHO (2δ) when all n parties echo one digest, falling back to
    the Bracha READY path on conflict, timeout, or any READY.

* :class:`~repro.consensus.vertex_rbc.VertexRbc` carries the consensus
  layer's vertex to the tribe and its block to the proposer's clan.

:mod:`repro.rbc.prefix` adds Raptr-style chunked dissemination (manifests,
chunk splitting/reassembly) used by the consensus layer's prefix commits.

Clan members that reach delivery without the payload pull it from clan
members known to hold it (:mod:`repro.rbc.retrieval`), exactly as §3 allows.
"""

from .base import Delivery, Membership
from .core import RbcCore
from .prefix import BlockChunk, ChunkManifest, assemble_prefix, split_block
from .protocols import (
    BrachaRbc,
    OptimisticRbc,
    RbcProtocol,
    TribeBrachaRbc,
    TribeTwoRoundRbc,
    TwoRoundRbc,
)

__all__ = [
    "Delivery",
    "Membership",
    "RbcCore",
    "RbcProtocol",
    "BrachaRbc",
    "TribeBrachaRbc",
    "TwoRoundRbc",
    "TribeTwoRoundRbc",
    "OptimisticRbc",
    "BlockChunk",
    "ChunkManifest",
    "assemble_prefix",
    "split_block",
]
