"""Simulated digital signatures with a PKI.

A :class:`Signature` is a keyed tag over a message digest.  Signing requires
the signer's secret key; :class:`Pki` verification recomputes the tag.  Within
the simulation this gives real unforgeability: Byzantine parties can replay
signatures they observed, but cannot mint a signature for a message an honest
party never signed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from ..errors import CryptoError
from ..types import NodeId


#: Bound of each :class:`Pki`'s memo of valid tags.
TAG_CACHE_SIZE = 16384


def _tag(secret: bytes, message_digest: bytes) -> bytes:
    return hashlib.sha256(secret + message_digest).digest()[:16]


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature by ``signer`` over ``message_digest``."""

    signer: NodeId
    message_digest: bytes
    tag: bytes


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A party's signing key.  ``secret`` never travels on the wire."""

    node_id: NodeId
    secret: bytes

    def sign(self, message_digest: bytes) -> Signature:
        """Sign a 32-byte message digest."""
        if not isinstance(message_digest, bytes):
            raise CryptoError("can only sign byte digests")
        return Signature(self.node_id, message_digest, _tag(self.secret, message_digest))


class Pki:
    """Key registry for ``n`` parties; issues keys and verifies signatures.

    >>> pki = Pki(4, seed=7)
    >>> sig = pki.key(1).sign(b"x" * 32)
    >>> pki.verify(sig)
    True
    >>> forged = Signature(2, b"x" * 32, sig.tag)
    >>> pki.verify(forged)
    False
    """

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 1:
            raise CryptoError(f"PKI needs at least one party, got {n}")
        self.n = n
        self._keys = [
            KeyPair(i, hashlib.sha256(f"repro-key:{seed}:{i}".encode()).digest())
            for i in range(n)
        ]
        # Every quorum checker re-verifies the same (signer, digest) pairs —
        # one ECHO digest is checked by n receivers and again inside each
        # aggregate — so valid tags are memoized.  The LRU bound keeps memory
        # flat over long runs; the cache is per-Pki, so distinct deployments
        # (different seeds) never share entries.
        self._tag_cache = lru_cache(maxsize=TAG_CACHE_SIZE)(self._compute_tag)

    def _compute_tag(self, signer: NodeId, message_digest: bytes) -> bytes:
        return _tag(self._keys[signer].secret, message_digest)

    def key(self, node_id: NodeId) -> KeyPair:
        """The signing key of ``node_id`` (handed only to that node's logic)."""
        if not 0 <= node_id < self.n:
            raise CryptoError(f"unknown party {node_id}")
        return self._keys[node_id]

    def verify(self, sig: Signature) -> bool:
        """Check that ``sig`` was produced with the signer's secret key."""
        if not 0 <= sig.signer < self.n:
            return False
        return self._tag_cache(sig.signer, sig.message_digest) == sig.tag

    def expected_tag(self, signer: NodeId, message_digest: bytes) -> bytes:
        """Recompute the valid tag for (signer, digest) — used by BLS checks."""
        if not 0 <= signer < self.n:
            raise CryptoError(f"unknown party {signer}")
        return self._tag_cache(signer, message_digest)
