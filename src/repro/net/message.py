"""Base message type for the simulated network.

Concrete protocol messages subclass :class:`Message` and implement
:meth:`Message.wire_size` so the NIC serializer can charge transmission time.
"""

from __future__ import annotations

from ..net import sizes


class Message:
    """Base class for all simulated network messages.

    Subclasses should set ``__slots__`` and override :meth:`wire_size`.
    """

    # ``trace_ctx`` is the causal trace context riding along with a sampled
    # message (see repro.obs.ctx).  It is wire-size-exempt by construction:
    # ``wire_size`` implementations never read it, so stamping a context
    # cannot perturb NIC serialization times — a hard requirement for traced
    # and untraced runs to stay bit-identical.  Like the memo, it is left
    # unset (AttributeError) rather than None on the common path.
    __slots__ = ("_wire_size_memo", "trace_ctx")

    def wire_size(self) -> int:
        """Size of this message on the wire, in bytes."""
        return sizes.HEADER_SIZE

    def wire_size_cached(self) -> int:
        """Per-instance memoized :meth:`wire_size`.

        The network calls this once per transmission; a multicast through the
        reliable transport (one :class:`~repro.net.transport.DataMsg` wrapper
        per destination over a shared payload) and every retransmission reuse
        the first computation.  Contract: a message's wire size is fixed once
        it has been handed to the network — all protocol layers here treat
        messages as immutable after send.
        """
        try:
            return self._wire_size_memo
        except AttributeError:
            size = self.wire_size()
            self._wire_size_memo = size
            return size

    def kind(self) -> str:
        """Short human-readable tag, used in stats and logs."""
        return type(self).__name__

