"""Running an :class:`~repro.rbc.core.RbcCore` on a node: the shared adapter.

:class:`RbcAdapter` performs the core's actions in order and owns the
optimistic fallback timers.  Its two subclasses differ only in what an
instance carries — an opaque payload
(:class:`~repro.rbc.protocols.RbcProtocol`) or a vertex plus the proposer's
block (:class:`~repro.consensus.vertex_rbc.VertexRbc`) — and so supply the
payload-specific hooks:

* ``_send_ready(origin, round_, state, digest)`` — multicast READY;
* ``_send_cert(origin, round_, state, digest)`` — build, multicast and
  return the certificate from ``state.echo_sigs[digest]``;
* ``_fetch(origin, round_, state, digest)`` — the ECHO quorum certifies
  honest clan holders: start pulling a missing payload;
* ``_certified(origin, round_, state, digest, cert)`` — a quorum certified
  ``digest`` (``cert`` is the two-round certificate, else ``None``): deliver
  through ``core.deliver`` once the payload is at hand, pulling it if not.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..types import NodeId, Round
from .core import ARM, CERT, DELIVER, FALLBACK, FETCH, FORWARD, READY, Action, RbcCore


class RbcAdapter:
    """Base for a per-node RBC module driven by an :class:`RbcCore`.

    Subclasses set ``node_id``, ``network``, ``sim``, ``tracer``, ``core``
    and ``instances`` (plus ``fallback_timeout`` when the core is
    optimistic) and implement the hooks above.
    """

    core: RbcCore
    fallback_timeout: float

    @property
    def fast_deliveries(self) -> int:
        """Optimistic mode: deliveries on the all-n fast path."""
        return self.core.fast_deliveries

    @property
    def fallback_deliveries(self) -> int:
        """Optimistic mode: deliveries after a fallback."""
        return self.core.fallback_deliveries

    @property
    def fallbacks(self) -> dict[str, int]:
        """Optimistic mode: fallback counts by reason."""
        return self.core.fallbacks

    def _apply(
        self,
        origin: NodeId,
        round_: Round,
        state,
        acts: Iterable[Action],
        cert_msg: Any = None,
    ) -> None:
        """Perform the core's actions for one instance, in order.

        ``cert_msg`` is the certificate message being handled, if any."""
        cert = cert_msg.cert if cert_msg is not None else None
        for op, arg in acts:
            if op == READY:
                self._send_ready(origin, round_, state, arg)
            elif op == FETCH:
                self._fetch(origin, round_, state, arg)
            elif op == DELIVER:
                self._certified(origin, round_, state, arg, cert)
            elif op == CERT:
                cert = self._send_cert(origin, round_, state, arg)
            elif op == FORWARD:
                self.network.broadcast(self.node_id, cert_msg)
            elif op == ARM:
                state.timer = self.sim.schedule(
                    self.fallback_timeout, self._on_fallback_timeout, origin, round_
                )
            elif op == FALLBACK:
                self._cancel_timer(state)
                if self.tracer.enabled:
                    self.tracer.counter(
                        "rbc.fallback", node=self.node_id, origin=origin,
                        round=round_, reason=arg, time=self.sim.now,
                    )

    def _on_fallback_timeout(self, origin: NodeId, round_: Round) -> None:
        state = self.instances.get((origin, round_))
        if state is None:
            return
        acts = self.core.timeout(state)
        if acts is not None:
            self._apply(origin, round_, state, acts)

    @staticmethod
    def _cancel_timer(state) -> None:
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
