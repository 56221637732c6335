"""The simulated network: NIC serialization + propagation + CPU queueing.

Delivery time of a message from ``src`` to ``dst``::

    start    = max(now, nic_free_at[src])          # outbound FIFO queue
    tx       = wire_size / bandwidth               # serialization
    arrive   = start + tx + latency(src, dst) + adversarial_extra
    handled  = max(arrive, cpu_free_at[dst]) + cpu_cost   # receive queue

The outbound NIC queue is the effect the paper's clan technique exploits: a
Sailfish proposer multicasting an ℓ-byte block to ``n-1`` peers holds its NIC
for ``(n-1)·ℓ/B`` seconds, whereas a clan proposer holds it for only
``(n_c-1)·ℓ/B``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from ..analysis import sanitizers as _sanitizers
from ..errors import NetworkError
from ..obs.tracer import NULL_TRACER
from ..sim.scheduler import Simulator
from ..types import NodeId
from .adversary import DelayAdversary
from .cpu import CpuModel
from .faults import LinkFault
from .latency import LatencyModel, UniformLatencyModel
from .message import Message

Handler = Callable[[NodeId, Message], None]


class NetworkStats:
    """Aggregate traffic counters, per node and per message kind."""

    __slots__ = (
        "bytes_sent",
        "bytes_received",
        "messages_sent",
        "messages_dropped",
        "messages_duplicated",
        "bytes_by_kind",
        "messages_by_kind",
    )

    def __init__(self, n: int) -> None:
        self.bytes_sent = [0] * n
        self.bytes_received = [0] * n
        self.messages_sent = [0] * n
        #: Copies discarded by the link fault model (wire loss, partitions).
        self.messages_dropped = 0
        #: Extra copies injected by the link fault model.
        self.messages_duplicated = 0
        self.bytes_by_kind: dict[str, int] = defaultdict(int)
        self.messages_by_kind: dict[str, int] = defaultdict(int)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent)


class Network:
    """Point-to-point simulated network connecting ``n`` registered nodes."""

    def __init__(
        self,
        sim: Simulator,
        n: int,
        latency: LatencyModel | None = None,
        bandwidth_bps: float | None = None,
        adversary: DelayAdversary | None = None,
        cpu: CpuModel | None = None,
        faults: LinkFault | None = None,
        track_kinds: bool = False,
        tracer=None,
    ) -> None:
        if n < 1:
            raise NetworkError(f"network needs at least one node, got n={n}")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise NetworkError("bandwidth must be positive")
        self.sim = sim
        self.n = n
        self.latency = latency if latency is not None else UniformLatencyModel(0.05)
        # Jitter-free latency models expose a constant per-link delay table;
        # precomputing it removes a method call per (message, destination).
        self._latency_table = self.latency.constant_delays(n)
        if self._latency_table is not None and any(
            d < 0 for row in self._latency_table for d in row
        ):
            raise NetworkError("latency model produced a negative constant delay")
        # Jittered built-in models expose their delay expression so the
        # transmit loop can inline it (one RNG draw per delivery; the inlined
        # arrival is the canonical one — see LatencyModel.jitter_params).
        self._jitter_params = (
            None if self._latency_table is not None else self.latency.jitter_params(n)
        )
        # Convert bits/s to bytes/s once; None means infinite bandwidth.
        self._bytes_per_sec = bandwidth_bps / 8.0 if bandwidth_bps else None
        self.adversary = adversary if adversary is not None else DelayAdversary()
        # The base DelayAdversary never adds delay: skip the call entirely.
        self._null_adversary = type(self.adversary) is DelayAdversary
        self.cpu = cpu
        #: Link fault model (loss/duplication/partitions); None = perfect wire.
        self.faults = faults
        self.stats = NetworkStats(n)
        self._track_kinds = track_kinds
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # At full sampling every message is traced (the pre-sampling
        # behaviour).  Below 1.0 only messages stamped with a trace_ctx are;
        # the rest skip the per-hop metadata and the `net.hop` span, which is
        # what makes 1/k head sampling affordable at benchmark event rates.
        self._trace_all = self._tracer.enabled and self._tracer.sample >= 1.0
        self._handlers: list[Handler | None] = [None] * n
        self._nic_free_at = [0.0] * n
        self._cpu_free_at = [0.0] * n
        self._crashed = [False] * n
        #: Per-node (on_crash, on_recover) callback pairs.
        self._lifecycle: dict[NodeId, list[tuple]] = defaultdict(list)
        # Freeze-after-send sanitizer (REPRO_SANITIZE=1): digests messages at
        # send, re-checks at delivery.  None (the default) costs one None
        # check per transmit/handle.
        self._freeze = _sanitizers.FreezeGuard() if _sanitizers.enabled() else None
        #: Per-node {message class: handler} tables (see :meth:`set_dispatch`).
        self._dispatch: list[dict | None] = [None] * n

    @property
    def freeze_guard(self):
        """The ``REPRO_SANITIZE=1`` freeze-after-send guard (None when off)."""
        return self._freeze

    def register(self, node_id: NodeId, handler: Handler) -> None:
        """Register the message handler for ``node_id``."""
        if not 0 <= node_id < self.n:
            raise NetworkError(f"node id {node_id} out of range (n={self.n})")
        self._handlers[node_id] = handler
        # A new handler invalidates any fast-dispatch table installed for the
        # old one; set_dispatch must be called after register.
        self._dispatch[node_id] = None

    def set_dispatch(self, node_id: NodeId, table: dict[type, Handler]) -> None:
        """Install a per-message-class fast dispatch table for ``node_id``.

        Optional: nodes that know their full message vocabulary map each
        concrete message class to its handler so the hot delivery path jumps
        straight there, skipping the catch-all handler's isinstance chain.
        Keys are exact classes (no subclass matching); messages of any other
        type fall back to the handler from :meth:`register`.  Call after
        :meth:`register` — re-registering clears the table.
        """
        if not 0 <= node_id < self.n:
            raise NetworkError(f"node id {node_id} out of range (n={self.n})")
        self._dispatch[node_id] = dict(table)

    def on_lifecycle(
        self,
        node_id: NodeId,
        on_crash: Callable[[], None] | None = None,
        on_recover: Callable[[], None] | None = None,
    ) -> None:
        """Register callbacks fired when ``node_id`` crashes / recovers.

        Crash semantics are fail-stop with *persisted* state: the process
        stops (its timers must stop firing — that is what ``on_crash`` hooks
        implement) but durable state (the DAG store) survives to ``recover``.
        """
        if not 0 <= node_id < self.n:
            raise NetworkError(f"node id {node_id} out of range (n={self.n})")
        self._lifecycle[node_id].append((on_crash, on_recover))

    def crash(self, node_id: NodeId) -> None:
        """Crash a node: it stops sending and receiving from now on.

        Idempotent; fires registered ``on_crash`` callbacks exactly once per
        transition so node-local timers are suppressed (a crashed node must
        not keep proposing or voting from beyond the grave).
        """
        if self._crashed[node_id]:
            return
        self._crashed[node_id] = True
        for on_crash, _ in self._lifecycle.get(node_id, ()):
            if on_crash is not None:
                on_crash()

    def recover(self, node_id: NodeId) -> None:
        """Undo :meth:`crash`; fires ``on_recover`` callbacks (catch-up)."""
        if not self._crashed[node_id]:
            return
        self._crashed[node_id] = False
        for _, on_recover in self._lifecycle.get(node_id, ()):
            if on_recover is not None:
                on_recover()

    def is_crashed(self, node_id: NodeId) -> bool:
        return self._crashed[node_id]

    @property
    def track_kinds(self) -> bool:
        """Whether per-message-kind stats are being collected."""
        return self._track_kinds

    @property
    def tracer(self):
        return self._tracer

    def send(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        """Send one message; delivery is scheduled on the simulator."""
        self._transmit(src, (dst,), msg)

    def multicast(self, src: NodeId, dsts: Iterable[NodeId], msg: Message) -> None:
        """Send ``msg`` to every destination; each copy occupies the NIC.

        Matches the paper's practical-RBC assumption: the sender multicasts a
        full copy to each recipient (no erasure coding), so NIC time scales
        with the recipient count.
        """
        self._transmit(src, tuple(dsts), msg)

    def broadcast(self, src: NodeId, msg: Message) -> None:
        """Multicast to all nodes, including ``src`` itself (self-delivery)."""
        self._transmit(src, range(self.n), msg)

    def _transmit(self, src: NodeId, dsts: Iterable[NodeId], msg: Message) -> None:
        # The benchmark-critical loop of the whole simulator: every send,
        # multicast and broadcast lands here.  Per-destination stats
        # increments are batched into one update at the end, and the latency
        # model's delay expression is inlined (the canonical float math and
        # RNG draw order — see LatencyModel.jitter_params).  The copies'
        # arrival times are collected and handed to the scheduler in one
        # call; `Simulator.post_many` alone decides which ride a fan-out
        # cursor.  A traced message carries its per-hop metadata
        # (dst, sent_at, nic_wait, tx, prop) as the copy's key, so tracing
        # changes what is recorded, never when anything arrives.
        if self._crashed[src]:
            return
        if self._freeze is not None:
            self._freeze.on_send(msg)
        tracer = self._tracer
        traced = tracer.enabled and (
            self._trace_all or getattr(msg, "trace_ctx", None) is not None
        )
        sim = self.sim
        now = sim.now
        size = msg.wire_size_cached()
        stats = self.stats
        tx = size / self._bytes_per_sec if self._bytes_per_sec is not None else 0.0
        faults = self.faults
        n = self.n
        crow = self._latency_table[src] if self._latency_table is not None else None
        jrow = jadd = None
        if self._jitter_params is not None:
            jmode, jdata, jit, rand = self._jitter_params
            if jmode == "mul":
                jrow = jdata[src]
            else:
                jadd = jdata
        delay = self.latency.delay
        extra_delay = None if self._null_adversary else self.adversary.extra_delay
        deliver = self._deliver if traced or self.cpu is not None else self._handle
        times: list[float] = []
        keys: list = []
        nic_free = self._nic_free_at[src]
        clock = now if now > nic_free else nic_free
        count = 0
        for dst in dsts:
            if dst == src:
                # Loopback: no NIC or propagation cost (and no wire faults),
                # but still event-driven so ordering semantics match remote
                # deliveries.
                count += 1
                times.append(now)
                keys.append((dst, now, 0.0, 0.0, 0.0) if traced else dst)
                continue
            if dst < 0 or dst >= n:
                raise NetworkError(f"destination {dst} out of range (n={n})")
            count += 1
            if traced:
                nic_wait = clock - now
            # The NIC serializes the copy whether or not the wire then loses
            # it — loss happens in the network, not at the sender.
            clock += tx
            copies = 1
            if faults is not None:
                copies = faults.copies(src, dst, msg, now)
                if copies == 0:
                    stats.messages_dropped += 1
                    if traced:
                        tracer.counter(  # repro: allow[OBS001] — traced sends only
                            "net.drop", node=src, dst=dst, kind=msg.kind(), size=size,
                        )
                    continue
                if copies > 1:
                    stats.messages_duplicated += copies - 1
            # A while loop, not range(copies): building a range object per
            # destination measurably slowed the fault-free single-copy case.
            while copies:
                copies -= 1
                # `prop` is the drawn delay plus any adversarial extra; the
                # arrival keeps its own association, (clock + delay) + extra.
                if crow is not None:
                    prop = crow[dst]
                    arrive = clock + prop
                elif jrow is not None:
                    prop = jrow[dst] * (1.0 + rand() * jit)
                    arrive = clock + prop
                elif jadd is not None:
                    draw = rand() * jit
                    arrive = clock + jadd + draw
                    prop = jadd + draw
                else:
                    prop = delay(src, dst)
                    arrive = clock + prop
                if extra_delay is not None:
                    extra = extra_delay(src, dst, msg, now)
                    arrive += extra
                    prop += extra
                times.append(arrive)
                keys.append((dst, now, nic_wait, tx, prop) if traced else dst)
        if len(times) == 1:
            sim.post(times[0], deliver, (keys[0], src, msg, size))
        elif times:
            sim.post_many(deliver, times, keys, (src, msg, size))
        if count:
            stats.bytes_sent[src] += size * count
            stats.messages_sent[src] += count
            if self._track_kinds:
                kind = msg.kind()
                stats.bytes_by_kind[kind] += size * count
                stats.messages_by_kind[kind] += count
        self._nic_free_at[src] = clock

    def _deliver(self, hop: NodeId | tuple, src: NodeId, msg: Message, size: int) -> None:
        """Arrival through the CPU receive queue and/or the ``net.hop`` span.

        ``hop`` is the destination, or for a traced message the tuple
        ``(dst, sent_at, nic_wait, tx, prop)`` from :meth:`_transmit`, which
        completes the per-hop latency decomposition of the module docstring:
        NIC-queue wait → serialization → propagation → CPU-queue wait → CPU.
        """
        traced = hop.__class__ is tuple
        dst = hop[0] if traced else hop
        if self._crashed[dst]:
            return
        if self._handlers[dst] is None:
            return
        cpu_wait = 0.0
        cost = 0.0
        done = None
        if self.cpu is not None:
            cost = self.cpu.cost(msg)
            if cost > 0.0:
                now = self.sim.now
                start = self._cpu_free_at[dst]
                if start < now:
                    start = now
                cpu_wait = start - now
                done = start + cost
                self._cpu_free_at[dst] = done
        if traced:
            _, sent_at, nic_wait, tx, prop = hop
            ctx = getattr(msg, "trace_ctx", None)
            if ctx is not None:
                self._tracer.ctx_span(
                    "net.hop",
                    start=sent_at,
                    ctx=ctx,
                    end=done if done is not None else self.sim.now,
                    node=dst,
                    src=src,
                    kind=msg.kind(),
                    size=size,
                    nic_wait=nic_wait,
                    tx=tx,
                    prop=prop,
                    cpu_wait=cpu_wait,
                    cpu=cost,
                )
            else:
                self._tracer.span(
                    "net.hop",
                    start=sent_at,
                    end=done if done is not None else self.sim.now,
                    node=dst,
                    src=src,
                    kind=msg.kind(),
                    size=size,
                    nic_wait=nic_wait,
                    tx=tx,
                    prop=prop,
                    cpu_wait=cpu_wait,
                    cpu=cost,
                )
        if done is not None:
            self.sim.post(done, self._handle, (dst, src, msg, size))
            return
        self._handle(dst, src, msg, size)

    def _handle(self, dst: NodeId, src: NodeId, msg: Message, size: int) -> None:
        """Hand a message to its node; the delivery callback of plain sends.

        Crashed destinations drop silently, and a node with no handler
        receives nothing (no stats recorded).  Nodes that installed a
        dispatch table (:meth:`set_dispatch`) skip their catch-all handler's
        isinstance chain.  Arguments lead with ``dst`` because a fan-out
        cursor calls ``fn(key, *args)`` with the destination as its key.
        """
        if self._crashed[dst]:
            return
        if self._freeze is not None:
            self._freeze.on_deliver(msg)
        table = self._dispatch[dst]
        if table is not None:
            fn = table.get(msg.__class__)
            if fn is not None:
                self.stats.bytes_received[dst] += size
                fn(src, msg)
                return
        handler = self._handlers[dst]
        if handler is None:
            return
        self.stats.bytes_received[dst] += size
        handler(src, msg)
