"""Deterministic discrete-event scheduler (calendar buckets + fan-out heap).

Events live in per-timestamp *buckets*: a dict maps each distinct simulated
time to the list of events scheduled for that instant, and a binary heap of
plain floats orders the timestamps themselves.  Two effects make this faster
than the classic one-entry-per-heap-item design:

* the heap compares raw floats instead of ``[time, seq, ...]`` lists, which
  is several times cheaper per sift step in CPython, and
* all events sharing a timestamp are dispatched in one batch — a single
  heap pop + dict pop — so multicast bursts that land together (loopback
  deliveries, jitter-free links) bypass the heap entirely.

Jittered multicasts defeat the batching: every copy lands at its own
instant, so an ``n``-way multicast would cost ``n`` buckets and ``n`` heap
round trips.  :meth:`Simulator.post_many` schedules such a multicast as one
*fan-out cursor* instead: its copies are sorted by arrival (stably, so equal
times keep the caller's order) and a second heap, ``_fan``, holds one entry
per in-flight multicast, advanced with ``heapreplace`` as each copy fires.

Determinism is preserved without a per-event sequence counter: execution
order is global insertion order at every instant.  Within a bucket events
run in insertion order; events scheduled *at the current instant* from
inside a callback go into a fresh bucket that is drained right after the
active one.  The fan heap keeps the same order under one invariant:

1. a copy joins a cursor only if its arrival is later than ``now`` and no
   bucket exists at that instant when it is sent (otherwise it is appended
   to the bucket, behind everything already there) — :meth:`post_many`
   alone makes that placement, and
2. at equal time, every fan delivery runs before any bucket event; fan
   deliveries at the same instant run by (multicast sequence, caller order).

Every fan entry at time ``t`` was therefore inserted before any bucket at
``t`` existed, so rule 2 reproduces insertion order exactly.

The hot path (``post`` + ``run``) is deliberately lean — benchmark runs push
millions of message-delivery events through it.  Tracing adds no per-event
work: the run loop is wrapped (not instrumented inside), and the per-run
``sim.run`` span carries event counts and wall-clock per simulated second.

Cancelled events stay in their bucket (O(1) cancellation) but are *compacted*
away once they dominate: timer-heavy workloads (one leader timer per node per
round, almost always cancelled) would otherwise pay a per-dead-entry skip in
the run loop and hold the dead args alive.  Fan-out copies are never
cancellable.
"""

from __future__ import annotations

import heapq
import time as _time
from operator import length_hint
from typing import Any, Callable

from ..analysis import sanitizers as _sanitizers
from ..errors import SimulationError
from ..obs.tracer import NULL_TRACER


class EventHandle:
    """Handle to a scheduled event; allows cancellation.

    Cancellation is O(1): the entry stays in its bucket but its callback is
    cleared, and the run loop skips it.  The owning simulator counts
    cancellations so it can compact the calendar when dead entries dominate.
    """

    __slots__ = ("_when", "_entry", "_sim")

    def __init__(self, when: float, entry: list, sim: "Simulator | None" = None) -> None:
        self._when = when
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        """Simulated time at which the event fires (or would have fired)."""
        return self._when

    @property
    def cancelled(self) -> bool:
        return self._entry[0] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._entry[0] is None:
            return
        self._entry[0] = None
        self._entry[1] = ()
        if self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        tracer: optional :class:`repro.obs.Tracer`; when enabled, each
            ``run()`` call emits a ``sim.run`` span with event counts and
            wall-clock attribution.  Disabled cost: one attribute check per
            ``run()`` call (never per event).
        compact_threshold: once at least this many cancelled entries are
            pending *and* they make up half the calendar, the buckets are
            rebuilt without them.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = (
        "_now",
        "_times",
        "_buckets",
        "_fan",
        "_fan_seq",
        "_compact_check",
        "_stopped",
        "_processed",
        "_cancelled",
        "_compact_threshold",
        "_compactions",
        "_tracer",
        "_audit",
    )

    def __init__(self, tracer=None, compact_threshold: int = 1024) -> None:
        self._now = 0.0
        #: Min-heap of distinct timestamps; exactly one heap entry per bucket.
        self._times: list[float] = []
        #: timestamp -> list of events at that instant, in insertion order.
        #: ``schedule_at`` inserts cancellable ``[fn, args]`` lists; ``post``
        #: inserts bare ``(fn, args)`` tuples (no handle, no cancellation).
        self._buckets: dict[float, list] = {}
        #: Min-heap of fan-out cursors, one per in-flight multicast (see
        #: :meth:`post_many`).  Each cursor is a list ``[when, seq, later
        #: times, keys, fn, args]``, updated in place as it advances.
        self._fan: list[list] = []
        self._fan_seq = 0
        self._stopped = False
        self._processed = 0
        self._cancelled = 0
        self._compact_threshold = compact_threshold
        # Next _cancelled value at which the compaction heuristic re-checks;
        # doubled on every failed check so counting pending entries (an
        # O(buckets) sum — there is deliberately no per-insert counter on the
        # hot path) stays amortized O(1) per cancellation.
        self._compact_check = compact_threshold
        self._compactions = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # One simulator = one run: creating it is the sanitizer run boundary.
        # Off (the default), _audit is None and scheduling pays one None
        # check; on, every (time, callback) insertion feeds the tie auditor.
        if _sanitizers.enabled():
            _sanitizers.begin_run()
            self._audit = _sanitizers.TieAudit()
        else:
            self._audit = None

    @property
    def tie_audit(self):
        """The ``REPRO_SANITIZE=1`` tie-order auditor (None when off)."""
        return self._audit

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def tracer(self):
        return self._tracer

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events.

        Computed on demand: the insertion path deliberately maintains no
        counter (millions of inserts per run, rare reads of this property).
        """
        return sum(len(bucket) for bucket in self._buckets.values()) + sum(
            length_hint(cursor[3]) for cursor in self._fan
        )

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying their buckets."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Times the calendar was rebuilt to shed cancelled entries."""
        return self._compactions

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        entry = [fn, args]
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [entry]
            heapq.heappush(self._times, when)
        else:
            bucket.append(entry)
        if self._audit is not None:
            self._audit.note(when, fn)
        return EventHandle(when, entry, self)

    def post(self, when: float, fn: Callable[..., Any], args: tuple) -> None:
        """Hot-path variant of :meth:`schedule_at`: no handle, no cancellation.

        Used by the network for unicast deliveries (hundreds of thousands
        per run); the EventHandle and entry-list allocations of
        :meth:`schedule_at` are measurable there.  Multicasts go through
        :meth:`post_many`.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(fn, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((fn, args))
        if self._audit is not None:
            self._audit.note(when, fn)

    def post_many(
        self, fn: Callable[..., Any], times: list[float], keys: list, args: tuple
    ) -> None:
        """Schedule ``fn(keys[i], *args)`` at ``times[i]`` for every ``i``.

        Takes every copy of one transmit and places each under the tie
        invariant of the module docstring, in caller order: a copy whose
        instant already has a bucket is appended to it, one at :attr:`now`
        opens a bucket, and later ones join a single fan-out cursor (sorted
        stably by time, so equal times keep their order in ``keys``).  A
        cursor of one copy becomes a plain bucket entry, and a copy before
        :attr:`now` raises :class:`SimulationError`.  Per cursor copy
        only a float and a key are held — no event tuple — which keeps wide
        multicasts cheap for the allocator and the garbage collector alike.
        """
        if self._audit is not None:
            for when in times:
                self._audit.note(when, fn)
        now = self._now
        buckets = self._buckets
        fan_times = []
        fan_keys = []
        for when, key in zip(times, keys):
            bucket = buckets.get(when)
            if bucket is not None:
                bucket.append((fn, (key, *args)))
            elif when > now:
                fan_times.append(when)
                fan_keys.append(key)
            elif when < now:
                raise SimulationError(
                    f"cannot schedule at t={when} before current time t={now}"
                )
            else:
                buckets[when] = [(fn, (key, *args))]
                heapq.heappush(self._times, when)
        if len(fan_times) > 1:
            order = sorted(range(len(fan_times)), key=fan_times.__getitem__)
            fan_times.sort()
            self._fan_seq += 1
            rest = iter(fan_times)
            heapq.heappush(
                self._fan,
                [next(rest), self._fan_seq, rest, iter([fan_keys[i] for i in order]), fn, args],
            )
        elif fan_times:
            # No bucket can have appeared at a lone cursor copy's instant:
            # a later copy landing there would have joined the cursor too.
            when = fan_times[0]
            buckets[when] = [(fn, (fan_keys[0], *args))]
            heapq.heappush(self._times, when)

    def stop(self) -> None:
        """Make :meth:`run` return after the current event finishes."""
        self._stopped = True

    def _note_cancelled(self) -> None:
        """Called by :class:`EventHandle` when an entry is cancelled."""
        self._cancelled += 1
        if self._cancelled < self._compact_check:
            return
        # Compact once dead entries make up at least half the calendar;
        # otherwise double the re-check point so the pending count (an
        # O(buckets) sum) is amortized O(1) per cancellation.
        if self._cancelled * 2 >= self.pending_events:
            self._compact()
        else:
            self._compact_check = self._cancelled * 2

    def _compact(self) -> None:
        """Drop cancelled entries from every queued bucket (O(live) instead
        of O(dead) skips in the run loop).

        Mutates ``_times`` in place (slice assignment) on purpose: the run
        loop holds a local alias, and cancellations — hence compactions —
        can happen inside an event callback while the loop is mid-iteration.
        The bucket currently being drained is *not* in the dict (the loop
        pops it first), so it is never touched here; its dead entries are
        skipped by the loop itself.
        """
        buckets = self._buckets
        emptied = []
        for when, bucket in buckets.items():
            live = [entry for entry in bucket if entry[0] is not None]
            if len(live) != len(bucket):
                if live:
                    bucket[:] = live
                else:
                    emptied.append(when)
        for when in emptied:
            del buckets[when]
        if emptied:
            self._times[:] = list(buckets)
            heapq.heapify(self._times)
        self._cancelled = 0
        self._compact_check = self._compact_threshold
        self._compactions += 1

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in time order.

        Args:
            until: stop once simulated time would exceed this instant; the
                clock is advanced to ``until`` exactly.  Events at ``until``
                itself are executed.
            max_events: safety valve — raise :class:`SimulationError` if more
                than this many events execute (runaway-protocol guard).
        """
        tracer = self._tracer
        if not tracer.enabled:
            self._run_loop(until, max_events)
            return
        wall_start = _time.perf_counter()
        sim_start = self._now
        processed_before = self._processed
        try:
            self._run_loop(until, max_events)
        finally:
            wall = _time.perf_counter() - wall_start
            executed = self._processed - processed_before
            advanced = self._now - sim_start
            tracer.span(
                "sim.run",
                start=sim_start,
                end=self._now,
                events=executed,
                wall_s=round(wall, 6),
                wall_per_sim_s=round(wall / advanced, 6) if advanced > 0 else None,
                events_per_wall_s=round(executed / wall) if wall > 0 else None,
                pending=self.pending_events,
            )

    def _requeue(self, when: float, rest: list) -> None:
        """Return the unexecuted tail of the active bucket to the calendar.

        Called when :meth:`stop` or the ``max_events`` valve interrupts a
        bucket mid-drain.  Events the callbacks scheduled at ``when`` while
        the bucket was being drained live in a *newer* bucket (the active one
        was popped from the dict first); the tail is prepended so the overall
        order — old entries before new — survives the interruption.
        """
        if not rest:
            return
        newer = self._buckets.get(when)
        if newer is None:
            self._buckets[when] = rest
            heapq.heappush(self._times, when)
        else:
            self._buckets[when] = rest + newer

    def _run_loop(self, until: float | None, max_events: int | None) -> None:
        # The loop bodies below are deliberately duplicated per (until,
        # max_events) combination: benchmark runs execute millions of events,
        # and hoisting the two `is not None` checks out of the loop is a
        # measurable fraction of per-event overhead.  Entries are indexed
        # rather than unpacked so cancelled entries (timer-heavy workloads)
        # skip without touching their dead args.  The active bucket is popped
        # from the dict before draining, so same-instant events scheduled by
        # its callbacks land in a fresh bucket drained right after — keeping
        # insertion order global.  The fan heap wins ties against the bucket
        # heap (rule 2 of the module docstring).  A fan cursor advances in
        # place — its time rewritten, then `heapreplace` sifts it down —
        # *before* its delivery runs, so a send from inside the handler can
        # never be the entry that gets replaced.
        self._stopped = False
        times = self._times
        buckets = self._buckets
        fan = self._fan
        pop = heapq.heappop
        replace = heapq.heapreplace
        executed = 0
        try:
            if until is None and max_events is None:
                while True:
                    if fan:
                        entry = fan[0]
                        when = entry[0]
                        if not times or when <= times[0]:
                            key = next(entry[3])
                            nxt = next(entry[2], None)
                            if nxt is None:
                                pop(fan)
                            else:
                                entry[0] = nxt
                                replace(fan, entry)
                            self._now = when
                            entry[4](key, *entry[5])
                            executed += 1
                            if self._stopped:
                                return
                            continue
                    elif not times:
                        break
                    when = pop(times)
                    bucket = buckets.pop(when)
                    self._now = when
                    if len(bucket) == 1:
                        # Most timestamps hold a single event (jittered links
                        # spread arrivals); skip the iterator machinery.
                        entry = bucket[0]
                        fn = entry[0]
                        if fn is None:
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        fn(*entry[1])
                        executed += 1
                        if self._stopped:
                            return
                        continue
                    tail = iter(bucket)
                    for entry in tail:
                        fn = entry[0]
                        if fn is None:
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        fn(*entry[1])
                        executed += 1
                        if self._stopped:
                            self._requeue(when, list(tail))
                            return
            elif max_events is None:
                while True:
                    if fan:
                        entry = fan[0]
                        when = entry[0]
                        if not times or when <= times[0]:
                            if when > until:
                                self._now = until
                                return
                            key = next(entry[3])
                            nxt = next(entry[2], None)
                            if nxt is None:
                                pop(fan)
                            else:
                                entry[0] = nxt
                                replace(fan, entry)
                            self._now = when
                            entry[4](key, *entry[5])
                            executed += 1
                            if self._stopped:
                                return
                            continue
                    elif not times:
                        break
                    when = times[0]
                    if when > until:
                        self._now = until
                        return
                    pop(times)
                    bucket = buckets.pop(when)
                    self._now = when
                    if len(bucket) == 1:
                        entry = bucket[0]
                        fn = entry[0]
                        if fn is None:
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        fn(*entry[1])
                        executed += 1
                        if self._stopped:
                            return
                        continue
                    tail = iter(bucket)
                    for entry in tail:
                        fn = entry[0]
                        if fn is None:
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        fn(*entry[1])
                        executed += 1
                        if self._stopped:
                            self._requeue(when, list(tail))
                            return
            else:
                while True:
                    if fan:
                        entry = fan[0]
                        when = entry[0]
                        if not times or when <= times[0]:
                            if until is not None and when > until:
                                self._now = until
                                return
                            key = next(entry[3])
                            nxt = next(entry[2], None)
                            if nxt is None:
                                pop(fan)
                            else:
                                entry[0] = nxt
                                replace(fan, entry)
                            self._now = when
                            entry[4](key, *entry[5])
                            executed += 1
                            if self._stopped:
                                return
                            if executed > max_events:
                                raise SimulationError(f"exceeded max_events={max_events}")
                            continue
                    elif not times:
                        break
                    when = times[0]
                    if until is not None and when > until:
                        self._now = until
                        return
                    pop(times)
                    tail = iter(buckets.pop(when))
                    self._now = when
                    for entry in tail:
                        fn = entry[0]
                        if fn is None:
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        fn(*entry[1])
                        executed += 1
                        if self._stopped or executed > max_events:
                            self._requeue(when, list(tail))
                            if self._stopped:
                                return
                            raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            # Batched: per-event `self._processed += 1` is measurable, and no
            # caller observes the counter while an event callback is running.
            self._processed += executed

    def run_until_idle(self, max_events: int | None = None) -> None:
        """Run until no events remain (alias of ``run()`` with a guard)."""
        self.run(until=None, max_events=max_events)
