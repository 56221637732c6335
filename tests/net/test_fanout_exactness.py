"""Fan-out cursors must reproduce the bucket path's execution order exactly.

``Simulator.post_many`` places the copies of one transmit itself, sending
some to a fan-out cursor.  The oracle is the reference placement — one
``post`` per copy — and the two must execute the same ``(time, callback,
args)`` sequence and report the same ``pending_events`` at every pause.
The generated runs mix range and arbitrary-order multicasts with unicasts
and loopbacks, ``post``/``schedule_at`` at exactly colliding instants
(jitter-free latency makes ties everywhere), cancellations, ``stop()`` from
inside a delivery, ``run(until=...)`` landing on an arrival, ``max_events``
overruns and ``run_until_idle``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.latency import UniformLatencyModel, gcp_latency_model
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.scheduler import Simulator

STEP = 0.05


def reference_post_many(self, fn, times, keys, args):
    """The oracle placement: every copy its own ``post``, in caller order."""
    for when, key in zip(times, keys):
        self.post(when, fn, (key, *args))


class _ReferenceSimulator(Simulator):
    __slots__ = ()
    post_many = reference_post_many


class _Msg(Message):
    __slots__ = ("tag", "hops")

    def __init__(self, tag: int, hops: int) -> None:
        self.tag = tag
        self.hops = hops

    def wire_size(self) -> int:
        return 100 + 37 * (self.tag % 5)


def _latency(kind: str, n: int):
    if kind == "zero":  # remote copies arrive at `now`: never fan-eligible
        return UniformLatencyModel(0.0)
    if kind == "ties":
        return UniformLatencyModel(STEP)
    if kind == "table":
        return gcp_latency_model(n, jitter=0.0)
    if kind == "uniform-jitter":
        return UniformLatencyModel(STEP, jitter=0.02, seed=3)
    return gcp_latency_model(n, jitter=0.05, seed=4)


def _next_time(sim: Simulator) -> float | None:
    """Earliest pending instant over both heaps."""
    times = [sim._times[0]] if sim._times else []
    if sim._fan:
        times.append(sim._fan[0][0])
    return min(times) if times else None


def _execute(scenario: dict, fan: bool) -> list:
    n = scenario["n"]
    sim_class = Simulator if fan else _ReferenceSimulator
    sim = sim_class(compact_threshold=scenario["compact"])
    net = Network(sim, n, latency=_latency(scenario["latency"], n),
                  bandwidth_bps=scenario["bandwidth"])
    log: list = []
    reactions = scenario["reactions"]
    tags = [0]
    timers: list = []

    def marker(label):
        log.append(("marker", sim.now, label))

    def react(node: int, key: int, hops: int) -> None:
        kind, arg = reactions[key % len(reactions)]
        if kind == "stop":
            sim.stop()
            return
        if kind == "post":
            sim.post(sim.now + arg * STEP, marker, (("post", node, key),))
            return
        if kind == "timer":
            timers.append(sim.schedule_at(sim.now + arg * STEP, marker, ("timer", node, key)))
            return
        if kind == "cancel":
            if timers:
                timers[arg % len(timers)].cancel()
            return
        if hops <= 0:
            return
        tags[0] += 1
        msg = _Msg(tags[0], hops - 1)
        if kind == "broadcast":
            net.broadcast(node, msg)
        elif kind == "send":
            net.send(node, (node + arg) % n, msg)
        else:  # multicast to an arbitrary-order subset (arg = rotation)
            dsts = [(node + arg + 2 * i) % n for i in range(n)]
            net.multicast(node, dict.fromkeys(dsts), msg)

    def handler_for(node: int):
        def handler(src, msg):
            log.append(("deliver", sim.now, node, src, msg.tag))
            react(node, node * 7 + msg.tag + msg.hops, msg.hops)

        return handler

    for node in range(n):
        net.register(node, handler_for(node))
    for when, node, key in scenario["seeds"]:
        sim.schedule_at(when * STEP, react, node, key, scenario["hops"])

    for kind, arg in scenario["phases"]:
        try:
            if kind == "until":
                sim.run(until=sim.now + arg * STEP / 2)
            elif kind == "until_next":
                # Step instant by instant, pausing exactly on each arrival.
                for _ in range(arg):
                    nxt = _next_time(sim)
                    if nxt is None:
                        break
                    sim.run(until=nxt)
                    log.append(("step", sim.now, sim.pending_events, sim.processed_events))
            elif kind == "max":
                sim.run(max_events=arg)
            elif kind == "until_max":
                sim.run(until=sim.now + STEP, max_events=arg)
            elif kind == "idle":
                sim.run_until_idle(max_events=arg)
            else:
                sim.run()
        except SimulationError as exc:
            if "max_events" not in str(exc):
                raise
            log.append(("overrun", str(exc)))
        log.append(("pause", kind, sim.now, sim.pending_events, sim.processed_events))
    while sim.pending_events:
        sim.run()
        log.append(("pause", "drain", sim.now, sim.pending_events, sim.processed_events))
    return log


_REACTION = st.one_of(
    st.tuples(st.just("broadcast"), st.just(0)),
    st.tuples(st.just("multicast"), st.integers(0, 5)),
    st.tuples(st.just("send"), st.integers(0, 5)),
    st.tuples(st.just("post"), st.integers(0, 2)),
    st.tuples(st.just("timer"), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("stop"), st.just(0)),
)
_PHASE = st.one_of(
    st.tuples(st.just("until"), st.integers(0, 6)),
    st.tuples(st.just("until_next"), st.integers(1, 8)),
    st.tuples(st.just("max"), st.integers(0, 40)),
    st.tuples(st.just("until_max"), st.integers(0, 40)),
    st.tuples(st.just("idle"), st.integers(0, 400)),
    st.tuples(st.just("run"), st.just(0)),
)


@st.composite
def _scenarios(draw):
    n = draw(st.integers(2, 6))
    return {
        "n": n,
        "latency": draw(st.sampled_from(
            ["zero", "ties", "table", "uniform-jitter", "geo-jitter"]
        )),
        "bandwidth": draw(st.sampled_from([None, 8e6])),
        "compact": draw(st.sampled_from([2, 1024])),
        "hops": draw(st.integers(1, 3)),
        "reactions": draw(st.lists(_REACTION, min_size=1, max_size=10)),
        "seeds": draw(st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, n - 1), st.integers(0, 50)),
            min_size=1, max_size=6,
        )),
        "phases": draw(st.lists(_PHASE, max_size=6)),
    }


@settings(max_examples=120, deadline=None)
@given(scenario=_scenarios())
def test_fan_matches_bucket_path(scenario):
    assert _execute(scenario, fan=True) == _execute(scenario, fan=False)


def test_fan_path_is_exercised(monkeypatch):
    """Guard against a vacuous comparison: the run under ``post_many`` must
    actually create fan-out cursors, ties included."""
    scenario = {
        "n": 5, "latency": "ties", "bandwidth": None, "compact": 1024, "hops": 2,
        "reactions": [("broadcast", 0), ("post", 1), ("multicast", 3)],
        "seeds": [(0, 0, 0), (0, 1, 2), (2, 2, 1)], "phases": [("until_next", 3)],
    }
    cursors = []
    real = Simulator.post_many

    def counting(self, fn, times, keys, args):
        before = self._fan_seq
        real(self, fn, times, keys, args)
        cursors.append(self._fan_seq - before)

    monkeypatch.setattr(Simulator, "post_many", counting)
    on = _execute(scenario, fan=True)
    monkeypatch.undo()
    assert sum(cursors) > 0
    assert on == _execute(scenario, fan=False)
