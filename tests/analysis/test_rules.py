"""Per-rule fixtures: each rule has a failing snippet and a clean counterpart."""

import textwrap

from repro.analysis.engine import Analyzer


def run(source, path="pkg/mod.py"):
    return Analyzer().analyze_source(textwrap.dedent(source), path=path)


def rule_ids(source, path="pkg/mod.py"):
    return [f.rule for f in run(source, path=path)]


# -- DET001: raw random module ------------------------------------------------


def test_det001_flags_global_random_attribute():
    findings = run(
        """\
        import random

        def jitter():
            return random.random()
        """
    )
    assert [f.rule for f in findings] == ["DET001"]
    assert findings[0].line == 4


def test_det001_flags_random_random_constructor():
    assert "DET001" in rule_ids(
        """\
        import random
        rng = random.Random(42)
        """
    )


def test_det001_flags_from_import():
    assert "DET001" in rule_ids("from random import choice\n")


def test_det001_exempts_the_rng_module_itself():
    source = """\
        import random
        rng = random.Random(7)
        """
    assert rule_ids(source, path="src/repro/sim/rng.py") == []
    assert "DET001" in rule_ids(source, path="src/repro/consensus/leader.py")


def test_det001_clean_named_streams():
    assert (
        rule_ids(
            """\
            from repro.sim.rng import make_rng

            def jitter(seed):
                return make_rng(seed, "jitter").random()
            """
        )
        == []
    )


# -- DET002: wall clock / OS entropy ------------------------------------------


def test_det002_flags_time_time_through_alias():
    findings = run(
        """\
        import time as _time

        def stamp():
            return _time.time()
        """
    )
    assert [f.rule for f in findings] == ["DET002"]


def test_det002_flags_datetime_now_os_urandom_uuid4():
    ids = rule_ids(
        """\
        import os
        import uuid
        from datetime import datetime

        def fresh():
            return datetime.now(), os.urandom(8), uuid.uuid4()
        """
    )
    assert ids.count("DET002") == 3


def test_det002_allows_perf_counter():
    # Wall-clock *measurement* (tracing, profiling) is fine; only sources
    # that can leak into simulated state are banned.
    assert (
        rule_ids(
            """\
            import time

            def wall():
                return time.perf_counter()
            """
        )
        == []
    )


# -- DET003: unordered iteration ----------------------------------------------


def test_det003_set_variable_feeding_send_is_error():
    findings = run(
        """\
        def gossip(net, peers):
            members = set(peers)
            for p in members:
                net.send(0, p, None)
        """
    )
    assert [(f.rule, f.severity) for f in findings] == [("DET003", "error")]


def test_det003_set_literal_without_sink_is_warning():
    findings = run(
        """\
        def tally():
            total = 0
            for x in {1, 2, 3}:
                total += x
            return total
        """
    )
    assert [(f.rule, f.severity) for f in findings] == [("DET003", "warning")]


def test_det003_dict_keys_feeding_schedule_is_error():
    findings = run(
        """\
        def arm(sim, timers):
            for name in timers.keys():
                sim.schedule(1.0, print, name)
        """
    )
    assert [(f.rule, f.severity) for f in findings] == [("DET003", "error")]


def test_det003_sorted_iteration_is_clean():
    assert (
        rule_ids(
            """\
            def gossip(net, peers):
                members = set(peers)
                for p in sorted(members):
                    net.send(0, p, None)
            """
        )
        == []
    )


def test_det003_reassigned_to_list_is_clean():
    assert (
        rule_ids(
            """\
            def gossip(net, peers):
                members = set(peers)
                members = sorted(members)
                for p in members:
                    net.send(0, p, None)
            """
        )
        == []
    )


# -- DET004: identity/hash ordering -------------------------------------------


def test_det004_id_in_comparison():
    findings = run(
        """\
        def same(a, b):
            return id(a) == id(b)
        """
    )
    assert {f.rule for f in findings} == {"DET004"}


def test_det004_hash_as_sort_key():
    assert "DET004" in rule_ids(
        """\
        def order(items):
            return sorted(items, key=lambda v: hash(v))
        """
    )


def test_det004_bare_hash_keyword():
    assert "DET004" in rule_ids("order = sorted([1, 2], key=hash)\n")


def test_det004_hash_picking_a_list_index():
    findings = run(
        """\
        def route(txn_id, proposers):
            return proposers[hash(txn_id) % len(proposers)]
        """
    )
    assert [f.rule for f in findings] == ["DET004"]
    assert "`%` operand" in findings[0].message
    assert "DET004" in rule_ids("slot = table[id(obj)]\n")


def test_det004_hash_dunder_and_subscripted_value_are_clean():
    assert (
        rule_ids(
            """\
            class Ctx:
                def __hash__(self):
                    return hash((self.trace_id, self.span_id))

            def first(items):
                return items[0] + hash(items)
            """
        )
        == []
    )


def test_det004_field_sort_key_is_clean():
    assert (
        rule_ids(
            """\
            def order(items):
                return sorted(items, key=lambda v: v.node_id)
            """
        )
        == []
    )


# -- MSG001: message shape ----------------------------------------------------


def test_msg001_missing_slots_and_wire_size():
    findings = run(
        """\
        from repro.net.message import Message

        class VoteMsg(Message):
            def __init__(self, round):
                self.round = round
        """
    )
    messages = sorted(f.message for f in findings)
    assert [f.rule for f in findings] == ["MSG001", "MSG001"]
    assert any("__slots__" in m for m in messages)
    assert any("wire_size" in m for m in messages)


def test_msg001_dataclass_slots_with_wire_size_is_clean():
    assert (
        rule_ids(
            """\
            from dataclasses import dataclass

            from repro.net.message import Message

            @dataclass(slots=True)
            class VoteMsg(Message):
                round: int

                def wire_size(self):
                    return 84
            """
        )
        == []
    )


def test_msg001_explicit_slots_is_clean():
    assert (
        rule_ids(
            """\
            from repro.net.message import Message

            class Blob(Message):
                __slots__ = ("size",)

                def wire_size(self):
                    return self.size
            """
        )
        == []
    )


# -- MSG002: mutation after send ----------------------------------------------


def test_msg002_mutation_after_send():
    findings = run(
        """\
        def propose(net, msg):
            net.multicast(0, [1, 2], msg)
            msg.round = 5
        """
    )
    assert [f.rule for f in findings] == ["MSG002"]


def test_msg002_mutation_before_send_is_clean():
    assert (
        rule_ids(
            """\
            def propose(net, msg):
                msg.round = 5
                net.multicast(0, [1, 2], msg)
            """
        )
        == []
    )


def test_msg002_rebound_name_is_clean():
    # After rebinding, `msg` is a different object; mutating it is fine.
    assert (
        rule_ids(
            """\
            def propose(net, msg, fresh):
                net.send(0, 1, msg)
                msg = fresh()
                msg.round = 5
            """
        )
        == []
    )


# -- SIM001: float equality on simulated time ---------------------------------


def test_sim001_equality_on_now_and_deadline():
    findings = run(
        """\
        def expired(sim, deadline, t):
            if sim.now == 3.0:
                return True
            return deadline != t
        """
    )
    assert [(f.rule, f.severity) for f in findings] == [
        ("SIM001", "warning"),
        ("SIM001", "warning"),
    ]


def test_sim001_ordering_comparison_is_clean():
    assert (
        rule_ids(
            """\
            def expired(sim, deadline):
                return sim.now >= deadline
            """
        )
        == []
    )


def test_sim001_none_check_is_clean():
    assert (
        rule_ids(
            """\
            def armed(deadline):
                return deadline != None
            """
        )
        == []
    )


def test_sim001_message_suggests_tolerance_helper():
    findings = run(
        """\
        def due(sim, fire_at):
            return sim.now != fire_at
        """
    )
    assert [f.rule for f in findings] == ["SIM001"]
    assert "times_close" in findings[0].message


def test_sim001_tolerance_helper_module_is_exempt():
    # times_close itself compares with <= tolerance; its home module must
    # never be flagged for the comparisons it exists to encapsulate.
    source = """\
    def times_close(a, b, tol):
        expires_at = a
        return expires_at == b
    """
    assert rule_ids(source, path="src/repro/sim/timers.py") == []
    assert rule_ids(source, path="src/repro/sim/other.py") == ["SIM001"]


# -- OBS001: unguarded tracer emission in a loop ------------------------------


def test_obs001_unguarded_counter_in_loop():
    findings = run(
        """\
        def deliver(self, batch):
            for msg in batch:
                self.tracer.counter("net.msg", node=msg.dst, kind=msg.kind())
        """
    )
    assert [(f.rule, f.severity) for f in findings] == [("OBS001", "warning")]
    assert findings[0].line == 3


def test_obs001_guarded_loop_is_clean():
    assert (
        rule_ids(
            """\
            def deliver(self, batch):
                for msg in batch:
                    if self.tracer.enabled:
                        self.tracer.counter("net.msg", node=msg.dst)
            """
        )
        == []
    )


def test_obs001_guard_hoisted_outside_loop_is_clean():
    assert (
        rule_ids(
            """\
            def commit(self, chain, now):
                if self.tracer.enabled:
                    for vertex in chain:
                        self.tracer.counter("ordered", round=vertex.round)
            """
        )
        == []
    )


def test_obs001_flags_while_loops_and_local_aliases():
    findings = run(
        """\
        def drain(queue, tracer):
            while queue:
                item = queue.pop()
                tracer.gauge("queue.depth", value=len(queue))
        """
    )
    assert [f.rule for f in findings] == ["OBS001"]


def test_obs001_call_outside_loop_is_clean():
    assert (
        rule_ids(
            """\
            def finish(self, now):
                self.tracer.counter("run.done", time=now)
            """
        )
        == []
    )


def test_obs001_non_tracer_receiver_is_clean():
    # `.counter(...)` on something that isn't a tracer is not our business.
    assert (
        rule_ids(
            """\
            def tally(self, votes):
                for vote in votes:
                    self.metrics.counter(vote)
            """
        )
        == []
    )


# -- OBS002: span begin without a matching end in the same handler ------------


def test_obs002_begin_without_end_in_handler():
    findings = run(
        """\
        def on_val(self, msg, now):
            self.tracer.begin("rbc.deliver", key=msg.origin, start=now)
            self.store.add(msg.vertex)
        """
    )
    assert [(f.rule, f.severity) for f in findings] == [("OBS002", "warning")]
    assert findings[0].line == 2


def test_obs002_matched_begin_end_is_clean():
    assert (
        rule_ids(
            """\
            def on_val(self, msg, now):
                self.tracer.begin("rbc.deliver", key=msg.origin, start=now)
                self.store.add(msg.vertex)
                self.tracer.end("rbc.deliver", key=msg.origin, end=now)
            """
        )
        == []
    )


def test_obs002_end_on_conditional_path_still_counts():
    # Reachability is approximated as same-function presence: an `end` on
    # any path in the handler satisfies the rule.
    assert (
        rule_ids(
            """\
            def on_echo(self, msg, now):
                self.tracer.begin("rbc.echo", key=msg.origin, start=now)
                if self.quorum(msg):
                    self.tracer.end("rbc.echo", key=msg.origin, end=now)
            """
        )
        == []
    )


def test_obs002_end_for_different_span_name_does_not_match():
    findings = run(
        """\
        def on_ready(self, msg, now):
            self.tracer.begin("rbc.ready", key=msg.origin, start=now)
            self.tracer.end("rbc.echo", key=msg.origin, end=now)
        """
    )
    assert [f.rule for f in findings] == ["OBS002"]


def test_obs002_cross_handler_begin_end_flagged_per_function():
    # begin in one handler, end in another: the begin side is flagged (the
    # idiom is to suppress with an allow comment naming the closing site).
    findings = run(
        """\
        def open_round(self, round_, now):
            self.tracer.begin("round", key=round_, start=now)

        def close_round(self, round_, now):
            self.tracer.end("round", key=round_, end=now)
        """
    )
    assert [f.rule for f in findings] == ["OBS002"]


def test_obs002_allow_comment_suppresses():
    assert (
        rule_ids(
            """\
            def open_round(self, round_, now):
                self.tracer.begin("round", key=round_, start=now)  # repro: allow[OBS002] closed in close_round
            """
        )
        == []
    )


def test_obs002_dynamic_span_name_is_skipped():
    assert (
        rule_ids(
            """\
            def on_phase(self, phase, now):
                self.tracer.begin(phase.name, key=phase.key, start=now)
            """
        )
        == []
    )


def test_obs002_non_tracer_begin_is_clean():
    assert (
        rule_ids(
            """\
            def start(self, session):
                self.transaction.begin("outer")
            """
        )
        == []
    )


# -- DAG001: full-round DAG scan inside a per-item loop -----------------------

DAG_PATH = "src/repro/consensus/node.py"


def test_dag001_flags_round_scan_in_vertex_loop():
    findings = run(
        """\
        def count(self, vertices):
            for vertex in vertices:
                peers = self.store.round_vertices(vertex.round)
        """,
        path=DAG_PATH,
    )
    assert [(f.rule, f.severity) for f in findings] == [("DAG001", "warning")]
    assert findings[0].line == 3


def test_dag001_flags_uncovered_scan_in_while_loop():
    assert "DAG001" in rule_ids(
        """\
        def drain(self):
            while self.pending:
                tips = self.store.uncovered_before(self.round)
        """,
        path="src/repro/dag/store.py",
    )


def test_dag001_hoisted_scan_is_clean():
    assert (
        rule_ids(
            """\
            def count(self, vertices, round_):
                peers = self.store.round_vertices(round_)
                for vertex in vertices:
                    check(vertex, peers)
            """,
            path=DAG_PATH,
        )
        == []
    )


def test_dag001_round_range_loop_is_clean():
    # Iterating *rounds* and scanning each once is the batch pattern
    # (sync serves round batches this way), not a per-item rescan.
    assert (
        rule_ids(
            """\
            def serve(self, lo, hi):
                for round_ in range(lo, hi + 1):
                    for vertex in self.store.round_vertices(round_):
                        emit(vertex)
            """,
            path="src/repro/consensus/sync.py",
        )
        == []
    )


def test_dag001_out_of_scope_path_is_clean():
    assert (
        rule_ids(
            """\
            def watch(self, vertices):
                for vertex in vertices:
                    peers = self.store.round_vertices(vertex.round)
            """,
            path="src/repro/forensics/monitors.py",
        )
        == []
    )
