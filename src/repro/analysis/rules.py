"""The determinism / protocol-invariant rule pack.

Rule IDs are stable API — suppressions (``# repro: allow[DET003]``) and
baseline entries reference them.  Each rule is a heuristic AST check: it can
miss violations routed through aliases it cannot see, but everything it *does*
flag is either a real hazard or a line that deserves the one-line suppression
comment explaining why it is safe.  See ``docs/ANALYSIS.md`` for the
bad/good example pairs.

================  ==========================================================
DET001 (error)    raw ``random.*`` / ``random.Random`` outside ``sim/rng.py``
DET002 (error)    wall-clock / environment nondeterminism (``time.time``,
                  ``datetime.now``, ``os.urandom``, unseeded ``uuid``,
                  ``secrets``)
DET003 (warning)  iteration over bare ``set``/``frozenset``/``dict.keys()``
                  without ``sorted(...)``; escalates to *error* when the loop
                  body sends, schedules, or draws randomness
DET004 (error)    ``id()`` / ``hash()`` in comparisons, sort keys or index picks
MSG001 (error)    ``Message`` subclass missing ``__slots__`` or ``wire_size``
MSG002 (error)    assignment to a message's fields after it was passed to
                  ``send``/``multicast``/``broadcast`` in the same scope
SIM001 (warning)  float ``==`` / ``!=`` on simulated-time values
OBS001 (warning)  tracer emission inside a loop without an
                  ``if ...tracer.enabled:`` guard
DAG001 (warning)  full-round DAG scan (``round_vertices`` /
                  ``uncovered_before``) inside a per-item loop in
                  ``repro.dag`` / ``repro.consensus``
================  ==========================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from .engine import FileContext, Finding, Rule


def _scope_nodes(ctx: FileContext) -> list[ast.AST]:
    """The module plus every function definition (analysis scopes)."""
    return [ctx.tree, *ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef)]


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope's own code without descending into nested scopes.

    Nested function/class definitions are yielded (so a rule can see that
    they exist) but not entered — each function body is analyzed as its own
    scope by :func:`_scope_nodes`.
    """
    stack: list[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _func_name(func: ast.AST) -> str | None:
    """Terminal name of a call target (``a.b.send`` → ``send``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class RawRandomRule:
    """DET001: all randomness must flow through ``repro.sim.rng`` streams.

    A bare ``random.random()`` (or a module-level ``random.Random(...)``)
    draws from interpreter-global state: any other component touching it
    perturbs every later draw, silently breaking replay determinism and the
    PR-3 result cache's serial == parallel guarantee.
    """

    rule_id = "DET001"
    severity = "error"
    summary = "raw random.* usage outside sim/rng.py"

    #: The one module allowed to touch ``random`` directly.
    EXEMPT_SUFFIXES = ("sim/rng.py",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.path.endswith(self.EXEMPT_SUFFIXES):
            return
        for node in ctx.nodes(ast.ImportFrom):
            if node.module == "random" and not node.level:
                yield ctx.finding(
                    self,
                    node,
                    "import from the global `random` module; derive a stream "
                    "with repro.sim.rng.make_rng(seed, *labels) instead",
                )
        for node in ctx.nodes(ast.Attribute):
            if isinstance(node.value, ast.Name):
                dotted = ctx.dotted_name(node)
                if dotted is not None and dotted.split(".", 1)[0] == "random":
                    yield ctx.finding(
                        self,
                        node,
                        f"`{dotted}` uses the global random module; use "
                        "repro.sim.rng.make_rng(seed, *labels) named streams",
                    )


class WallClockRule:
    """DET002: no wall-clock or environment entropy on simulation paths.

    Simulated time comes from the scheduler (``sim.now``); wall-clock reads
    and OS entropy make two runs with identical seeds diverge.  (Profiling
    and tracing code may read ``time.perf_counter`` — wall-clock *spans*
    never feed back into simulated behaviour, so that name is not banned.)
    """

    rule_id = "DET002"
    severity = "error"
    summary = "wall-clock or environment nondeterminism"

    BANNED_SUFFIXES = (
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    )
    MODULES = frozenset({"time", "datetime", "os", "uuid", "secrets"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes(ast.ImportFrom):
            if node.module == "secrets" and not node.level:
                yield ctx.finding(
                    self, node, "the `secrets` module is OS entropy; seed a "
                    "repro.sim.rng stream instead"
                )
        seen: set[int] = set()
        for node in ctx.nodes(ast.Attribute, ast.Name):
            if isinstance(node, ast.Name) and not isinstance(
                ctx.parent(node), ast.Call
            ):
                continue  # bare name references only matter when called
            dotted = ctx.dotted_name(node)
            if dotted is None:
                continue
            root = dotted.split(".", 1)[0]
            if root not in self.MODULES:
                continue
            if root == "secrets" or any(
                dotted.endswith(suffix) for suffix in self.BANNED_SUFFIXES
            ):
                # An Attribute chain resolves at every link; report once.
                key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
                if key in seen:
                    continue
                seen.add(key)
                yield ctx.finding(
                    self,
                    node,
                    f"`{dotted}` is nondeterministic (wall clock / OS entropy); "
                    "simulated time comes from sim.now, randomness from "
                    "repro.sim.rng streams",
                )


#: Call names that make an unordered iteration protocol-visible.
_ORDER_SINKS = frozenset(
    {
        "send",
        "multicast",
        "broadcast",
        "schedule",
        "schedule_at",
        "post",
        "start",
        "random",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "randint",
        "randrange",
        "uniform",
        "gauss",
    }
)


class UnsortedSetIterRule:
    """DET003: never iterate raw sets / dict keys on an order-sensitive path.

    ``set``/``frozenset`` iteration order depends on element hashes and
    insertion history; feeding it into sends, timers, or RNG draws makes the
    event order differ between runs (and between serial and parallel workers,
    poisoning the result cache).  Wrap the iterable in ``sorted(...)``.
    """

    rule_id = "DET003"
    severity = "warning"
    summary = "iteration over unordered set/frozenset/dict.keys()"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for scope in _scope_nodes(ctx):
            set_vars = self._set_assignments(scope)
            for node in _walk_scope(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    reason = self._unordered_reason(node.iter, set_vars)
                    if reason is not None:
                        sink = self._body_sink(node.body)
                        yield self._finding(ctx, node.iter, reason, sink)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for gen in node.generators:
                        reason = self._unordered_reason(gen.iter, set_vars)
                        if reason is not None:
                            yield self._finding(ctx, gen.iter, reason, None)

    def _finding(
        self, ctx: FileContext, node: ast.AST, reason: str, sink: str | None
    ) -> Finding:
        if sink is not None:
            return ctx.finding(
                self,
                node,
                f"iteration over {reason} feeds `{sink}(...)` — event order "
                "becomes hash/insertion dependent; wrap in sorted(...)",
                severity="error",
            )
        return ctx.finding(
            self,
            node,
            f"iteration over {reason} has no deterministic order; wrap in "
            "sorted(...) if the order can ever become protocol-visible",
        )

    def _set_assignments(self, scope: ast.AST) -> set[str]:
        """Names assigned an (unsorted) set value within this scope."""
        set_vars: set[str] = set()
        assigns = sorted(
            (n for n in _walk_scope(scope) if isinstance(n, ast.Assign)),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in assigns:
            if len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if self._is_set_expr(node.value):
                set_vars.add(target.id)
            else:
                set_vars.discard(target.id)  # reassigned to something ordered
        return set_vars

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return UnsortedSetIterRule._is_set_expr(
                node.left
            ) or UnsortedSetIterRule._is_set_expr(node.right)
        return False

    def _unordered_reason(self, iter_node: ast.AST, set_vars: set[str]) -> str | None:
        if isinstance(iter_node, ast.Call):
            name = _func_name(iter_node.func)
            if isinstance(iter_node.func, ast.Name) and name in ("set", "frozenset"):
                return f"a bare `{name}(...)`"
            if isinstance(iter_node.func, ast.Attribute) and name == "keys":
                return "`.keys()` of a dict"
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return "a set literal/comprehension"
        if isinstance(iter_node, ast.Name) and iter_node.id in set_vars:
            return f"the set-valued variable `{iter_node.id}`"
        return None

    @staticmethod
    def _body_sink(body: list[ast.stmt]) -> str | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = _func_name(node.func)
                    if name in _ORDER_SINKS:
                        return name
        return None


class IdentityOrderRule:
    """DET004: ``id()`` / ``hash()`` must not decide comparisons, order or
    which element is picked.

    CPython object ids are allocation addresses and ``hash(str)`` is salted
    per process (PYTHONHASHSEED); both differ between runs and between
    parallel workers.  Sort keys, equality checks and index picks
    (``xs[hash(k) % len(xs)]``) built on them are nondeterminism bombs.
    """

    rule_id = "DET004"
    severity = "error"
    summary = "id()/hash() in a comparison, sort key, index or % operand"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes(ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in ("id", "hash")):
                continue
            context = self._ordering_context(ctx, node)
            if context is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"`{node.func.id}(...)` used {context} — object identity "
                    "and salted hashes differ between runs; compare/sort on "
                    "stable protocol fields instead",
                )
        # ``key=id`` / ``key=hash`` passed without a call wrapper.
        for node in ctx.nodes(ast.keyword):
            if (
                node.arg == "key"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("id", "hash")
            ):
                yield ctx.finding(
                    self,
                    node.value,
                    f"`key={node.value.id}` sorts by object identity/salted "
                    "hash; sort on stable protocol fields instead",
                )

    @staticmethod
    def _ordering_context(ctx: FileContext, node: ast.AST) -> str | None:
        child = node
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Compare):
                return "in a comparison"
            if isinstance(ancestor, ast.keyword) and ancestor.arg == "key":
                return "as a sort key"
            if isinstance(ancestor, ast.BinOp) and isinstance(ancestor.op, ast.Mod):
                return "as a `%` operand"
            if isinstance(ancestor, ast.Subscript) and child is ancestor.slice:
                return "as a subscript index"
            if isinstance(ancestor, ast.stmt):
                return None
            child = ancestor
        return None


class MessageShapeRule:
    """MSG001: every ``Message`` subclass declares ``__slots__`` + ``wire_size``.

    ``__slots__`` keeps per-message memory flat at millions of events and —
    with the freeze-after-send sanitizer — guarantees no stray attributes
    appear after serialization; ``wire_size`` keeps the bandwidth model's
    byte accounting honest (CONTRIBUTING.md).
    """

    rule_id = "MSG001"
    severity = "error"
    summary = "Message subclass missing __slots__ or wire_size"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes(ast.ClassDef):
            if node.name == "Message" or not self._subclasses_message(node):
                continue
            if not self._has_slots(node):
                yield ctx.finding(
                    self,
                    node,
                    f"Message subclass `{node.name}` lacks __slots__ "
                    "(use @dataclass(slots=True) or an explicit __slots__)",
                )
            if not self._defines(node, "wire_size"):
                yield ctx.finding(
                    self,
                    node,
                    f"Message subclass `{node.name}` does not implement "
                    "wire_size(); the bandwidth model cannot charge for it",
                )

    @staticmethod
    def _subclasses_message(node: ast.ClassDef) -> bool:
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id == "Message":
                return True
            if isinstance(base, ast.Attribute) and base.attr == "Message":
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and _func_name(deco.func) == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        return True
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.target.id == "__slots__":
                    return True
        return False

    @staticmethod
    def _defines(node: ast.ClassDef, name: str) -> bool:
        return any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == name
            for stmt in node.body
        )


#: Call attribute names that hand a message to the network.
_SEND_NAMES = frozenset({"send", "multicast", "broadcast"})


class MutateAfterSendRule:
    """MSG002: a message handed to the network is frozen.

    The network schedules delivery *by reference* (zero-copy); mutating a
    field after ``send`` retroactively rewrites what every recipient will
    observe — and what the memoized wire size already charged.  The runtime
    twin of this rule is the freeze-after-send sanitizer
    (:mod:`repro.analysis.sanitizers`).
    """

    rule_id = "MSG002"
    severity = "error"
    summary = "message field assigned after send in the same scope"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for scope in _scope_nodes(ctx):
            sent: dict[str, int] = {}  # name → first send line
            rebinds: dict[str, list[int]] = {}  # name → rebinding lines
            mutations: list[tuple[ast.AST, str]] = []
            for node in _walk_scope(scope):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr in _SEND_NAMES and node.args:
                        last = node.args[-1]
                        if isinstance(last, ast.Name):
                            line = getattr(node, "lineno", 0)
                            prev = sent.get(last.id)
                            if prev is None or line < prev:
                                sent[last.id] = line
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Attribute) and isinstance(
                            target.value, ast.Name
                        ):
                            mutations.append((node, target.value.id))
                        elif isinstance(target, ast.Name) and isinstance(
                            node, ast.Assign
                        ):
                            rebinds.setdefault(target.id, []).append(
                                getattr(node, "lineno", 0)
                            )
            for node, name in mutations:
                send_line = sent.get(name)
                mut_line = getattr(node, "lineno", 0)
                if send_line is None or mut_line <= send_line:
                    continue
                # Rebinding the name to a fresh object between send and
                # assignment means the mutation targets the new message.
                if any(
                    send_line < line <= mut_line for line in rebinds.get(name, ())
                ):
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"`{name}` was handed to the network on line "
                    f"{send_line} and mutated afterwards; messages are "
                    "immutable once sent — build a new message instead",
                )


class SimTimeEqualityRule:
    """SIM001: simulated-time floats are never compared with ``==``.

    Event times are sums of float delays; two paths to "the same" instant
    differ in the last ulp, so ``==`` (and ``!=``) on them encodes a
    coincidence of rounding, not a protocol condition.  Compare with ``<=``
    ordering, or use :func:`repro.sim.times_close` for same-instant checks.
    """

    rule_id = "SIM001"
    severity = "warning"
    summary = "float ==/!= on simulated-time values"

    _TIMEY = re.compile(r"^_?now$|_time$|_at$|^deadline$")

    #: Where the tolerance helper itself lives — its internals are exempt.
    EXEMPT_SUFFIXES = ("sim/timers.py",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.path.endswith(self.EXEMPT_SUFFIXES):
            return
        for node in ctx.nodes(ast.Compare):
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            timey = next(
                (name for name in map(self._time_name, operands) if name), None
            )
            if timey is None:
                continue
            # `x == None` style checks aren't float equality.
            if any(
                isinstance(o, ast.Constant) and o.value is None for o in operands
            ):
                continue
            yield ctx.finding(
                self,
                node,
                f"`==`/`!=` on simulated-time value `{timey}`; float event "
                "times accumulate rounding — use ordering comparisons or "
                "repro.sim.times_close(a, b) for same-instant checks",
            )

    @classmethod
    def _time_name(cls, node: ast.AST) -> str | None:
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name is not None and cls._TIMEY.search(name):
            return name
        return None


#: Tracer emission methods; each call allocates a record (and an attrs dict).
_TRACER_EMITS = frozenset({"counter", "gauge", "span", "anomaly", "begin", "end"})


class UnguardedTracerRule:
    """OBS001: tracer emissions in loops hide behind ``tracer.enabled``.

    ``NullTracer`` makes an unguarded call *correct* but not free: argument
    evaluation still builds an attrs dict (and often formats a digest) per
    iteration, which is exactly the hot-loop overhead the ≤5 % tracing budget
    (``tests/obs/test_overhead.py``) exists to prevent.  The house idiom is::

        if self.tracer.enabled:
            self.tracer.counter(...)

    with the guard either around the call or hoisted outside the loop.
    """

    rule_id = "OBS001"
    severity = "warning"
    summary = "unguarded tracer emission inside a loop"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes(ast.Call):
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _TRACER_EMITS:
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) < 2 or parts[-2] not in ("tracer", "_tracer"):
                continue
            in_loop = False
            guarded = False
            for ancestor in ctx.ancestors(node):
                if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
                    in_loop = True
                elif isinstance(ancestor, ast.If) and self._tests_enabled(
                    ancestor.test
                ):
                    guarded = True
                elif isinstance(
                    ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    break
            if in_loop and not guarded:
                yield ctx.finding(
                    self,
                    node,
                    f"`{dotted}(...)` runs inside a loop without an "
                    "`if ...tracer.enabled:` guard; even with tracing off it "
                    "builds an attrs dict every iteration — guard the call or "
                    "hoist the guard outside the loop",
                )

    @staticmethod
    def _tests_enabled(test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "enabled":
                return True
        return False


class UnbalancedSpanRule:
    """OBS002: a keyed span ``begin`` whose handler never ``end``s it.

    ``Tracer.begin(name, key)`` opens a pending keyed span that only becomes
    a record when the matching ``Tracer.end(name, key)`` fires.  A handler
    that opens a span but has no reachable ``end`` for the same span name
    leaks the pending entry and silently loses the span from every report
    and export.  Spans that intentionally close in a *different* handler
    should carry a ``# repro: allow[OBS002]`` suppression naming the
    closing site.
    """

    rule_id = "OBS002"
    severity = "warning"
    summary = "span begin without a matching end in the same handler"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        begins: dict[ast.AST | None, list[tuple[ast.Call, str, str]]] = {}
        ends: dict[ast.AST | None, set[str]] = {}
        for node in ctx.nodes(ast.Call):
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ("begin", "end"):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) < 2 or parts[-2] not in ("tracer", "_tracer"):
                continue
            name = self._span_name(node)
            if name is None:
                continue  # dynamic span names can't be matched statically
            scope = self._enclosing_function(ctx, node)
            if node.func.attr == "begin":
                begins.setdefault(scope, []).append((node, name, dotted))
            else:
                ends.setdefault(scope, set()).add(name)
        for scope, opened in begins.items():
            closed = ends.get(scope, set())
            for node, name, dotted in opened:
                if name in closed:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"`{dotted}(\"{name}\", ...)` opens a keyed span but no "
                    f"`end(\"{name}\", ...)` is reachable in the same "
                    "handler; the pending span never materializes — close it "
                    "on every path or suppress with `# repro: allow[OBS002]` "
                    "naming the closing handler",
                )

    @staticmethod
    def _span_name(call: ast.Call) -> str | None:
        if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
            call.args[0].value, str
        ):
            return call.args[0].value
        for kw in call.keywords:
            if (
                kw.arg == "name"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                return kw.value.value
        return None

    @staticmethod
    def _enclosing_function(ctx: FileContext, node: ast.AST) -> ast.AST | None:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None


#: DagStore methods that materialize a whole round's vertex dict per call.
_ROUND_SCANS = frozenset({"round_vertices", "uncovered_before"})


class RoundScanInLoopRule:
    """DAG001: no full-round DAG scans inside per-item loops.

    ``DagStore.round_vertices`` / ``uncovered_before`` materialize a list of
    O(n) vertices per call.  Called once per round they are fine (that is
    their job); called inside a loop over vertices/messages they silently
    turn an O(n) pass into O(n²) — the per-round quadratic work the bitmap
    edge store exists to avoid.  Hoist the scan out of the loop, or use the
    store's mask-based queries (``num_in_round``, ``strong_path_exists``,
    ``causal_history``) that answer without materializing the round.

    Loops over ``range(...)`` are exempt: iterating *rounds* and scanning
    each once is the intended batch pattern (sync serves round batches that
    way).  Scoped to ``repro/dag`` and ``repro/consensus`` — the layers that
    touch the store on the simulation hot path.
    """

    rule_id = "DAG001"
    severity = "warning"
    summary = "full-round DAG scan inside a per-item loop"

    _PATHS = ("repro/dag/", "repro/consensus/")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        normalized = ctx.path.replace("\\", "/")
        if not any(part in normalized for part in self._PATHS):
            return
        for node in ctx.nodes(ast.Call):
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _ROUND_SCANS:
                continue
            in_item_loop = False
            for ancestor in ctx.ancestors(node):
                if isinstance(ancestor, (ast.For, ast.AsyncFor)):
                    # A scan in the loop's *iterable* runs once, before the
                    # loop body; only body/else placement repeats per item.
                    if self._within(ancestor.iter, node):
                        continue
                    if not self._iterates_range(ancestor):
                        in_item_loop = True
                elif isinstance(ancestor, ast.While):
                    in_item_loop = True
                elif isinstance(
                    ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    break
            if in_item_loop:
                yield ctx.finding(
                    self,
                    node,
                    f"`{node.func.attr}(...)` materializes a whole round's "
                    "vertices on every iteration of the enclosing loop "
                    "(O(n) per item -> O(n²) per pass); hoist the scan "
                    "out of the loop or use the store's mask-based queries",
                )

    @staticmethod
    def _within(subtree: ast.AST, node: ast.AST) -> bool:
        return any(child is node for child in ast.walk(subtree))

    @staticmethod
    def _iterates_range(loop: ast.For | ast.AsyncFor) -> bool:
        iter_ = loop.iter
        return (
            isinstance(iter_, ast.Call)
            and isinstance(iter_.func, ast.Name)
            and iter_.func.id == "range"
        )


def default_rules() -> list[Rule]:
    """The shipped rule pack, in rule-id order.

    Includes the interprocedural pack (:mod:`repro.analysis.flow_rules`);
    those rules carry ``requires_project = True`` and are skipped by the
    engine unless the analyzer holds a
    :class:`~repro.analysis.project.ProjectContext`.
    """
    from .flow_rules import flow_rules

    return [
        RawRandomRule(),
        WallClockRule(),
        UnsortedSetIterRule(),
        IdentityOrderRule(),
        *flow_rules(),
        MessageShapeRule(),
        MutateAfterSendRule(),
        SimTimeEqualityRule(),
        UnguardedTracerRule(),
        UnbalancedSpanRule(),
        RoundScanInLoopRule(),
    ]
