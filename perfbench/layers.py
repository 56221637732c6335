"""Per-layer figures of one run, taken from outside the program.

Three sources, none of which adds instrumentation to ``src/``:

* cProfile own-time, grouped by the ``repro`` subpackage a function lives in;
  C functions form the ``builtins`` row, everything else (the standard
  library, generated dataclass methods, top-level ``repro`` modules, the
  benchmark itself and ``SyntheticWorkload``, which is the synthetic
  workloads' load generator rather than part of the SMR layer) the ``other``
  row;
* call counts and cumulative time of the layers' public entry points, looked
  up in the same profile by their code objects;
* the program's public counters, and the forensics critical-path attribution
  over a sampled ``repro.obs.Tracer``.
"""

from __future__ import annotations

import pstats
import re

from repro.consensus.vertex_rbc import VertexRbc
from repro.forensics.provenance import attribution_rows, build_provenance
from repro.sim.scheduler import Simulator
from repro.smr.client import Client
from repro.smr.executor import Executor
from repro.smr.mempool import SyntheticWorkload

#: The ``src/repro`` subpackages that run during a simulation.
LAYERS = ("sim", "net", "consensus", "rbc", "dag", "crypto", "committees", "smr", "obs")
ROWS = LAYERS + ("builtins", "other")

#: Forensics critical-path segments: the first two exist on every workload,
#: the rest only where clients submit transactions.
SEGMENTS = ("dissemination", "ordering", "mempool", "execution", "reply")

#: A forensics median needs ten samples beyond it.
MIN_SEGMENT_SAMPLES = 21

_LAYER_FILE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\][^/\\]+\.py$")


def _code_key(fn) -> tuple[str, int, str]:
    """The key cProfile files a Python function's statistics under."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


_LOAD_GENERATOR = {
    _code_key(fn) for fn in vars(SyntheticWorkload).values() if hasattr(fn, "__code__")
}


def layer_of(key: tuple[str, int, str]) -> str:
    filename = key[0]
    if filename == "~":
        return "builtins"
    match = _LAYER_FILE.search(filename)
    if match and match.group(1) in LAYERS and key not in _LOAD_GENERATOR:
        return match.group(1)
    return "other"


def entry_points(network) -> dict[str, object]:
    """Metric prefix -> the public function whose calls it counts.

    ``net.*`` counts the object the nodes send through: the raw ``Network``,
    or the ``ReliableTransport`` in front of it on lossy workloads.
    """
    return {
        "net.broadcast": type(network).broadcast,
        "net.multicast": type(network).multicast,
        "net.send": type(network).send,
        "sim.schedule": Simulator.schedule,
        "rbc.broadcast": VertexRbc.broadcast,
        "smr.on_ordered": Executor.on_ordered,
        "smr.on_response": Client.on_response,
    }


def profile_metrics(profiler, network) -> dict[str, float]:
    """Own-time per layer and entry-point call figures from one profile."""
    stats = pstats.Stats(profiler).stats
    own = dict.fromkeys(ROWS, 0.0)
    for key, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        own[layer_of(key)] += tottime
    total = sum(own.values())
    out: dict[str, float] = {}
    for row in ROWS:
        out[f"{row}.self_s"] = own[row]
        out[f"{row}.self_share"] = own[row] / total
    for prefix, fn in entry_points(network).items():
        entry = stats.get(_code_key(fn))
        out[f"{prefix}.calls"] = entry[1] if entry else 0
        out[f"{prefix}.cum_s"] = entry[3] if entry else 0.0
    return out


def counter_metrics(deployment, committed_txns: int, committed_blocks: int) -> dict:
    """The program's own counters after a run (identical traced or not)."""
    stats = deployment.network.stats
    transport = deployment.network
    retransmissions = getattr(transport, "retransmissions", 0)
    duplicates = getattr(transport, "duplicates_suppressed", 0)
    honest = [deployment.nodes[i] for i in deployment.honest_ids]
    fast = sum(node.rbc.fast_deliveries for node in honest)
    fallback = sum(node.rbc.fallback_deliveries for node in honest)
    return {
        "sim.events": deployment.sim.processed_events,
        "net.messages": stats.total_messages,
        "net.bytes": stats.total_bytes,
        "net.bytes_per_txn": stats.total_bytes / committed_txns,
        "net.messages_per_block": stats.total_messages / committed_blocks,
        "net.dropped": stats.messages_dropped,
        "net.retransmissions": retransmissions,
        "net.duplicates_suppressed": duplicates,
        # Every retransmitted copy that reaches a receiver which already had
        # the message is suppressed there; the rest recovered a lost copy
        # (or were themselves lost).
        "net.retransmit_useful_ratio": (
            1.0 - duplicates / retransmissions if retransmissions else 0.0
        ),
        "consensus.rounds": min(node.round for node in honest),
        "consensus.committed_blocks": committed_blocks,
        "consensus.no_vote_rounds": len(set().union(*(node.no_voted for node in honest))),
        "rbc.fast_deliveries": fast,
        "rbc.fallback_deliveries": fallback,
        "rbc.fast_ratio": fast / (fast + fallback) if fast + fallback else 0.0,
    }


def kind_metrics(deployment) -> dict[str, int]:
    """Bytes per message kind; needs a network built with ``track_kinds``."""
    return {
        f"net.bytes.{kind}": size
        for kind, size in deployment.network.stats.bytes_by_kind.items()
    }


def segment_metrics(tracer) -> tuple[dict[str, float], list[str]]:
    """Forensics critical-path medians, and a problem per thin segment."""
    if tracer.dropped:
        return {}, [f"tracer ring buffer dropped {tracer.dropped} records"]
    rows = {row["segment"]: row for row in attribution_rows(build_provenance(tracer.to_dicts()))}
    out = {}
    problems = []
    for seg in SEGMENTS:
        row = rows.get(seg)
        out[f"seg.{seg}_p50_s"] = row["p50"] if row else 0.0
        if row is not None and row["count"] < MIN_SEGMENT_SAMPLES:
            problems.append(
                f"segment {seg}: {row['count']} samples, "
                f"a median needs {MIN_SEGMENT_SAMPLES}"
            )
    return out, problems
