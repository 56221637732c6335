"""Forensics reports: waterfalls, attribution, anomalies — terminal and JSON.

``python -m repro forensics <trace.jsonl>`` drives everything here.  The
report is built from one streaming pass over the trace
(:class:`~repro.obs.tracer.TraceFile`), so it scales to traces that do not
fit in memory.  Exit status is part of the contract: non-zero when any
waterfall fails to reconcile with its measured client latency or when the
trace contains ``safety`` anomalies — CI can gate on the command alone.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from ..bench.reporting import format_table
from ..obs.tracer import TraceFile
from .provenance import (
    ProvenanceIndex,
    attribution_rows,
    build_provenance,
    reconcile,
    slowest_replicas,
    txn_waterfall,
)


def _ms(value: float) -> float:
    return round(value * 1e3, 3)


class Forensics:
    """A trace's provenance index plus its anomaly stream."""

    def __init__(
        self,
        index: ProvenanceIndex,
        anomalies: list[dict[str, Any]],
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.index = index
        self.anomalies = anomalies
        self.meta = meta

    @property
    def safety_anomalies(self) -> list[dict[str, Any]]:
        return [a for a in self.anomalies if a.get("kind") == "safety"]

    def anomaly_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for anomaly in self.anomalies:
            counts[anomaly.get("kind", "info")] = (
                counts.get(anomaly.get("kind", "info"), 0) + 1
            )
        return counts


def build_forensics(source: str | Iterable[dict[str, Any]]) -> Forensics:
    """Build the report model from a trace path or an iterable of dicts."""
    if isinstance(source, str):
        source = TraceFile(source)
    meta = source.meta if isinstance(source, TraceFile) else None
    anomalies: list[dict[str, Any]] = []

    def rows():
        # One pass: anomalies are picked off on the way into the index.
        for row in source:
            if row.get("type") == "anomaly":
                anomalies.append(row)
            yield row

    index = build_provenance(rows())
    return Forensics(index, anomalies, meta)


# -- section builders ---------------------------------------------------------


def attribution_table(forensics: Forensics) -> list[dict[str, Any]]:
    return [
        {
            "segment": row["segment"],
            "samples": row["count"],
            "mean_ms": _ms(row["mean"]),
            "p50_ms": _ms(row["p50"]),
            "p99_ms": _ms(row["p99"]),
            "max_ms": _ms(row["max"]),
            "share_%": round(100.0 * row["share"], 1),
        }
        for row in attribution_rows(forensics.index)
    ]


def replica_table(forensics: Forensics) -> list[dict[str, Any]]:
    return [
        {"node": node, "commits_paced": count}
        for node, count in slowest_replicas(forensics.index)
    ]


def commit_table(forensics: Forensics, limit: int = 10) -> list[dict[str, Any]]:
    """The slowest commits, by critical-path total."""
    index = forensics.index
    quorum = None
    if index.has_clients:
        quorums = [t.quorum for t in index.txns.values() if t.quorum is not None]
        quorum = quorums[0] if quorums else None
    rows = []
    for commit in index.ordered_commits():
        segments = commit.segments(quorum)
        if segments is None:
            continue
        rows.append(
            {
                "commit": commit.label,
                "round": commit.round,
                "proposer": commit.proposer,
                "txns": len(commit.txns),
                "total_ms": _ms(sum(segments.values())),
                **{f"{name}_ms": _ms(dur) for name, dur in segments.items()},
            }
        )
    rows.sort(key=lambda r: -r["total_ms"])
    return rows[:limit]


def anomaly_table(forensics: Forensics) -> list[dict[str, Any]]:
    counts: dict[tuple[str, str], int] = {}
    for anomaly in forensics.anomalies:
        key = (anomaly.get("kind", "info"), anomaly.get("name", "?"))
        counts[key] = counts.get(key, 0) + 1
    return [
        {"kind": kind, "anomaly": name, "count": count}
        for (kind, name), count in sorted(counts.items())
    ]


def waterfall_report(forensics: Forensics, ident: str) -> str | None:
    """Terminal waterfall drill-down for one commit (or transaction id)."""
    index = forensics.index
    commit = index.find(ident)
    txn_ids: list[str] = []
    if commit is None:
        txn = index.txns.get(ident)
        if txn is None or txn.commit_key is None:
            return None
        commit = index.commits[txn.commit_key]
        txn_ids = [ident]
    if not txn_ids:
        txn_ids = [t for t in commit.txns if t in index.txns]
    lines = [
        f"Commit {commit.label}  (round {commit.round}, proposer "
        f"{commit.proposer}, {len(commit.txns)} txns)"
    ]
    if commit.proposed_at is not None:
        lines.append(f"  proposed at t={commit.proposed_at:.6f}")
    for label, stage in (
        ("vertex delivered", commit.delivered),
        ("block available", commit.block_at),
        ("ordered", commit.ordered),
        ("executed", commit.executed),
    ):
        if stage:
            first = min(stage.values())
            last = max(stage.values())
            lines.append(
                f"  {label:<16} {len(stage)} nodes, first t={first:.6f}, "
                f"last t={last:.6f}"
            )
    waterfalls = []
    for txn_id in txn_ids:
        waterfall = txn_waterfall(index, index.txns[txn_id])
        if waterfall is not None:
            waterfalls.append(waterfall)
    if waterfalls:
        total_width = 28
        reference = waterfalls[0]
        lines.append(
            f"  critical replica: node {reference['critical_node']} "
            f"(the quorum-setting executor)"
        )
        lines.append("  per-txn critical path (ms):")
        for waterfall in waterfalls:
            segments = waterfall["segments"]
            total = waterfall["total"] or 1.0
            lines.append(f"    {waterfall['txn']}:")
            for name, duration in segments.items():
                bar = "#" * max(0, round(total_width * duration / total))
                lines.append(
                    f"      {name:<14} {_ms(duration):>10.3f}  {bar}"
                )
            lines.append(
                f"      {'total':<14} {_ms(total):>10.3f}  "
                f"(client latency {_ms(waterfall['client_latency']):.3f}, "
                f"residual {waterfall['residual']:+.2e})"
            )
    return "\n".join(lines)


# -- whole-report rendering ---------------------------------------------------


def report_json(forensics: Forensics) -> dict[str, Any]:
    reconciliation = reconcile(forensics.index)
    return {
        "meta": forensics.meta,
        "commits": len(forensics.index.ordered_commits()),
        "attribution": attribution_table(forensics),
        "slowest_replicas": replica_table(forensics),
        "slowest_commits": commit_table(forensics),
        "anomalies": anomaly_table(forensics),
        "anomaly_records": forensics.anomalies,
        "reconciliation": {
            "checked": reconciliation["checked"],
            "skipped": reconciliation["skipped"],
            "ok": reconciliation["ok"],
            "failures": reconciliation["failures"][:10],
        },
    }


def format_report(
    forensics: Forensics,
    show_attribution: bool = True,
    show_anomalies: bool = True,
) -> str:
    sections: list[str] = []
    index = forensics.index
    commits = index.ordered_commits()
    head = f"Forensics: {len(commits)} committed blocks"
    if index.has_clients:
        accepted = sum(
            1 for t in index.txns.values() if t.client_latency is not None
        )
        head += f", {accepted} accepted txns"
    if forensics.meta and forensics.meta.get("dropped"):
        head += (
            f"\nWARNING: {forensics.meta['dropped']} trace records were "
            "evicted — provenance below is partial; raise --capacity."
        )
    sections.append(head)
    if show_attribution:
        attribution = attribution_table(forensics)
        if attribution:
            sections.append(
                format_table(
                    attribution, "Critical-path attribution (per segment)"
                )
            )
        replicas = replica_table(forensics)
        if replicas:
            sections.append(
                format_table(replicas, "Slowest replicas (commits paced)")
            )
        slowest = commit_table(forensics)
        if slowest:
            sections.append(format_table(slowest, "Slowest commits"))
        reconciliation = reconcile(index)
        if reconciliation["checked"] or reconciliation["skipped"]:
            status = "OK" if reconciliation["ok"] else "FAILED"
            sections.append(
                f"Reconciliation: {status} — {reconciliation['checked']} txn "
                f"waterfalls match client latency "
                f"(tolerance 1e-9); {reconciliation['skipped']} skipped "
                f"(incomplete records); {len(reconciliation['failures'])} failed"
            )
    if show_anomalies:
        anomalies = anomaly_table(forensics)
        if anomalies:
            sections.append(format_table(anomalies, "Anomalies"))
        else:
            sections.append("Anomalies: none recorded")
    return "\n\n".join(sections)


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="forensics",
        description="Per-commit critical-path attribution and anomaly "
        "report for a repro JSONL trace",
    )
    parser.add_argument("trace", help="path to a trace.jsonl file")
    parser.add_argument(
        "--commit",
        metavar="ID",
        help="waterfall drill-down for one commit (digest prefix, "
        "round:proposer, or txn id)",
    )
    parser.add_argument(
        "--attribution",
        action="store_true",
        help="only the attribution sections",
    )
    parser.add_argument(
        "--anomalies", action="store_true", help="only the anomaly sections"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    forensics = build_forensics(args.trace)
    if args.commit:
        report = waterfall_report(forensics, args.commit)
        if report is None:
            print(f"forensics: no commit or txn matches {args.commit!r}")
            return 2
        print(report)
        return 0
    if args.json:
        print(json.dumps(report_json(forensics), indent=2))
    else:
        show_attribution = args.attribution or not args.anomalies
        show_anomalies = args.anomalies or not args.attribution
        print(
            format_report(
                forensics,
                show_attribution=show_attribution,
                show_anomalies=show_anomalies,
            )
        )
    reconciliation = reconcile(forensics.index)
    if not reconciliation["ok"] or forensics.safety_anomalies:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    raise SystemExit(main())
