#!/usr/bin/env python3
"""Benchmark of the DAG-BFT simulator: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload clan-n12 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload smr-lossy-2clan --trace 1
    python3 perfbench/run.py --self-test

Each repeat runs one workload single-threaded to a fixed simulated horizon in
a fresh worker process (``perfbench/worker.py``), one process at a time.
Repeats continue while another one fits in ``--seconds``; host figures are
the medians over repeats, and the simulated figures must repeat exactly.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` alternates untraced and traced (cProfile plus a sampled tracer) repeats
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check prints ``"correct": false`` and exits 1.

``--self-test`` checks the harness against the committed smoke baseline and
reports the known hash-salt defect of the SMR workload (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Set-up time is the median of at least this many worker start-ups per run.
MIN_SETUPS = 9
#: Every run must end within 180 s; stop workers well before that.
RUN_BUDGET_S = 170.0
#: The horizon of ``benchmarks/baselines/smoke.json``.
SMOKE_HORIZON = 6.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(
    workload: str,
    seed: int,
    mode: str,
    deadline: float,
    hash_seed: int | None = None,
    horizon: float | None = None,
) -> dict:
    """Run one repeat in a fresh process and return its JSON result.

    The workload's string hashing is salted from the seed (``PYTHONHASHSEED``)
    because the SMR layer routes transactions by ``hash`` (see README.md).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str((seed if hash_seed is None else hash_seed) % 2**32)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if horizon is not None:
        cmd += ["--horizon", repr(horizon)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mismatches(first: dict, other: dict) -> list[str]:
    """Keys both results carry whose values differ."""
    return sorted(k for k in first.keys() & other.keys() if first[k] != other[k])


def repeat_until(seconds: float, start: float, step) -> list:
    """Call ``step`` at least once, and again while one more call is expected
    to finish within ``seconds`` of ``start``."""
    results = [step()]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(step())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Run the repeats of one benchmark run.

    Returns ``(values, det, problems)``: every metric value the run measured,
    the simulated results of its first repeat, and failed checks.
    """
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S

    def worker(mode: str) -> dict:
        return run_worker(workload, seed, mode, deadline)

    if trace:
        pairs = repeat_until(seconds, start, lambda: (worker("run"), worker("traced")))
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
    else:
        plain = repeat_until(seconds, start, lambda: worker("run"))
        traced = []
    det = plain[0]["det"]
    problems = [p for r in plain + traced for p in r["problems"]]
    for index, other in enumerate(plain[1:] + traced, start=1):
        differ = mismatches(det, other["det"])
        if differ:
            problems.append(f"repeat {index} of seed {seed} differs from repeat 0 on {differ}")

    def median(results: list, key: str, part: str = "host") -> float:
        return statistics.median(r[part][key] for r in results)

    values = dict(det)
    wall = median(plain, "wall_s")
    values["wall_s"] = wall
    values["peak_rss_mb"] = median(plain, "peak_rss_mb")
    values["sim.events_per_s"] = det["sim.events"] / wall
    if trace:
        values.update(traced[0]["det"])
        for key in traced[0]["profile"]:
            values[key] = median(traced, key, "profile")
        values["trace.overhead_ratio"] = median(traced, "wall_s") / wall
    else:
        setups = [r["host"]["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(worker("setup")["host"]["setup_s"])
        values["setup_s"] = statistics.median(setups)
    return values, det, problems


def fold_kinds(values: dict, units: dict) -> None:
    """Sum the bytes of message kinds BENCHMARK.json does not name into
    ``net.bytes.other``; a declared kind never sent is 0."""
    other = 0
    for key in [k for k in values if k.startswith("net.bytes.")]:
        if key not in units:
            other += values.pop(key)
    for key in units:
        if key.startswith("net.bytes."):
            values.setdefault(key, 0)
    values["net.bytes.other"] = other


def bench(args, spec: dict) -> int:
    trace = args.trace == 1
    values, det, problems = measure(args.workload, args.seed, args.seconds, trace)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        fold_kinds(values, units)
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")

    attempted, failed = det["attempted"], det["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  operations due before the drain window: {attempted}, never "
          f"committed: {failed} (uncommitted_ratio {failed / attempted:.6f})")
    print(f"  latency samples: {det['sim.latency_samples']}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>18.6f} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def self_test() -> int:
    """Cross-check the harness against the smoke baseline, then report the
    hash-salt defect of the SMR workload."""
    deadline = time.monotonic() + 10 * RUN_BUDGET_S
    failures = []

    with open(ROOT / "benchmarks" / "baselines" / "smoke.json") as fh:
        baseline = json.load(fh)
    smoke = [run_worker("clan-n12", 7, "run", deadline, horizon=SMOKE_HORIZON)
             for _ in range(2)]
    det = smoke[0]["det"]
    expected = [
        ("sim_tps", det["sim_tps"], baseline["throughput_tps"]),
        ("sim.window_txns", det["sim.window_txns"], baseline["committed_txns"]),
        ("sim.events", det["sim.events"], baseline["sim_events"]),
        ("consensus.rounds", det["consensus.rounds"], baseline["rounds"]),
        ("sim_latency_p95_s", round(det["sim_latency_p95_s"], 4), baseline["p95_latency_s"]),
    ]
    for key, got, want in expected:
        status = "ok" if got == want else "MISMATCH"
        print(f"smoke cross-check {key}: {got} (baseline {want}) {status}")
        if got != want:
            failures.append(f"clan-n12 at the smoke horizon: {key} {got} != {want}")
    differ = mismatches(det, smoke[1]["det"])
    print(f"smoke repeat identical: {not differ}")
    if differ:
        failures.append(f"two smoke runs differ on {differ}")

    # Known defect: SmrRuntime.submit routes by the salted str hash, so the
    # SMR workload's results depend on PYTHONHASHSEED.
    salts = (7, 8)
    runs = [run_worker("smr-lossy-2clan", 7, "run", deadline, hash_seed=s)["det"]
            for s in salts]
    differ = mismatches(runs[0], runs[1])
    if differ:
        print(f"KNOWN DEFECT reproduced: smr-lossy-2clan seed 7 under PYTHONHASHSEED "
              f"{salts[0]} and {salts[1]} diverges on {len(differ)} results, e.g.")
        for key in ("sim.events", "sim_latency_p50_s"):
            print(f"  {key}: {runs[0][key]} vs {runs[1][key]}")
    else:
        print("smr-lossy-2clan no longer depends on PYTHONHASHSEED: the hash-salt "
              "defect is fixed; update perfbench/README.md")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the simulator's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        with open(SPEC) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        return bench(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
