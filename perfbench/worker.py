"""One repeat of one workload in a fresh process; prints one JSON line.

Started by ``perfbench/run.py``, which passes the time it spawned the
process so that set-up time counts interpreter start-up and imports.  Modes:

* ``setup``  — build the run and stop (a set-up time sample);
* ``run``    — build, run untraced to the horizon, measure, check;
* ``traced`` — the same under cProfile with a sampled ``repro.obs.Tracer``.

The JSON line holds ``det`` (simulated results and counters, which must
repeat exactly for one seed), ``host`` (timings and memory), ``problems``
(failed correctness checks; empty when all passed) and, when traced,
``profile`` (per-layer cProfile figures).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--horizon", type=float, default=None,
                        help="override the workload's simulated horizon")
    args = parser.parse_args(argv)

    import layers
    from workloads import WORKLOADS, CheckFailed

    from repro.obs import Tracer

    spec = WORKLOADS[args.workload]
    tracer = Tracer(sample=spec.trace_sample) if args.mode == "traced" else None
    run = spec.build(args.seed, tracer=tracer, horizon=args.horizon)
    host = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps({"det": {}, "host": host, "problems": []}))
        return 0

    profiler = cProfile.Profile() if tracer is not None else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    run.start()
    run.run()
    if profiler is not None:
        profiler.disable()
    host["wall_s"] = time.perf_counter() - start
    host["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    try:
        run.check()
    except CheckFailed as exc:
        problems.append(str(exc))
    det = run.measure()
    det.update(layers.counter_metrics(
        run.deployment, det["committed_txns"], det["committed_blocks"]
    ))
    result = {"det": det, "host": host, "problems": problems}
    if tracer is not None:
        result["profile"] = layers.profile_metrics(profiler, run.deployment.network)
        det.update(layers.kind_metrics(run.deployment))
        segments, thin = layers.segment_metrics(tracer)
        det.update(segments)
        problems.extend(thin)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
