"""One benchmark process: build a workload's inputs, then measure it on request.

Started by run.py from the root of a checkout.  After set-up it prints
``ready`` and waits for one line on stdin: ``run`` measures whole rounds for
the requested seconds and prints one JSON line; anything else exits, which
is how run.py times set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def run_round(workload, index: int, span, tracer) -> dict:
    ctx = {"round": index, "span": span}
    walls, cpus = {}, {}
    failures = []
    for op in workload.ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = op.call(ctx), None
        except Exception as exc:  # a raising call is a failed operation, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        walls[op.name] = time.perf_counter() - t0
        cpus[op.name] = time.process_time() - c0
        if error is None:
            try:
                op.check(result, op.ref_value)
            except Exception as exc:  # malformed output can break a check in any way
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((op.name, error))
    layers = tracer.take() if tracer is not None else None
    return {"wall": sum(walls.values()), "cpu": sum(cpus.values()), "op_walls": walls,
            "failures": failures, "layers": layers}


def measure(workload, seconds: float, trace: bool) -> dict:
    workload.prepare()
    tracer = None
    if trace:
        from spans import Tracer, round_metrics, unit_of

        tracer = Tracer()
        tracer.install()
        span = tracer.call
    else:
        def span(name, fn, *args, **kwargs):
            return fn(*args, **kwargs)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, len(rounds), span, tracer))

    failures = [f for r in rounds for f in r["failures"]]
    unexpected = sorted({f"{name}: {err}" for name, err in failures
                         if name not in workload.expected_failures})
    out = {
        "rounds": len(rounds),
        "ops_per_round": len(workload.ops),
        "attempted": len(rounds) * len(workload.ops),
        "failed": len(failures),
        "correct": not unexpected,
        "unexpected_failures": unexpected,
        "expected_failures": sorted({f"{n}: {e}" for n, e in failures
                                     if n in workload.expected_failures}),
        "round_s": statistics.median(r["wall"] for r in rounds),
        "round_cpu_s": statistics.median(r["cpu"] for r in rounds),
        "round_walls": [r["wall"] for r in rounds],
        "round_cpus": [r["cpu"] for r in rounds],
        "op_walls": {name: [r["op_walls"][name] for r in rounds] for name in rounds[0]["op_walls"]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": workload.meta,
    }
    if tracer is not None:
        per_round = [round_metrics(*r["layers"]) for r in rounds]
        # counts repeat exactly from round to round; median_low keeps them whole
        out["layers"] = {m: (statistics.median_low if unit_of(m) == "count" else statistics.median)(
            pr[m] for pr in per_round) for m in per_round[0]}
        out["layers_per_round"] = per_round
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed, root)
    print("ready", flush=True)
    try:
        if sys.stdin.readline().strip() != "run":
            return 0
        result = measure(workload, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workload.cleanup()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
