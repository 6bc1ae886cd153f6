"""Run a set of benchmark runs and report each metric's median and spread.

    python3 perfbench/steadiness.py --workloads quadrature,mc,lattice,cli \
        --seeds 1-10 --label set1

Run from the root of a checkout.  Each run measures for BENCHMARK.json's
``run_seconds``.  Runs are interleaved across workloads.  The spread is the
distance between the first and third quartile of the runs
(statistics.quantiles, n=4) as a share of their median.  Results go to ``.perfbench/steadiness-<label>.json``;
compare two labels with ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(workloads, seeds, seconds) -> dict:
    """Ten runs per workload, interleaved so that each workload's runs span the
    whole set and its spread includes the machine's drift over that time."""
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            runs[workload].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(workload, seed, json.dumps(runs[workload][-1]), flush=True)
    out = {}
    for workload, rs in runs.items():
        out[workload] = {
            "metrics": {m: summary([r["metrics"][m]["value"] for r in rs]) for m in rs[0]["metrics"]},
            "failed_share": sorted({r["failed"] / r["attempted"] for r in rs}),
            "correct": all(r["correct"] for r in rs),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="quadrature,mc,lattice,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="set")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    store = Path.cwd() / ".perfbench"
    store.mkdir(exist_ok=True)
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    if args.compare:
        first, second = (json.loads((store / f"steadiness-{x}.json").read_text()) for x in args.compare)
        for workload in first:
            for m, a in first[workload]["metrics"].items():
                b = second[workload]["metrics"][m]
                drift = b["median"] / a["median"] - 1
                print(f"{workload:10s} {m:12s} median {a['median']:.4g} -> {b['median']:.4g} "
                      f"({drift:+.1%}); spread {a['spread']:.1%} / {b['spread']:.1%}; "
                      f"bound {bounds[m]:.0%}")
            print(f"{workload:10s} failed share {first[workload]['failed_share']} / "
                  f"{second[workload]['failed_share']}")
        return 0

    result = run_set(args.workloads.split(","), seeds_of(args.seeds), bench["run_seconds"])
    (store / f"steadiness-{args.label}.json").write_text(json.dumps(result, indent=1) + "\n")
    for workload, data in result.items():
        for m, s in data["metrics"].items():
            print(f"{workload:10s} {m:12s} median {s['median']:.4g} spread {s['spread']:.1%} "
                  f"(bound {bounds[m]:.0%})")
        print(f"{workload:10s} failed share {data['failed_share']} correct {data['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
