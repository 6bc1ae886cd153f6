"""padicqft benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload {quadrature,mc,lattice,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.
Set-up is timed in SETUPS fresh worker processes (interpreter start, import,
inputs) and reported as their median; the last of them then measures whole
rounds of the workload for S seconds.  ``--trace 1`` reports the per-layer
metrics of a traced run instead of the end-to-end ones.  Details of every
run are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

SETUPS = 9
DEADLINE_S = 170.0  # a run must end within 180 s
WORKLOADS = ("quadrature", "mc", "lattice", "cli")
HERE = Path(__file__).resolve().parent


def start_worker(args) -> tuple[subprocess.Popen, float]:
    """Start one worker and return it with the seconds it took to become ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    return proc, took


def finish(proc: subprocess.Popen, command: str) -> str:
    out, _ = proc.communicate(command + "\n")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "padicqft" / "__init__.py").is_file():
        print("error: run from the root of a padicqft checkout (src/padicqft not found)",
              file=sys.stderr)
        return 2

    setups, procs = [], []
    watchdog = threading.Timer(DEADLINE_S, lambda: [p.kill() for p in procs])
    watchdog.start()
    try:
        for i in range(SETUPS):
            proc, took = start_worker(args)
            procs.append(proc)
            setups.append(took)
            if i < SETUPS - 1:
                finish(proc, "exit")
        lines = finish(procs[-1], "run").strip().splitlines()
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()

    result["setups_s"] = setups
    if args.trace:
        from spans import unit_of

        metrics = {m: {"value": v, "unit": unit_of(m)} for m, v in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_s": {"value": result["round_s"], "unit": "s"},
            "round_cpu_s": {"value": result["round_cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for failure in result["unexpected_failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
