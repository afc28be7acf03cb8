"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads corner smooth --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per (workload, seed), one process at a
time, and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, compared with a
third of the metric's bound in ``BENCHMARK.json``.  ``--out`` also writes
the values and the environment of the last run as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            s = spread([r["metrics"][name]["value"] for r in runs])
            metrics[name] = s
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:34} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bound}  {mark}", flush=True)
        summary[workload] = {"seeds": args.seeds, "metrics": metrics}
    if args.out:
        env_path = os.path.join(ROOT, ".perfbench",
                                f"result-{args.workloads[-1]}-seed{args.seeds[-1]}"
                                f"-trace{args.trace}.json")
        with open(env_path, encoding="utf-8") as fh:
            env = json.load(fh)["env"]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "run_seconds": bench["run_seconds"],
                       "workloads": summary}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
