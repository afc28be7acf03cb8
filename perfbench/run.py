"""cforge benchmark: time to a certified map, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corner --seed 1 --seconds 20 --trace 0

Each workload runs in this single process against the sources under
``src/`` (nothing is installed).  The process imports cforge, numpy and
scipy and warms up once, then runs jobs in a closed loop with one client
until the next job would end past ``--seconds`` (always at least one), and
checks every output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics computed from the traced jobs' spans, plus the tracing overhead.
The last line of standard output is one JSON object; the lines before it
are a readable summary, and the full record (environment included) is
written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("corner", "smooth", "slender", "cli")
# BLAS runs single-threaded: the spread between runs is several times
# smaller than at the library default, and it never exceeds nproc
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-ups measured in fresh processes, on top of this process's own
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "job_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "neg_residual": "plane",
    "accuracy_err": "abs",
    "ok_frac": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no sources, no successful job)."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("CFORGE_THREADS", None)


def setup(workload: str, seed: int, workdir: str):
    """Import cforge from this checkout, numpy and scipy, build the
    workload's inputs and run its warm-up.  Returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import cforge

    if not os.path.abspath(cforge.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"cforge imported from {cforge.__file__}, not {SRC}")
    import workloads

    wl = workloads.make_workload(workload, seed, workdir)
    warm = wl.warmup()
    if not warm.ok:
        raise BenchmarkError(f"warm-up job failed: {warm.errors}")
    return wl, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh process of this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, tracer=None, targets=(), modules=()):
    """Closed loop of rounds until the next job would end past the limit.

    The workload's batch runs once first.  With a tracer, the batch is
    traced and rounds alternate untraced / traced (at least one whole
    round of each).  The limit is checked after every job, not every
    round, so the number of jobs in a run varies by at most about one.
    Returns ([(batch result, traced, job id)], [(job result, traced, job
    id)], elapsed).
    """

    def call(job, job_id, traced):
        if not traced:
            return job()
        tracer.job = job_id
        tracer.install(modules, targets)
        try:
            return job()
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    deadline = start + seconds
    on = tracer is not None
    batch = [(call(op, job_id, on), on, job_id) for job_id, op in wl.batch()]
    jobs, job_times = [], []
    index = 0
    while True:
        traced = on and index % 2 == 1
        rnd = wl.round(index)
        for pos, job in enumerate(rnd):
            job_id = f"j{len(jobs):04d}"
            t0 = time.perf_counter()
            jobs.append((call(job, job_id, traced), traced, job_id))
            now = time.perf_counter()
            job_times.append(now - t0)
            # with a tracer, the first untraced and first traced rounds finish
            if on and (index == 0 or (index == 1 and pos + 1 < len(rnd))):
                continue
            if now + statistics.median(job_times) > deadline:
                return batch, jobs, now - start
        index += 1


def job_seconds(results) -> float:
    """Mean over job kinds of the median wall time of the kind's
    successful jobs (one kind except on ``cli``)."""
    by_kind = defaultdict(list)
    for res in results:
        if res.ok:
            by_kind[res.kind].append(res.seconds)
    if not by_kind:
        errors = [e for res in results for e in res.errors]
        raise BenchmarkError(f"no job succeeded; first failure: {errors[:1]}")
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def _worst(results, attr):
    values = [getattr(r, attr) for r in results if r.ok and getattr(r, attr) is not None]
    return max(values) if values else None


def summarize(workload, batch, jobs, elapsed, setup_s):
    """Every metric of the summary, with ``None`` where it does not apply.

    Times, throughput and accuracy come from the untraced jobs (batch jobs
    included, ``verify all`` not); operation counts cover every job run.
    """
    runs = batch + jobs
    timed = [res for res, traced, _ in runs if not traced and res.kind != "verify"]
    ops = [res for res, _, _ in runs]
    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    good = [r for r in timed if r.ok]
    angle = _worst(timed, "corner_angle_err")
    sup = _worst(timed, "sup_deviation")
    all_untraced = not any(traced for _, traced, _ in runs)
    return {
        "job_s": job_seconds(timed),
        "jobs_per_s": len(good) / elapsed if all_untraced else None,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sup_deviation": sup,
        "neg_residual": _worst(timed, "neg_residual"),
        "corner_angle_err": angle,
        "accuracy_err": angle if workload == "corner" else sup,
        "failed_frac": failed / attempted,
        "ok_frac": (attempted - failed) / attempted,
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(r.wrong for r in ops),
        "jobs": len(timed),
        "jobs_ok": len(good),
        "elapsed_s": elapsed,
    }


def environment(args) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cforge_threads": os.environ.get("CFORGE_THREADS", "default (1)"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(args, env, summary, layers, jobs, batch) -> dict:
    """Print the readable summary, write the full record, return the
    contract's result object."""
    print(f"# cforge benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  blas {env['blas']} x{BLAS_THREADS}  nproc {env['nproc']}"
          f"  CFORGE_THREADS {env['cforge_threads']}")
    names = ("job_s", "jobs_per_s", "setup_s", "peak_rss_mb", "sup_deviation",
             "neg_residual", "corner_angle_err", "failed_frac")
    for name in names:
        print(f"# {name:18} {_fmt(summary[name])}")
    print(f"# ops {summary['attempted']} attempted, {summary['failed']} failed "
          f"({summary['wrong']} wrong outputs); {summary['jobs_ok']} of "
          f"{summary['jobs']} jobs ok in {summary['elapsed_s']:.2f} s")
    errors = sorted({e for r, _, _ in batch + jobs for e in r.errors})
    for err in errors:
        print(f"# failure: {err[:200]}")
    if layers is not None:
        for name, value in layers.items():
            print(f"# {name:34} {_fmt(value)}")

    record = {
        "env": env,
        "metrics": summary,
        "per_layer": layers,
        "jobs": [
            {"id": jid, "kind": r.kind, "traced": traced, "seconds": r.seconds,
             "attempted": r.attempted, "failed": r.failed, "errors": r.errors}
            for r, traced, jid in batch + jobs
        ],
    }
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.PER_LAYER.items()}
    else:
        for name in END_TO_END:
            if summary[name] is None:
                raise BenchmarkError(f"{name} was not measured")
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "cforge", "__init__.py")):
        raise BenchmarkError(f"no cforge sources under {SRC}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl, own_setup = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            return {"setup_s": own_setup}
        setups = [own_setup] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        setup_s = statistics.median(setups)
        env = environment(args)
        env["setup_samples_s"] = setups

        tracer = None
        targets = modules = ()
        if args.trace:
            import workloads

            tracer = tracing.Tracer()
            targets = workloads.trace_targets(tracer)
            modules = workloads.MODULES
        batch, jobs, elapsed = measure(wl, args.seconds, tracer, targets, modules)
        summary = summarize(args.workload, batch, jobs, elapsed, setup_s)
        layers = None
        if tracer is not None:
            traced = [(r, jid) for r, was_traced, jid in batch + jobs
                      if was_traced and jid != "verify"]
            layers = tracing.layer_metrics(tracer.spans, [jid for _, jid in traced])
            layers["cli.bytes_written"] = statistics.fmean(r.bytes_written for r, _ in traced)
            layers["trace.job_s"] = job_seconds([r for r, _ in traced])
            layers["trace.overhead_s"] = layers["trace.job_s"] - summary["job_s"]
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        return report(args, env, summary, layers, jobs, batch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    pin_threads()
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(result["setup_s"]))
    else:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
