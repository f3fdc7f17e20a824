"""The epigraph benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload train|eval|gradcheck --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in.  ``setup_s`` is the median time to import
the program in a fresh interpreter plus the median of three set-ups of
the workload.  The timed job then repeats in a closed loop, one caller
and one process, until ``--seconds`` have passed and at least the
workload's minimum repeats are done; throughput is ops per
``fastest_seconds``, one job's time at the fastest speed the repeats saw.
Every output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs set-up
and job once without and once with spans around each module's functions,
reports the per-layer metrics and the tracing overhead, and writes the
spans to ``.bench_out/<workload>/spans.npz``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give the environment, every metric
under its per-workload name and the failures by exception class.
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
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
IMPORT_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from epigraph import cli, config, epipolar, losses, metrics, nn, synth, train
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "eval", "gradcheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_program():
    """Import epigraph from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "epigraph", "__init__.py")):
        raise ImportError(f"no epigraph sources under {SRC}")
    sys.path.insert(0, SRC)
    import epigraph
    if os.path.dirname(os.path.dirname(os.path.abspath(epigraph.__file__))) != SRC:
        raise ImportError(f"epigraph was imported from {epigraph.__file__}, not {SRC}")
    import workloads
    return workloads


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "commit": git_commit(), "seed": seed}


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_job(w, wl):
    """One timed job; a job that raises counts every planned operation as
    failed and reports no work."""
    t0 = time.perf_counter()
    try:
        o = w.job()
    except Exception as e:
        o = wl.Outcome(ops=0, attempted=w.planned(), failed=w.planned(),
                       error=f"{type(e).__name__}: {e}")
    o.seconds = time.perf_counter() - t0
    return o


def measure(w, wl, seconds: int):
    setups = [timed(w.setup) for _ in range(SETUP_REPEATS)]
    outcomes = []
    t0 = time.perf_counter()
    while len(outcomes) < w.min_repeats or time.perf_counter() - t0 < seconds:
        outcomes.append(run_job(w, wl))
        if outcomes[-1].error:
            break
    return setups, outcomes


def end_to_end(w, wl, setup_s: float, outcomes) -> dict:
    """{name: (value, unit)} under the per-workload names; the metrics
    BENCHMARK.json lists are drawn from these."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    out = {"setup_s": (setup_s, "s")}
    if not any(o.error for o in outcomes):
        out[w.ops_metric] = (outcomes[0].ops / wl.fastest_seconds(outcomes), "1/s")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out["failed_ratio"] = (failed / attempted, "ratio")
    for name, unit in w.quality_units.items():
        if name in outcomes[-1].quality:
            out[name] = (outcomes[-1].quality[name], unit)
    return out


def listed_metrics(w, named: dict) -> dict:
    """The workload-neutral end-to-end metrics of BENCHMARK.json."""
    return {"setup_s": named["setup_s"],
            "ops_per_s": named[w.ops_metric],
            "peak_rss_mb": named["peak_rss_mb"],
            "ok_ratio": (1.0 - named["failed_ratio"][0], "ratio")}


def run_untraced(w, wl, seconds: int, import_s: float):
    setups, outcomes = measure(w, wl, seconds)
    problems = [o.error for o in outcomes if o.error] or w.check(outcomes)
    named = end_to_end(w, wl, import_s + statistics.median(setups), outcomes)
    for name, (value, unit) in named.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"repeats {len(outcomes)} job_s "
          + " ".join(f"{o.seconds:.3f}" for o in outcomes)
          + " setup_s " + " ".join(f"{s:.3f}" for s in setups)
          + f" import_s {import_s:.3f}")
    metrics = {} if problems else listed_metrics(w, named)
    return outcomes, problems, metrics, {"end_to_end": named}


def run_traced(w, wl, out_dir: str):
    import tracing

    plain = timed(w.setup)
    plain_job = run_job(w, wl)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        tracer.run_id = tracing.SETUP
        traced = timed(w.setup)
        tracer.run_id = tracing.JOB
        traced_job = run_job(w, wl)
    outcomes = [plain_job, traced_job]
    # set-up at wall time, job at the fastest speed it saw (as for ops_per_s)
    job_s = (lambda o: o.seconds) if plain_job.error or traced_job.error \
        else (lambda o: wl.fastest_seconds([o]))
    untraced_s = plain + job_s(plain_job)
    overhead_s = traced + job_s(traced_job) - untraced_s
    tracer.save(os.path.join(out_dir, "spans.npz"))
    totals = {run: tracer.totals(run) for run in (tracing.SETUP, tracing.JOB)}
    layers = tracing.layer_metrics(tracer, totals, overhead_s, untraced_s)
    problems = [o.error for o in outcomes if o.error] or w.check(outcomes)
    for run, what, spans in ((tracing.SETUP, "set-up", w.setup_spans),
                             (tracing.JOB, "job", w.spans)):
        problems += [f"traced {what} recorded no call of {span}" for span in spans
                     if totals[run].get(span, {}).get("calls", 0) == 0]
    for name, (value, unit) in layers.items():
        print(f"layer {name} {value!r} {unit}")
    print(f"untraced_s {untraced_s:.3f} traced_s {untraced_s + overhead_s:.3f}")
    metrics = {} if problems else layers
    return outcomes, problems, metrics, {"per_layer": layers,
                                         "job_spans": totals[tracing.JOB],
                                         "setup_spans": totals[tracing.SETUP]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl = import_program()
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2

    os.environ.pop("EPIGRAPH_OUT_ROOT", None)  # outputs stay under .bench_out
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    w = wl.WORKLOADS[args.workload](out_dir, args.seed)
    if args.trace:
        outcomes, problems, metrics, extra = run_traced(w, wl, out_dir)
    else:
        outcomes, problems, metrics, extra = run_untraced(w, wl, args.seconds,
                                                          import_seconds())

    failures = sum((o.failures for o in outcomes), Counter())
    print("failures " + (" ".join(f"{k}={v}" for k, v in sorted(failures.items()))
                         or "none"))
    for p in problems:
        print(f"check failed: {p}")
    result = {"correct": not problems,
              "attempted": sum(o.attempted for o in outcomes),
              "failed": sum(o.failed for o in outcomes),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"env": env, "workload": args.workload, "trace": args.trace,
                   "problems": problems, "failures": dict(failures), **extra,
                   "result": result}, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
