"""One workload in one fresh interpreter: set-up, warm-up, then timed rounds.

Started by ``run.py``. It prints ``ready`` when set-up ends (import latcirc,
generate the warm-up inputs, run the untimed warm-up round), then runs the
timed rounds from ``--first-round`` on as a closed loop (one caller, one job
after another) and prints one JSON line with every job's time and outcome;
``run.py`` pools several such workers and computes the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

import latcirc
import sweep
import tracer as tracing
import workloads

TRACE_ROUNDS = 2  # a fixed count, so the traced run's work counts repeat exactly


def run_job(job: workloads.Job, tracer: tracing.Tracer | None = None, job_id: int = 0) -> dict:
    """Time one job's call, then check its output; a failure is recorded, never raised."""
    start = time.perf_counter()
    try:
        if tracer is None:
            value = job.call()
        else:
            with tracer.job(job_id, job.name):
                value = job.call()
        seconds = time.perf_counter() - start
        reason = job.check(value)
    except Exception as exc:  # the harness must outlive any failing job
        seconds = time.perf_counter() - start
        return {"name": job.name, "seconds": seconds, "ok": False,
                "reason": f"{type(exc).__name__}: {exc}", "digest": None}
    return {"name": job.name, "seconds": seconds, "ok": reason is None, "reason": reason,
            "digest": _digest(job, value)}


def _digest(job: workloads.Job, value) -> str:
    sha = hashlib.sha256()
    if job.out is not None and os.path.exists(job.out):
        with open(job.out, "rb") as handle:
            sha.update(handle.read())
    if isinstance(value, np.ndarray):
        sha.update(value.tobytes())
    else:
        sha.update(repr(value).encode())
    return sha.hexdigest()


def run_rounds(workload: str, seed: int, workdir: str, first: int, *, seconds: float = 0.0,
               min_jobs: int = 0, rounds: int | None = None,
               tracer: tracing.Tracer | None = None):
    """Run rounds from index ``first`` on, either ``rounds`` of them or until about
    ``seconds`` have passed and at least ``min_jobs`` jobs ran; return the job records
    and per-round totals. A round is not begun when it would end, on the pace of the
    last one, more than half a round past ``seconds``.
    """
    records, per_round = [], []
    wall0 = time.perf_counter()
    index = first
    while True:
        start, cpu = time.perf_counter(), time.process_time()
        batch = [run_job(job, tracer, len(records) + k)
                 for k, job in enumerate(workloads.make_round(workload, seed, index, workdir))]
        per_round.append({"jobs": len(batch), "ok": sum(r["ok"] for r in batch),
                          "wall_s": time.perf_counter() - start,
                          "cpu_s": time.process_time() - cpu})
        records += batch
        index += 1
        if rounds is not None:
            if index - first >= rounds:
                break
        elif (time.perf_counter() - wall0 + per_round[-1]["wall_s"] / 2 >= seconds
              and len(records) >= min_jobs):
            break
    return records, per_round


def _brief(record: dict) -> dict:
    return {k: record[k] for k in ("name", "seconds", "ok", "reason")}


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return int(getter())
    return None


def provenance() -> dict:
    import scipy

    return {"latcirc": latcirc.__version__, "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def traced_run(args, workdir: str) -> dict:
    """TRACE_ROUNDS rounds untraced, the same rounds traced, then the sweeps."""
    plain, plain_rounds = run_rounds(args.workload, args.seed, workdir, 1, rounds=TRACE_ROUNDS)
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    with tracer:
        traced, traced_rounds = run_rounds(args.workload, args.seed, workdir, 1,
                                           rounds=TRACE_ROUNDS, tracer=tracer)
    plain_wall = sum(r["wall_s"] for r in plain_rounds)
    traced_wall = sum(r["wall_s"] for r in traced_rounds)
    restored = tracing.snapshot() == before
    same = [r["digest"] for r in plain] == [r["digest"] for r in traced]
    with open(args.spans, "w") as handle:
        json.dump({"fields": ["id", "parent", "job", "name", "start_s", "end_s"],
                   "spans": tracer.spans}, handle, separators=(",", ":"))
    sweeps = {}
    for name, fn in (("statevector", sweep.statevector_sweep), ("gauge", sweep.gauge_sweep)):
        try:
            sweeps[name] = fn()
        except Exception as exc:  # a sweep that no longer fits the API is reported, not fatal
            sweeps[name] = f"{type(exc).__name__}: {exc}"
    records = plain + traced
    failed = sum(not r["ok"] for r in records)
    return {
        "records": [_brief(r) for r in plain],
        "attempted": len(records), "failed": failed,
        "correct": failed == 0 and same and restored,
        "metrics": tracer.metrics(traced_wall / plain_wall - 1.0),
        "details": {"rounds": TRACE_ROUNDS, "untraced_wall_s": plain_wall,
                    "traced_wall_s": traced_wall, "traced_outputs_equal": same,
                    "namespaces_restored": restored, "spans": len(tracer.spans),
                    "sweep": sweeps,
                    "failures": [r for r in records if not r["ok"]][:20]},
    }


def timed_run(args, workdir: str) -> dict:
    records, per_round = run_rounds(args.workload, args.seed, workdir, args.first_round,
                                    seconds=args.seconds, min_jobs=args.min_jobs)
    return {"records": [_brief(r) for r in records],
            "rounds": per_round,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--first-round", type=int, default=1)
    parser.add_argument("--min-jobs", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="work-", dir=args.workdir)
    try:
        for job in workloads.make_round(args.workload, args.seed, 0, workdir):
            run_job(job)  # untimed warm-up round
        print("ready", flush=True)
        outcome = traced_run(args, workdir) if args.trace else timed_run(args, workdir)
        if args.workload == "verify":
            probe = run_job(workloads.known_defect_probe(workdir))
            outcome["known_defect"] = {k: probe[k] for k in ("name", "ok", "reason")}
        outcome["provenance"] = provenance()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
