"""latcirc benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload {fixed,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root. With ``--trace 0`` the workload runs in
WORKERS fresh interpreters (``worker.py``), one after another. Each is a closed
loop: one caller, jobs one after another, BLAS threads at their default. Each
reports its set-up time and then times its share of ``--seconds``, on rounds
of its own; the end-to-end metrics pool the jobs and rounds of all of them, and
``setup_s`` is the median of their set-up times. Pooling several processes
also averages out whatever one process's memory layout adds to its speed.
With ``--trace 1`` one worker runs a fixed number of rounds untraced and again
traced, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full report with
provenance, per-job timings and (traced) the dimension sweeps goes to
``benchmark/results/``.

Seeds: pick any seed while developing a change; claims of a gain must also
hold on HELD_OUT_SEED, which is kept out of development runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HELD_OUT_SEED = 271828
WORKERS = 3
MIN_JOBS = 100  # so that at least ten job times lie beyond the 90th percentile
ROUND_STRIDE = 100_000  # worker k times rounds from 1 + k * ROUND_STRIDE on
DEADLINE_S = 170.0  # the whole call, all worker processes included

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git or leaving the checkout."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable (not a git checkout)"
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    return f"unresolved {ref[5:]}"


class Worker:
    """One worker process; ``ready()`` returns the seconds from spawn to end of set-up."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.deadline = deadline
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                                     stdout=subprocess.PIPE, text=True, env=env)

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"deadline of {DEADLINE_S:.0f} s passed")
        return left

    def ready(self) -> float:
        readable, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        line = self.proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - self.start
        if line.strip() != "ready":
            raise BenchError(f"worker did not finish set-up (got {line.strip()!r})")
        return elapsed

    def finish(self) -> str:
        out, _ = self.proc.communicate(timeout=self._remaining())
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def end_to_end(records: list[dict], per_round: list[dict],
               peak_rss_mib: float) -> tuple[dict, dict]:
    """Every end-to-end metric but ``setup_s``.

    Throughput and CPU cost are medians over rounds, so that a burst of load
    from outside the process moves them less than a whole-run ratio would.
    """
    times = sorted(r["seconds"] for r in records)
    n, ok = len(times), sum(r["ok"] for r in records)
    rank90 = math.ceil(0.9 * n)
    return {
        "jobs_per_s": {"value": statistics.median(r["ok"] / r["wall_s"] for r in per_round),
                       "unit": "1/s"},
        "job_s_p50": {"value": statistics.median(times), "unit": "s"},
        "job_s_p90": {"value": times[rank90 - 1], "unit": "s"},
        "cpu_s_per_job": {"value": statistics.median(r["cpu_s"] / r["jobs"] for r in per_round),
                          "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "ok_ratio": {"value": ok / n, "unit": "1"},
    }, {"samples": n, "samples_beyond_p90": n - rank90}


def summarize(records: list[dict]) -> dict:
    by_name: dict[str, list[float]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r["seconds"])
    return {name: {"count": len(ts), "median_s": statistics.median(ts), "samples_s": ts}
            for name, ts in by_name.items()}


def run_workers(argvs: list[list[str]], root: str) -> list[tuple[float, dict]]:
    """Start the workers one after another; return each one's set-up time and outcome."""
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    results = []
    for argv in argvs:
        worker = Worker(argv, env, deadline)
        try:
            setup = worker.ready()
            results.append((setup, json.loads(worker.finish().strip().splitlines()[-1])))
        finally:
            worker.kill()
    return results


def measure(args, root: str) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", RESULTS]
    if args.trace:
        spans = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.json")
        results = run_workers([base + ["--trace", "1", "--spans", spans]], root)
    else:
        results = run_workers([base + ["--seconds", str(args.seconds / WORKERS),
                                       "--min-jobs", str(math.ceil(MIN_JOBS / WORKERS)),
                                       "--first-round", str(1 + k * ROUND_STRIDE)]
                               for k in range(WORKERS)], root)
    first = results[0][1]
    details = {"provenance": first["provenance"]}
    if "known_defect" in first:
        details["known_defect"] = first["known_defect"]
    if args.trace:
        details.update(first["details"], jobs=summarize(first["records"]),
                       spans_file=os.path.relpath(spans, root))
        return {key: first[key] for key in ("correct", "attempted", "failed", "metrics")} | {
            "details": details}
    records = [r for _, outcome in results for r in outcome["records"]]
    rounds = [r for _, outcome in results for r in outcome["rounds"]]
    metrics, samples = end_to_end(records, rounds,
                                  max(outcome["peak_rss_mib"] for _, outcome in results))
    metrics["setup_s"] = {"value": statistics.median(setup for setup, _ in results), "unit": "s"}
    failed = sum(not r["ok"] for r in records)
    details.update(samples, setup_samples_s=[setup for setup, _ in results],
                   rounds_per_worker=[len(outcome["rounds"]) for _, outcome in results],
                   rounds=rounds, jobs=summarize(records),
                   failures=[r for r in records if not r["ok"]][:20])
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fixed", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latcirc", "__init__.py")):
        print("error: run from the repository root; src/latcirc is missing", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    try:
        outcome = measure(args, root)
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    details = outcome.pop("details")
    details["provenance"].update(git_commit=git_commit(root), seed=args.seed,
                                 held_out_seed=HELD_OUT_SEED)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **outcome, "details": details}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    for name, metric in outcome["metrics"].items():
        print(f"{args.workload:9s} {name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
