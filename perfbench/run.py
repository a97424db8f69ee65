"""Benchmark of sbpkit, driven only through its public functions and its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is ``diagnose_fd``, ``repair_planted``,
``cli_small`` or ``all``.  BLAS is pinned to one thread in this process and
every process it starts.  Times are CPU times of the process doing the work
(see perfbench/README.md).  ``setup_s`` is the median over ``SETUPS`` fresh
processes, each running ``import sbpkit`` and one warm-up operation; the
last of them goes on to the timed loop.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Full results, with the machine information, go to
``.perfbench_out/results/``; spans of traced runs to ``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("diagnose_fd", "repair_planted", "cli_small")

#: One BLAS thread: on a shared 2-core machine a second BLAS thread competes
#: with the other tenants and with the benchmark itself, which made CPU time
#: exceed wall time and the timings noisy.  This hides BLAS-internal
#: parallelism from every number the benchmark reports.
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Fresh processes per run whose set-up time is measured.
SETUPS = 5

#: A worker that has not finished by then is killed and the run fails.
WORKER_DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class RunError(Exception):
    """A worker failed; the run prints no result."""


def start_worker(workload: str, seed: int, work_dir: str, seconds: float = 0.0,
                 spans_path: str | None = None):
    """Start a worker and wait for READY.

    Returns ((set-up CPU seconds, set-up wall seconds), process, timer).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", work_dir]
    if spans_path:
        cmd += ["--spans", spans_path]
    cmd += ["--seconds", str(seconds)] if seconds else ["--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(WORKER_DEADLINE_S, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    wall = time.perf_counter() - start
    if not line.startswith("READY "):
        _finish(proc, timer)
        raise RunError(f"{workload} worker did not get ready (exit {proc.returncode})")
    ready = json.loads(line[6:])
    return (ready["setup_cpu_s"], wall - ready["gen_wall_s"]), proc, timer


def _finish(proc, timer) -> str:
    out = proc.stdout.read()
    proc.wait()
    timer.cancel()
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}_seed{seed}_trace{int(trace)}"
    work_dir = os.path.join(OUT, "work", f"{tag}_{os.getpid()}")
    spans_path = os.path.join(OUT, "spans", f"{tag}.json") if trace else None
    os.makedirs(os.path.dirname(spans_path or work_dir), exist_ok=True)
    try:
        setups = []
        for _ in range(0 if trace else SETUPS - 1):
            setup, proc, timer = start_worker(workload, seed, work_dir)
            _finish(proc, timer)
            if proc.returncode != 0:
                raise RunError(f"{workload} set-up worker exited {proc.returncode}")
            setups.append(setup)
        setup, proc, timer = start_worker(workload, seed, work_dir, seconds, spans_path)
        setups.append(setup)
        setups_cpu, setups_wall = zip(*setups)
        out = _finish(proc, timer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} worker exited {proc.returncode} without a result")
    result = json.loads(lines[-1][7:])
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  setups_s=setups_cpu, setups_wall_s=setups_wall)
    result.update(summarize(result))
    return result


def summarize(result: dict) -> dict:
    """End-to-end metrics from the raw durations of one run."""
    durations = sorted(result["durations"])
    n = len(durations)
    # The highest percentile with at least ten operations beyond it.
    tail_index = n - 11
    counts = result["counts"]
    return {
        "attempted": sum(counts.values()),
        "failed": counts["fault"],
        "correct": counts["wrong"] == 0,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "end_to_end": {
            "setup_s": statistics.median(result["setups_s"]),
            "ops_per_s": n / sum(durations),
            "op_p50_ms": 1e3 * statistics.median(durations),
            "op_tail_ms": 1e3 * durations[tail_index],
            "peak_rss_mb": result["peak_rss_mb"],
        },
    }


def report(result: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    name = result["workload"]
    print(f"[{name}] seed={result['seed']} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} BLAS threads=1 (pinned)")
    for problem in result["problems"]:
        print(f"[{name}] problem: {problem}")
    if result["trace"]:
        import spans

        units = dict(spans.PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()}
        print(f"[{name}] traced op_p50_ms {result['end_to_end']['op_p50_ms']:.4f} ms")
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["end_to_end"].items()}
        print(f"[{name}] op_tail_ms is p{result['tail_percentile']:.1f} of "
              f"{len(result['durations'])} operations")
    for key, metric in metrics.items():
        print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "sbpkit", "__init__.py")):
        print(f"error: no sbpkit sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINS)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
            path = os.path.join(OUT, "results", f"{name}_seed{args.seed}_trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            results.append(report(result))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{k}": v for name, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
