"""One workload process of the sbpkit benchmark.

``run.py`` starts this script once per set-up measurement.  The process
imports sbpkit first, then generates its inputs (timed, so that they stay
out of the set-up time), runs one untimed warm-up operation and prints
``READY {"setup_cpu_s": ..., "gen_wall_s": ...}``.  With ``--setup-only`` it stops there.
Otherwise it runs whole rounds of the workload's operations as one closed
loop client until the operations have taken ``--seconds`` in total and at
least ``MIN_OPS`` are done, checks every output with ``oracle`` (outside the
timed part), and prints ``RESULT {...}``.

With ``--spans PATH`` the same loop runs with sbpkit's public functions wrapped
by ``spans.Tracer``; its numbers are per-layer only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The tail percentile needs ten operations beyond it; 40 keeps it a tail.
MIN_OPS = 40


def child_env() -> dict[str, str]:
    """Environment for sbpkit CLI processes: sources from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Workload:
    """Inputs, one operation and its checks; subclasses fill these in."""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None

    def prepare(self, setup_only: bool) -> None:
        raise NotImplementedError

    def round(self) -> list:
        """One round of operations, each a list of items run in order."""
        return [[item] for item in self.items]

    def warm_up(self) -> None:
        """The untimed operation that ends the set-up."""
        self.run(self.items[0])

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> tuple[str, list[str]]:
        """("ok" | "fault" | "wrong", problems)."""
        raise NotImplementedError

    def start_tracing(self) -> None:
        import spans

        self.tracer = spans.Tracer()
        self.tracer.install()

    def timed(self, item):
        """(CPU seconds, wall seconds, output) of one operation."""
        wall, cpu = time.perf_counter(), time.process_time()
        if self.tracer is None:
            output = self.run(item)
        else:
            with self.tracer.root("op"):
                output = self.run(item)
        return time.process_time() - cpu, time.perf_counter() - wall, output

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, ops: int, spans_path: str) -> dict[str, float]:
        import spans

        self.tracer.dump(spans_path)
        return spans.per_layer(self.tracer.spans, self.tracer.json_bytes, ops)


def to_op(pair):
    import sbpkit

    return sbpkit.SbpOperatorPair(
        d_plus=pair.d, d_minus=pair.d, h=pair.h, s=pair.s, p0=pair.p0,
        pn=pair.pn, x=pair.x, q=pair.q, interval=sbpkit.Interval(pair.a, pair.b),
        name=pair.name)


def from_op(op):
    import gen

    return gen.Pair(d=op.d_plus, h=op.h, s=op.s, p0=op.p0, pn=op.pn, x=op.x,
                    q=op.q, a=op.interval.a, b=op.interval.b, name=op.name or "")


class DiagnoseFd(Workload):
    """``verify_all`` + ``spectral_report`` emitted through ``jsonio.dumps``."""

    def prepare(self, setup_only: bool) -> None:
        import gen

        self.items = []
        for slot in range(1 if setup_only else len(gen.DIAGNOSE_SLOTS)):
            pair = gen.diagnose_input(self.seed, slot)
            self.items.append((slot, pair, to_op(pair)))
        self.refs: dict[int, object] = {}

    def run(self, item):
        import sbpkit
        from sbpkit import jsonio

        _, _, op = item
        verification = sbpkit.verify_all(op)
        spectrum = sbpkit.spectral_report(op)
        return (jsonio.dumps(verification.to_document()),
                jsonio.dumps(spectrum.to_document()))

    def check(self, item, output):
        import oracle

        slot, pair, _ = item
        if slot not in self.refs:
            self.refs[slot] = oracle.reference_spectrum(pair)
        problems = oracle.diagnose(pair, self.refs[slot], json.loads(output[0]),
                                   json.loads(output[1]))
        return ("wrong" if problems else "ok"), problems


class RepairPlanted(Workload):
    """The ``demo`` pipeline on planted operators, then a storage round trip."""

    def prepare(self, setup_only: bool) -> None:
        import gen

        self.items = []
        for slot in range(1 if setup_only else len(gen.REPAIR_SLOTS)):
            pair, budget, norm = gen.repair_input(self.seed, slot)
            path = os.path.join(self.work_dir, f"repaired_{slot}.json")
            self.items.append((slot, pair, to_op(pair), budget, norm, path))
        self.refs: dict[int, object] = {}

    def run(self, item):
        import sbpkit
        from sbpkit import jsonio

        _, _, op, budget, norm, path = item
        before_v = sbpkit.verify_all(op)
        before_s = sbpkit.spectral_report(op)
        repaired, plan = sbpkit.repair_operator(op, budget, sbpkit.NormChoice(norm))
        after_v = sbpkit.verify_all(repaired)
        after_s = sbpkit.spectral_report(repaired)
        text = jsonio.dumps({
            "before": {"verification": before_v.to_document(),
                       "spectrum": before_s.to_document()},
            "plan": plan.to_document(),
            "after": {"verification": after_v.to_document(),
                      "spectrum": after_s.to_document()},
        })
        sbpkit.save_operator(repaired, path)
        return text, repaired, sbpkit.load_operator(path)

    def check(self, item, output):
        import numpy as np
        import oracle

        slot, pair, _, budget, norm, _ = item
        text, repaired, loaded = output
        problems = [
            f"{field} changed in the save/load round trip"
            for field in ("d_plus", "d_minus", "h", "s", "p0", "pn", "x")
            if not np.array_equal(getattr(repaired, field), getattr(loaded, field))
        ]
        if (repaired.q, repaired.interval, repaired.name) != (loaded.q, loaded.interval, loaded.name):
            problems.append("q, interval or name changed in the save/load round trip")
        if slot not in self.refs:
            self.refs[slot] = oracle.reference_spectrum(pair)
        problems += oracle.planted_repair(pair, self.refs[slot], budget, norm,
                                          json.loads(text), from_op(loaded))
        return ("wrong" if problems else "ok"), problems


LOBATTO = ("legendre_gauss_lobatto", "chebyshev_gauss_lobatto")
INTERVALS = ((-1.0, 1.0), (0.0, 10.0), (100.0, 101.0))
CLI_BUDGET = 1e-6  # the CLI's default --target-eps
SOLVE_U0 = 0.5
GRIDS = [64, 128, 256, 512]


class CliSmall(Workload):
    """The ``sbpkit`` CLI as one child process at a time."""

    def prepare(self, setup_only: bool) -> None:
        self.rng = random.Random(self.seed)
        self.max_child_rss_kb = 0
        tasks = [[("demo_text", ["demo"])], [("demo_json", ["demo", "--format", "json"])]]
        for family in LOBATTO:
            for n in (4, 8, 16, 32):
                for a, b in INTERVALS:
                    path = os.path.join(self.work_dir, f"{family}_{n}_{a:g}_{b:g}.json")
                    spec = {"family": family, "n": n, "a": a, "b": b, "path": path}
                    tasks.append([
                        ("generate", ["pseudospectral", "--family", family, "--n", str(n),
                                      "--interval", repr(a), repr(b), "--output", path], spec),
                        ("verify", ["verify", "--input", path], spec),
                    ])
        for family in LOBATTO:
            for a, b in INTERVALS:
                tasks.append([("certify", ["pseudospectral", "--family", family, "--certify",
                                           "--n", "16", "--interval", repr(a), repr(b)],
                               {"a": a, "b": b})])
        tasks += [
            [("spectrum", ["spectrum", "--builtin", "counterexample"])],
            [("repair", ["repair", "--builtin", "counterexample"])],
            [("solve", ["solve", "--builtin", "classical_fd_128", "--f", "cos",
                        "--u0", repr(SOLVE_U0)])],
            [("converge", ["converge", "--grids", ",".join(map(str, GRIDS))])],
        ]
        self.tasks = tasks
        #: generated document -> whether it satisfies the SBP identity
        self.sbp: dict[str, bool] = {}

    def warm_up(self) -> None:
        """What one CLI process does, in this fresh process."""
        import contextlib
        import io

        import sbpkit.cli

        with contextlib.redirect_stdout(io.StringIO()):
            sbpkit.cli.main(["demo", "--format", "json"])

    def round(self) -> list:
        order = list(self.tasks)
        self.rng.shuffle(order)
        return order

    def start_tracing(self) -> None:
        """Trace inside the CLI children; this process only collects their spans."""
        import spans

        self.tracer = spans.Tracer()

    def timed(self, item):
        """Run one command; its CPU time is the child's user + system time."""
        out_path = os.path.join(self.work_dir, "stdout.txt")
        report_path = os.path.join(self.work_dir, "child.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), report_path,
               "0" if self.tracer is None else "1", *item[1]]
        wall = time.perf_counter()
        with open(out_path, "w") as out, open(os.devnull, "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - wall
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss of a child also counts the memory map of this process,
        # which it replaced at exec; the child's own VmHWM does not.
        with open(report_path) as fh:
            report = json.load(fh)
        os.remove(report_path)
        self.max_child_rss_kb = max(self.max_child_rss_kb, report["peak_rss_kb"])
        if self.tracer is not None:
            self.tracer.extend(report)
        with open(out_path) as fh:
            return usage.ru_utime + usage.ru_stime, wall, (proc.returncode, fh.read())

    def check(self, item, output):
        import oracle

        kind = item[0]
        rc, text = output
        if kind == "verify":
            spec = item[2]
            if spec["path"] not in self.sbp or not text:
                return "wrong", [f"verify exit {rc} without a report, or input not exact"]
            return oracle.verify_verdict(json.loads(text), rc, self.sbp[spec["path"]],
                                         spec["n"], spec["a"], spec["b"])
        if kind == "certify":
            doc = json.loads(text) if text else None
            if doc is None:
                return "wrong", [f"certify exit {rc} without a report"]
            if rc == 1 and oracle.moment_fault(doc, item[2]["a"], item[2]["b"]):
                return "fault", []
            problems = oracle.certification(doc, 16)
            return ("wrong" if problems or rc != 0 else "ok"), problems
        if rc != 0:
            return "wrong", [f"{kind} exited {rc}"]
        if kind == "generate":
            spec = item[2]
            with open(spec["path"]) as fh:
                doc = json.load(fh)
            problems, sbp = oracle.lobatto_operator(
                doc, spec["family"], spec["n"], spec["a"], spec["b"])
            if not problems:
                self.sbp[spec["path"]] = not sbp
            if sbp and not problems and oracle.diagonal_norm_fault(
                    doc, spec["family"], spec["n"], spec["a"], spec["b"]):
                return "fault", []
            problems += sbp
        elif kind == "demo_text":
            problems = oracle.demo_text(text)
        else:
            doc = json.loads(text)
            problems = {
                "demo_json": lambda: oracle.demo_json(doc, CLI_BUDGET),
                "spectrum": lambda: oracle.counterexample_spectrum(doc),
                "repair": lambda: oracle.counterexample_repair(doc["operator"], doc["plan"], CLI_BUDGET),
                "solve": lambda: oracle.solution(doc, SOLVE_U0, 128),
                "converge": lambda: oracle.convergence(doc, GRIDS),
            }[kind]()
        return ("wrong" if problems else "ok"), problems

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0


WORKLOADS = {"diagnose_fd": DiagnoseFd, "repair_planted": RepairPlanted, "cli_small": CliSmall}


def measure(workload: Workload, seconds: float) -> dict:
    durations: list[float] = []
    wall: list[float] = []
    counts = {"ok": 0, "fault": 0, "wrong": 0}
    problems: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for task in workload.round():
            for item in task:
                # A crash in sbpkit or a malformed output is a wrong result.
                try:
                    cpu, elapsed, output = workload.timed(item)
                    durations.append(cpu)
                    wall.append(elapsed)
                    status, found = workload.check(item, output)
                except Exception as exc:
                    status, found = "wrong", [f"{type(exc).__name__}: {exc}"]
                counts[status] += 1
                problems += [f"{_label(item)}: {p}" for p in found[:2]]
        rounds += 1
        if len(durations) >= MIN_OPS and sum(durations) >= seconds:
            break
    return {"durations": durations, "wall_durations": wall, "counts": counts,
            "rounds": rounds, "problems": problems[:10],
            "phase_s": time.perf_counter() - start}


def _label(item) -> str:
    if isinstance(item[0], str):
        return " ".join(item[1])
    return getattr(item[1], "name", str(item[0]))


def machine_info() -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
                         or k == "VECLIB_MAXIMUM_THREADS"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="trace the timed loop and write its spans here")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sbpkit

    source = os.path.dirname(os.path.abspath(sbpkit.__file__))
    if source != os.path.join(ROOT, "src", "sbpkit"):
        print(f"sbpkit imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    os.makedirs(args.work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    gen_cpu, gen_wall = time.process_time(), time.perf_counter()
    workload.prepare(args.setup_only)
    gen_cpu, gen_wall = time.process_time() - gen_cpu, time.perf_counter() - gen_wall
    workload.warm_up()
    # CPU time since this process started, without the input generation.
    ready = {"setup_cpu_s": time.process_time() - gen_cpu, "gen_wall_s": gen_wall}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    if args.spans:
        workload.start_tracing()
    result = measure(workload, args.seconds)
    ops = len(result["durations"])
    result["peak_rss_mb"] = workload.peak_rss_mb()
    result["machine"] = machine_info()
    if args.spans:
        result["layers"] = workload.layer_metrics(ops, args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
