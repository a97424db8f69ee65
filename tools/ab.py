"""A/B of whole benchmark operations between two sbpkit checkouts.

    python3 tools/ab.py SRC_A SRC_B WORKLOAD [SEED [ROUNDS]]

``SRC_A`` and ``SRC_B`` are the ``src`` directories of two sbpkit checkouts.
Both sides run the same inputs of this checkout's ``perfbench/`` for
WORKLOAD and SEED (default 7).  For ``diagnose_fd`` and ``repair_planted``
both packages are loaded into this one process, under the names
``sbpkit_a`` and ``sbpkit_b``, and one operation is the benchmark worker's
whole operation, built on each side's own package:

- ``diagnose_fd``: ``verify_all`` and ``spectral_report`` of one input, each
  document written with that side's ``jsonio.dumps``;
- ``repair_planted``: the demo pipeline (verify and spectrum before, the
  repair, verify and spectrum after) written as one document, then a save
  and a load of the repaired operator through a temporary directory.

For ``cli_small`` one operation is one of the workload's 60 commands, run
as one ``python3 -m sbpkit.cli`` child process with ``PYTHONPATH`` set to
that side's ``src`` and its own working directory; its time is the child's
user and system CPU time from ``os.wait4``.

For the in-process workloads one untimed round checks the outputs; for
``cli_small`` every round does.  Each round times every input once per
side, A and B back to back, and the side that goes first alternates from
round to round (ROUNDS, default 10).  So both sides see the same host, the
same inputs and the same warm caches, and drift between runs cancels out.
BLAS runs on one thread, as in the benchmark.

One line per input gives its slot and size, or the command, the median CPU
ms of each side and the ratio B/A.  For the in-process workloads it also
gives, per side, the ``numpy.linalg`` decompositions that one operation
calls (``eigh``, of which ``complex`` on a complex matrix, ``cholesky``,
``svd``, ``eig`` and ``eigvals``), counted in the untimed round; the
benchmark's tracer counts neither ``eigh`` nor ``cholesky``, and neither
count sees what numpy calls internally (``norm(A, 2)`` runs an SVD).  The
last lines give the median of the per-input ratios, how many inputs B is
faster on, and whether both sides wrote the same bytes for every input: the
documents and, for ``repair_planted``, the saved operator; for ``cli_small``
the exit status, stdout and any file written by ``--output``.  When they did
not, one more line names the slots or commands whose bytes differ.
``perfbench/`` is only read.
"""

from __future__ import annotations

import collections
import contextlib
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("diagnose_fd", "repair_planted", "cli_small")
#: numpy.linalg entry points counted per operation.
COUNTED = ("eigh", "cholesky", "svd", "eig", "eigvals")


def _load(src: str, name: str):
    """The ``sbpkit`` package under ``src``, imported as ``name``."""
    package = os.path.join(os.path.abspath(src), "sbpkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _to_op(sbpkit, pair):
    return sbpkit.SbpOperatorPair(
        d_plus=pair.d, d_minus=pair.d, h=pair.h, s=pair.s, p0=pair.p0, pn=pair.pn,
        x=pair.x, q=pair.q, interval=sbpkit.Interval(pair.a, pair.b), name=pair.name)


def _diagnose(sbpkit, case) -> str:
    op, = case
    verification = sbpkit.verify_all(op)
    spectrum = sbpkit.spectral_report(op)
    return (sbpkit.jsonio.dumps(verification.to_document())
            + sbpkit.jsonio.dumps(spectrum.to_document()))


def _repair(sbpkit, case) -> str:
    op, budget, norm, path = case
    before_v = sbpkit.verify_all(op)
    before_s = sbpkit.spectral_report(op)
    repaired, plan = sbpkit.repair_operator(op, budget, norm)
    after_v = sbpkit.verify_all(repaired)
    after_s = sbpkit.spectral_report(repaired)
    text = sbpkit.jsonio.dumps({
        "before": {"verification": before_v.to_document(),
                   "spectrum": before_s.to_document()},
        "plan": plan.to_document(),
        "after": {"verification": after_v.to_document(),
                  "spectrum": after_s.to_document()},
    })
    sbpkit.save_operator(repaired, path)
    sbpkit.load_operator(path)
    return text


@contextlib.contextmanager
def _counting(tally: collections.Counter):
    """Count the calls of each ``COUNTED`` entry point of numpy.linalg into
    ``tally`` while the block runs; ``eigh`` of a complex matrix also counts
    as ``complex``."""
    import numpy as np

    saved = {name: getattr(np.linalg, name) for name in COUNTED}

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            tally[name] += 1
            if name == "eigh" and np.iscomplexobj(a):
                tally["complex"] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for name, fn in saved.items():
        setattr(np.linalg, name, counted(name, fn))
    try:
        yield tally
    finally:
        for name, fn in saved.items():
            setattr(np.linalg, name, fn)


def _format_counts(tally: collections.Counter) -> str:
    return (f"eigh {tally['eigh']} (complex {tally['complex']}), "
            + ", ".join(f"{name} {tally[name]}" for name in COUNTED[1:]))


def _in_process(srcs: list[str], workload: str, seed: int, rounds: int, work: str):
    """Labels, CPU times per side and input, the inputs whose bytes differ
    and the decompositions per side and input."""
    import gen

    sides = [_load(srcs[0], "sbpkit_a"), _load(srcs[1], "sbpkit_b")]
    if workload == "diagnose_fd":
        operation = _diagnose
        pairs = [gen.diagnose_input(seed, slot) for slot in range(len(gen.DIAGNOSE_SLOTS))]
        cases = [[(_to_op(sbpkit, pair),) for pair in pairs] for sbpkit in sides]
    else:
        operation = _repair
        inputs = [gen.repair_input(seed, slot) for slot in range(len(gen.REPAIR_SLOTS))]
        pairs = [pair for pair, _, _ in inputs]
        cases = [[(_to_op(sbpkit, pair), budget, sbpkit.NormChoice(norm),
                   os.path.join(work, f"{side}_{slot}.json"))
                  for slot, (pair, budget, norm) in enumerate(inputs)]
                 for side, sbpkit in enumerate(sides)]

    def run_op(side: int, slot: int):
        start = time.process_time()
        output = operation(sides[side], cases[side][slot])
        return time.process_time() - start, output

    counts = [[collections.Counter() for _ in pairs] for _ in sides]

    def written(side: int, slot: int) -> str:
        with _counting(counts[side][slot]):
            output = run_op(side, slot)[1]
        if workload == "repair_planted":
            with open(cases[side][slot][-1]) as fh:
                output += fh.read()
        return output

    differ = [slot for slot in range(len(pairs)) if written(0, slot) != written(1, slot)]
    times = [[[] for _ in pairs] for _ in sides]
    for r in range(rounds):
        for slot in range(len(pairs)):
            for side in (r % 2, 1 - r % 2):
                times[side][slot].append(run_op(side, slot)[0])
    labels = [f"slot {slot} n={pair.size - 1:<4}" for slot, pair in enumerate(pairs)]
    return labels, times, differ, counts


def _cli_small(srcs: list[str], seed: int, rounds: int, work: str):
    """Labels, child CPU times per side and command, and the commands whose
    exit status, stdout or written file differ."""
    import worker

    # Relative paths: both sides take the same argv, each in its own directory.
    cli = worker.CliSmall(seed, "")
    cli.prepare(setup_only=False)
    commands = [argv for task in cli.round() for _, argv, *_ in task]
    dirs = [os.path.join(work, side) for side in ("a", "b")]
    envs = [dict(os.environ, PYTHONPATH=os.path.abspath(src)) for src in srcs]
    for path in dirs:
        os.mkdir(path)

    def run_cli(side: int, argv: list[str]):
        with tempfile.TemporaryFile() as out:
            proc = subprocess.Popen([sys.executable, "-m", "sbpkit.cli", *argv], stdout=out,
                                    stderr=subprocess.DEVNULL, env=envs[side], cwd=dirs[side])
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            output = [proc.returncode, out.read()]
        if "--output" in argv:
            with open(os.path.join(dirs[side], argv[argv.index("--output") + 1]), "rb") as fh:
                output.append(fh.read())
        return usage.ru_utime + usage.ru_stime, output

    differ = set()
    times = [[[] for _ in commands] for _ in srcs]
    for r in range(rounds):
        for k, argv in enumerate(commands):
            outputs = [None, None]
            for side in (r % 2, 1 - r % 2):
                elapsed, outputs[side] = run_cli(side, argv)
                times[side][k].append(elapsed)
            if outputs[0] != outputs[1]:
                differ.add(k)
    labels = [f"{k:2d} {' '.join(argv)}" for k, argv in enumerate(commands)]
    return labels, times, sorted(differ), None


def main() -> int:
    if not 4 <= len(sys.argv) <= 6 or sys.argv[3] not in WORKLOADS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    workload = sys.argv[3]
    seed = int(sys.argv[4]) if len(sys.argv) > 4 else 7
    rounds = int(sys.argv[5]) if len(sys.argv) > 5 else 10
    sys.path.insert(0, PERFBENCH)
    import run

    os.environ.update(run.BLAS_PINS)  # before numpy starts its BLAS
    with tempfile.TemporaryDirectory() as work:
        if workload == "cli_small":
            labels, times, differ, counts = _cli_small(sys.argv[1:3], seed, rounds, work)
        else:
            labels, times, differ, counts = _in_process(sys.argv[1:3], workload, seed, rounds,
                                                        work)

    ratios = []
    for slot, label in enumerate(labels):
        a, b = (statistics.median(times[side][slot]) * 1e3 for side in (0, 1))
        ratios.append(b / a)
        print(f"{label} A {a:8.3f} ms  B {b:8.3f} ms  B/A {b / a:.3f}")
        if counts is not None:
            for side in (0, 1):
                print(f"    {'AB'[side]} per op: {_format_counts(counts[side][slot])}")
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"median B/A {statistics.median(ratios):.3f}; B faster on {wins} of {len(ratios)}")
    print(f"identical output bytes on every input: {not differ}")
    if differ:
        noun = "commands" if workload == "cli_small" else "slots"
        print(f"output bytes differ on {noun} " + ", ".join(map(str, differ)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
