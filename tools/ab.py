"""In-process A/B of whole benchmark operations between two sbpkit checkouts.

    python3 tools/ab.py SRC_A SRC_B WORKLOAD [SEED [ROUNDS]]

``SRC_A`` and ``SRC_B`` are the ``src`` directories of two sbpkit checkouts.
Both packages are loaded into this one process, under the names
``sbpkit_a`` and ``sbpkit_b``, and both run the same inputs of this
checkout's ``perfbench/gen.py`` for WORKLOAD and SEED (default 7).  One
operation is the benchmark worker's whole operation, built on each side's
own package:

- ``diagnose_fd``: ``verify_all`` and ``spectral_report`` of one input, each
  document written with that side's ``jsonio.dumps``;
- ``repair_planted``: the demo pipeline (verify and spectrum before, the
  repair, verify and spectrum after) written as one document, then a save
  and a load of the repaired operator through a temporary directory.

One untimed round checks the outputs.  Then each round times every input
once per side with ``time.process_time``, A and B back to back, and the
side that goes first alternates from round to round (ROUNDS, default 10).
So both sides see the same host, the same inputs and the same warm caches,
and drift between runs cancels out.  BLAS runs on one thread, as in the
benchmark.

One line per input gives its size, the median CPU ms of each side and the
ratio B/A; the last lines give the median of the per-input ratios, how many
inputs B is faster on, and whether both sides wrote the same bytes for
every input: the documents and, for ``repair_planted``, the saved operator.
``perfbench/`` is only read.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("diagnose_fd", "repair_planted")


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
    import gen

    sides = [_load(sys.argv[1], "sbpkit_a"), _load(sys.argv[2], "sbpkit_b")]
    with tempfile.TemporaryDirectory() as work:
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

        def written(side: int, slot: int) -> str:
            output = run_op(side, slot)[1]
            if workload == "repair_planted":
                with open(cases[side][slot][-1]) as fh:
                    output += fh.read()
            return output

        same = all(written(0, slot) == written(1, slot) for slot in range(len(pairs)))
        times = [[[] for _ in pairs] for _ in sides]
        for r in range(rounds):
            for slot in range(len(pairs)):
                for side in (r % 2, 1 - r % 2):
                    times[side][slot].append(run_op(side, slot)[0])

    ratios = []
    for slot, pair in enumerate(pairs):
        a, b = (statistics.median(times[side][slot]) * 1e3 for side in (0, 1))
        ratios.append(b / a)
        print(f"slot {slot} n={pair.size - 1:<4} A {a:8.3f} ms  B {b:8.3f} ms  B/A {b / a:.3f}")
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"median B/A {statistics.median(ratios):.3f}; B faster on {wins} of {len(ratios)}")
    print(f"identical output bytes on every input: {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
