"""In-process A/B of ``repair_operator`` between two sbpkit checkouts.

    python3 tools/ab_repair.py SRC_A SRC_B [SEED [ROUNDS]]

``SRC_A`` and ``SRC_B`` are the ``src`` directories of two sbpkit checkouts.
Both packages are loaded into this one process, under the names
``sbpkit_a`` and ``sbpkit_b``, and both repair the same ``repair_planted``
inputs of this checkout's ``perfbench/gen.py`` for SEED (default 7) with
their budget and norm.  Each round times every input once per side with
``time.process_time``, A and B back to back, and the side that goes first
alternates from round to round (ROUNDS, default 30, after one untimed
round).  So both sides see the same host, the same inputs and the same
warm caches, and drift between runs cancels out.  BLAS runs on one thread,
as in the benchmark.

One line per input gives its size, the median CPU ms of each side and the
ratio B/A; the last lines give the median of the per-input ratios, how many
inputs B is faster on, whether both sides wrote the same bytes for every
plan's S', and the largest ``max|S'_B - S'_A| / max|S'_A|`` over the inputs,
so that a move at the level of rounding shows.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import sys
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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


def main() -> int:
    if not 3 <= len(sys.argv) <= 5:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 7
    rounds = int(sys.argv[4]) if len(sys.argv) > 4 else 30
    sys.path.insert(0, PERFBENCH)
    import run

    os.environ.update(run.BLAS_PINS)  # before numpy starts its BLAS
    import gen
    import numpy as np

    sides = [_load(sys.argv[1], "sbpkit_a"), _load(sys.argv[2], "sbpkit_b")]
    inputs = [gen.repair_input(seed, slot) for slot in range(len(gen.REPAIR_SLOTS))]
    cases = [[(_to_op(sbpkit, pair), budget, sbpkit.NormChoice(norm))
              for pair, budget, norm in inputs] for sbpkit in sides]

    def repair(side: int, slot: int):
        op, budget, norm = cases[side][slot]
        start = time.process_time()
        plan = sides[side].repair_operator(op, budget, norm)[1]
        return time.process_time() - start, plan

    plans = [(repair(0, k)[1].s_prime, repair(1, k)[1].s_prime) for k in range(len(inputs))]
    same = all(a.tobytes() == b.tobytes() for a, b in plans)
    moved = max(float(np.max(np.abs(b - a)) / np.max(np.abs(a))) for a, b in plans)
    times = [[[] for _ in inputs] for _ in sides]
    for r in range(rounds):
        for slot in range(len(inputs)):
            for side in (r % 2, 1 - r % 2):
                times[side][slot].append(repair(side, slot)[0])

    ratios = []
    for slot, (pair, _, _) in enumerate(inputs):
        a, b = (statistics.median(times[side][slot]) * 1e3 for side in (0, 1))
        ratios.append(b / a)
        print(f"slot {slot} n={pair.size - 1:<4} A {a:8.3f} ms  B {b:8.3f} ms  B/A {b / a:.3f}")
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"median B/A {statistics.median(ratios):.3f}; B faster on {wins} of {len(ratios)}")
    print(f"identical S' on every input: {same}; largest relative difference {moved:.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
