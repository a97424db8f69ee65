"""Scan the benchmark's planted operators for a miscounted or missed repair.

    python3 tools/scan_planted.py SRC_DIR FIRST LAST

``SRC_DIR`` is the ``src`` directory of an sbpkit checkout.  For every
``repair_planted`` input of the seeds FIRST to LAST - 1 (every slot of
``perfbench/gen.py``'s ``REPAIR_SLOTS``), with m planted imaginary pairs,
the scan runs the eigenvalue check, the repair at the slot's budget and
norm, and ``verify_all`` of the repaired operator, and prints the input as
``seed/slot`` when

- the check does not find 2m offending values,
- the repair's ``plan.m`` is not m,
- of the repaired penalized matrix's eigenvalues (one ``eigvals``), the
  ones nearest the planted ``+-i w_k`` moved by eps/2, with eps the
  repair's, have a least real part below ``eps/2 * (1 - 1e-3)``: a pair the
  check missed stays on the imaginary axis (the other eigenvalues may lie
  left of eps/2 at the larger budgets), or
- ``verify_all`` of the repaired operator does not pass: some residual
  fails, or it is not nullspace consistent or lacks the eigenvalue
  property, or
- the check before the repair was decided by the certificate: every
  planted input has hidden pairs, which no certificate can prove away.

Each printed line gives what was found; the last lines count the inputs
scanned and printed, and the routes (``EigenvalueCheck.route``) that the
checks before and after the repair took.  BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` (or another BLAS thread variable) is set.  The
inputs come from this checkout's ``perfbench/``, which is only read.
"""

from __future__ import annotations

import collections
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
#: The relative shortfall of the repaired operator's least real part below
#: eps/2 that counts as a missed direction.
SHORTFALL = 1e-3


def scan(sbpkit, gen, worker, seed: int, slot: int) -> tuple[str | None, str, str]:
    """What is wrong with the repair of one planted input, or None, and the
    routes of the checks before and after the repair."""
    import numpy as np

    pair, budget, norm = gen.repair_input(seed, slot)
    op = worker.to_op(pair)
    m = pair.omegas.size
    check = sbpkit.check_eigenvalue_property(op)
    found = len(check.offending)
    repaired, plan = sbpkit.repair_operator(op, budget, sbpkit.NormChoice(norm))
    half = 0.5 * plan.epsilons[0] if plan.epsilons else 0.0
    lam = np.linalg.eigvals(sbpkit.build_d_tilde(repaired))
    moved = np.concatenate((1j * pair.omegas, -1j * pair.omegas)) + half
    least = float(np.min(lam[np.argmin(np.abs(lam[:, None] - moved), axis=0)].real))
    report = sbpkit.verify_all(repaired)
    passed = (report.all_passed() and report.nullspace_consistent
              and report.eigenvalue_property)
    routes = (check.route, report.eigenvalue_check.route)
    if (found == 2 * m and plan.m == m and least >= half * (1 - SHORTFALL) and passed
            and check.route != "certificate"):
        return None, *routes
    return (f"offending {found} of {2 * m}, plan.m {plan.m} of {m}, "
            f"planted min Re {least:.3e} against eps/2 {half:.3e}, verify_all "
            f"{'passes' if passed else 'fails'}, route before {check.route}"), *routes


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(sys.argv[1])
    first, last = int(sys.argv[2]), int(sys.argv[3])
    sys.path[:0] = [src, PERFBENCH]
    import run

    for name, value in run.BLAS_PINS.items():  # before numpy starts its BLAS
        os.environ.setdefault(name, value)
    import gen
    import sbpkit
    import worker

    if not os.path.abspath(sbpkit.__file__).startswith(src + os.sep):
        print(f"sbpkit imported from {sbpkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    printed = 0
    before, after = collections.Counter(), collections.Counter()
    for seed in range(first, last):
        for slot in range(len(gen.REPAIR_SLOTS)):
            problem, route_before, route_after = scan(sbpkit, gen, worker, seed, slot)
            before[route_before] += 1
            after[route_after] += 1
            if problem is not None:
                printed += 1
                print(f"{seed}/{slot}: {problem}", flush=True)
    print(f"{(last - first) * len(gen.REPAIR_SLOTS)} inputs scanned, {printed} printed")
    for label, census in (("before", before), ("after", after)):
        print(f"routes {label} repair: "
              + ", ".join(f"{route} {count}" for route, count in sorted(census.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
