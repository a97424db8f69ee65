"""Independent checks of sbpkit's outputs.

Every check recomputes what the output must be from the benchmark's own
inputs (``gen``) with numpy, or tests a property the method must have; none
compares against a stored copy of an earlier output.  Each function returns
a list of problems, empty when the output is right.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import gen

INV_SQRT5 = 1.0 / np.sqrt(5.0)

#: Relative tolerance of the energy identity, in units of ||D_tilde|| ||w|| ||Hw||.
ENERGY_RTOL = 1e-12

#: Eigenvalues computed by two routes agree to this share of ||D_tilde||_F.
SPECTRUM_RTOL = 1e-11

#: Polynomial exactness and SBP identities hold to this relative residual
#: times the node conditioning ``max|x| / min spacing``: nodes are stored
#: with an absolute error of about eps * max|x|, which perturbs the short
#: node differences that D and H are built from by that relative amount.
ALGEBRA_RTOL = 1e-13

#: A classical input has the eigenvalue property with every real part above
#: this share of ||D_tilde||_F (the band sbpkit's default tolerance uses).
EIGENVALUE_TOL = 1e-10


def doc_spectrum(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of a parsed spectrum document."""
    lam = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
    flat = np.array(doc["eigenvectors"], dtype=float)
    return lam, (flat[:, 0::2] + 1j * flat[:, 1::2]).T


def energy_identity(doc: dict, pair: gen.Pair, s: np.ndarray | None = None) -> list[str]:
    """``2 Re(lam) ||w||_H^2 = |p0.w|^2 + |pn.w|^2 + w* S w`` for every eigenpair."""
    lam, w = doc_spectrum(doc)
    s = pair.s if s is None else s
    hw = pair.h @ w
    lhs = 2.0 * lam.real * np.einsum("ij,ij->j", w.conj(), hw).real
    rhs = (np.abs(pair.p0 @ w) ** 2 + np.abs(pair.pn @ w) ** 2
           + np.einsum("ij,ij->j", w.conj(), s @ w).real)
    scale = float(np.linalg.norm(gen.d_tilde(pair), "fro"))
    norms = np.linalg.norm(w, axis=0)
    tol = ENERGY_RTOL * scale * (norms * np.linalg.norm(hw, axis=0)
                                 + np.linalg.norm(pair.h, 2) * norms**2)
    bad = np.nonzero(np.abs(lhs - rhs) > tol)[0]
    return [f"energy identity off by {abs(lhs[k] - rhs[k]):.3e} "
            f"(tolerance {tol[k]:.3e}) at eigenvalue {lam[k]:.6g}" for k in bad[:3]]


def spectra_match(lam: np.ndarray, ref: np.ndarray, tol: float, what: str) -> list[str]:
    """Both sets agree eigenvalue by eigenvalue to ``tol``."""
    if lam.size != ref.size:
        return [f"{what}: {lam.size} eigenvalues, expected {ref.size}"]
    dist = np.abs(lam[:, None] - ref[None, :])
    worst = max(float(dist.min(axis=1).max()), float(dist.min(axis=0).max()))
    return [] if worst <= tol else [f"{what}: off by {worst:.3e} > {tol:.3e}"]


def reference_spectrum(pair: gen.Pair) -> np.ndarray:
    """Eigenvalues of D_tilde of the untransformed operator."""
    return np.linalg.eigvals(gen.d_tilde(pair.base or pair))


def diagnose(pair: gen.Pair, ref: np.ndarray, report: dict, spectrum: dict) -> list[str]:
    """Checks of one ``verify_all`` + ``spectral_report`` on a classical pair."""
    problems = verification(report, eigenvalue_property=True)
    scale = float(np.linalg.norm(gen.d_tilde(pair), "fro"))
    if not float(ref.real.min()) > EIGENVALUE_TOL * scale:
        problems.append("input lacks the eigenvalue property")
    if spectrum["m"] != 0:
        problems.append(f"m={spectrum['m']}, expected 0")
    lam, _ = doc_spectrum(spectrum)
    problems += spectra_match(lam, ref, SPECTRUM_RTOL * scale, "spectrum")
    return problems + energy_identity(spectrum, pair)


def verification(doc: dict, eigenvalue_property: bool) -> list[str]:
    """Every property passes and the spectral verdicts are the expected ones."""
    problems = [f"{r['property']} failed (residual {r['residual']:.3e})"
                for r in doc["residuals"] if not r["passed"]]
    if not doc["nullspace_consistent"]:
        problems.append("reported not nullspace consistent")
    if doc["eigenvalue_property"] != eigenvalue_property:
        problems.append(f"eigenvalue_property={doc['eigenvalue_property']}, "
                        f"expected {eigenvalue_property}")
    return problems


def planted_imaginary(pair: gen.Pair, spectrum: dict) -> list[str]:
    """m and the +-i*omega_k match the planted values."""
    m = pair.omegas.size
    if spectrum["m"] != m:
        return [f"m={spectrum['m']}, planted {m}"]
    lam, _ = doc_spectrum(spectrum)
    imaginary = np.array([v for v, c in zip(lam, spectrum["classifications"])
                          if c == "imaginary"])
    planted = np.concatenate((1j * pair.omegas, -1j * pair.omegas))
    return spectra_match(imaginary, planted, 1e-9 * max(1.0, pair.omegas.max()),
                         "planted pairs")


def planted_repair(pair: gen.Pair, ref: np.ndarray, budget: float, norm: str,
                   doc: dict, repaired: gen.Pair) -> list[str]:
    """Checks of the demo pipeline on a planted pair; ``repaired`` is the
    operator read back from storage."""
    problems = verification(doc["before"]["verification"], eigenvalue_property=False)
    problems += planted_imaginary(pair, doc["before"]["spectrum"])
    problems += energy_identity(doc["before"]["spectrum"], pair)
    scale = float(np.linalg.norm(gen.d_tilde(pair), "fro"))
    lam, _ = doc_spectrum(doc["before"]["spectrum"])
    problems += spectra_match(lam, ref, SPECTRUM_RTOL * scale, "spectrum before")

    # The repair adds 1/2 eps Z Z^T H on the planted span: every pair moves
    # right by eps/2 and nothing else changes.
    z = pair.planted
    unit = 0.5 * z @ z.T @ pair.h
    eps = budget / _norm(unit, norm)
    plan = doc["plan"]
    if plan["m"] != pair.omegas.size or not np.allclose(plan["epsilons"], eps, rtol=1e-8):
        problems.append(f"plan m={plan['m']} epsilons={plan['epsilons'][:2]}, "
                        f"expected m={pair.omegas.size} eps={eps:.6e}")
    change = _norm(repaired.d - pair.d, norm)
    if abs(change - budget) > 1e-8 * budget:
        problems.append(f"||Delta D||={change:.9e}, budget {budget:g}")
    s_after = eps * pair.h @ z @ z.T @ pair.h
    if np.max(np.abs(repaired.s - s_after)) > 1e-10 * np.max(np.abs(s_after)):
        problems.append("repaired S differs from eps H Z Z^T H")
    planted = np.concatenate((1j * pair.omegas, -1j * pair.omegas))
    moved = ref.copy()
    for target in planted:
        moved[np.argmin(np.abs(moved - target))] = target + 0.5 * eps
    after = doc["after"]["spectrum"]
    lam_after, _ = doc_spectrum(after)
    problems += spectra_match(lam_after, moved, SPECTRUM_RTOL * scale, "spectrum after")
    shifted = [lam_after[np.argmin(np.abs(lam_after - (t + 0.5 * eps)))] for t in planted]
    worst = max(abs(v.real - 0.5 * eps) for v in shifted)
    if worst > 1e-6 * eps:
        problems.append(f"moved real parts off eps/2={0.5 * eps:.6e} by {worst:.3e}")
    problems += verification(doc["after"]["verification"], eigenvalue_property=True)
    if after["m"] != 0:
        problems.append(f"m={after['m']} after repair")
    return problems + energy_identity(after, pair, s=s_after)


def _norm(a: np.ndarray, norm: str) -> float:
    return float(np.linalg.norm(a, "fro" if norm == "frobenius" else 2))


def counterexample_spectrum(spectrum: dict) -> list[str]:
    """The counterexample spectrum contains +-i/sqrt(5) (before repair)."""
    problems = energy_identity(spectrum, gen.counterexample())
    lam, _ = doc_spectrum(spectrum)
    for target in (1j * INV_SQRT5, -1j * INV_SQRT5):
        if np.min(np.abs(lam - target)) > 1e-10:
            problems.append(f"eigenvalue {target} missing")
    if spectrum["m"] != 1:
        problems.append(f"m={spectrum['m']}, expected 1")
    return problems


def _pair_moved(lam: np.ndarray, eps: float) -> list[str]:
    """After repair the pair sits at eps/2 +- i/sqrt(5)."""
    return [f"eigenvalue {t} did not move to eps/2={0.5 * eps:.6e}"
            for t in (1j * INV_SQRT5, -1j * INV_SQRT5)
            if np.min(np.abs(lam - (t + 0.5 * eps))) > 1e-6 * eps]


def counterexample_repair(operator: dict, plan: dict, budget: float) -> list[str]:
    """A repaired counterexample: ||Delta D||_F = budget and the pair at eps/2 +- i/sqrt(5)."""
    cx = gen.counterexample()
    d = np.array(operator["D_plus"]).reshape(6, 6)
    problems = []
    change = float(np.linalg.norm(d - cx.d, "fro"))
    if abs(change - budget) > 1e-8 * budget:
        problems.append(f"||Delta D||_F={change:.9e}, budget {budget:g}")
    if plan["m"] != 1:
        return problems + [f"plan m={plan['m']}, expected 1"]
    lam = np.linalg.eigvals(gen.d_tilde(replace(cx, d=d)))
    return problems + _pair_moved(lam, plan["epsilons"][0])


def demo_json(doc: dict, budget: float) -> list[str]:
    problems = verification(doc["before"]["verification"], eigenvalue_property=False)
    problems += counterexample_spectrum(doc["before"]["spectrum"])
    s_prime = np.array(doc["plan"]["s_prime"]).reshape(6, 6)
    after = doc["after"]["spectrum"]
    problems += energy_identity(after, gen.counterexample(), s=s_prime)
    problems += _pair_moved(doc_spectrum(after)[0], doc["plan"]["epsilons"][0])
    if abs(doc["plan"]["norm_bound"] - budget) > 1e-8 * budget:
        problems.append(f"norm_bound={doc['plan']['norm_bound']}, budget {budget:g}")
    return problems + verification(doc["after"]["verification"], eigenvalue_property=True)


def demo_text(text: str) -> list[str]:
    lines = text.splitlines()
    problems = []
    for sign in "+-":
        if not any(f"0 {sign} 0.4472135955i" in ln and "imaginary" in ln for ln in lines):
            problems.append(f"imaginary eigenvalue {sign}i/sqrt(5) missing before repair")
    if "verification after repair: PASS, eigenvalue_property=True" not in lines:
        problems.append("repair did not restore the eigenvalue property")
    return problems


def lobatto_operator(doc: dict, family: str, n: int, a: float,
                     b: float) -> tuple[list[str], list[str]]:
    """Whether a pseudospectral document is the exact degree-n SBP operator.

    Exactness is measured in the affine coordinate ``t = (x - c)/r`` with a
    Legendre basis, as residuals relative to the size of the terms compared,
    so the verdict does not depend on where the interval sits.  Returns the
    problems with the nodes and exactness, and those with the norm and the
    SBP identity, separately.
    """
    exact = []
    if (doc["n"], doc["q"], doc["interval"]) != (n, n, [a, b]):
        exact.append(f"header n={doc['n']} q={doc['q']} interval={doc['interval']}")
    x = np.array(doc["x"])
    nodes = (gen.legendre_lobatto if family == "legendre_gauss_lobatto"
             else gen.chebyshev_lobatto)(n, a, b)
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    if np.max(np.abs(x - nodes)) > 1e-12 * r:
        exact.append("nodes differ from the Lobatto points")
    m = n + 1
    dp = np.array(doc["D_plus"]).reshape(m, m)
    dm = np.array(doc["D_minus"]).reshape(m, m)
    h = np.array(doc["H"]).reshape(m, m)
    s = np.array(doc["S"]).reshape(m, m)
    p0, pn = np.array(doc["p0"]), np.array(doc["pn"])
    tol = ALGEBRA_RTOL * max(1.0, float(np.max(np.abs(x)) / np.min(np.diff(x))))
    leg = np.polynomial.legendre
    t = (x - c) / r
    v = leg.legvander(t, n)
    dv = np.stack([leg.legval(t, leg.legder(np.eye(m)[k])) for k in range(m)], axis=1) / r
    for name, d in (("D_plus", dp), ("D_minus", dm)):
        res = np.abs(d @ v - dv) / (np.abs(d) @ np.abs(v) + np.abs(dv) + 1e-300)
        if res.max() > tol:
            exact.append(f"{name} not exact through degree {n} (relative {res.max():.2e})")
    for name, vec, end in (("p0", p0, -1.0), ("pn", pn, 1.0)):
        res = np.abs(vec @ v - leg.legvander(np.array([end]), n)[0]) / (np.abs(vec) @ np.abs(v))
        if res.max() > tol:
            exact.append(f"{name} not exact (relative {res.max():.2e})")
    if np.any(s != 0.0) or np.any(dm != dp):
        exact.append("S must be 0 and D_minus = D_plus")

    sbp = []
    identity = h @ dp + dp.T @ h + np.outer(p0, p0) - np.outer(pn, pn) - s
    size = np.abs(h) @ np.abs(dp)
    worst = float(np.max(np.abs(identity) / (size + size.T + 1.0)))
    if worst > tol:
        sbp.append(f"SBP identity does not hold (relative {worst:.2e})")
    if not np.linalg.eigvalsh(0.5 * (h + h.T))[0] > 0.0:
        sbp.append("H is not positive definite")
    elif not sbp:
        lam = np.linalg.eigvals(dp + np.outer(np.linalg.solve(h, p0), p0))
        if not lam.real.min() > 0.0:
            sbp.append("D_tilde lacks the eigenvalue property")
    return exact, sbp


# The three known faults of ``cli_small``.  Each is accepted only on the
# family, interval and n where it is known to occur; the same symptom
# anywhere else is a wrong result.

def accuracy_fault_cell(n: int, a: float, b: float) -> bool:
    """Fault 1: ``check_accuracy``'s absolute 1e-10 on raw monomials rejects
    exact operators on [0,10] for n >= 8 and on [100,101] for every n."""
    return (a, b) == (100.0, 101.0) or ((a, b) == (0.0, 10.0) and n >= 8)


def diagonal_norm_fault(doc: dict, family: str, n: int, a: float, b: float) -> bool:
    """Fault 3: ``_moments_exact_through`` takes the Chebyshev interpolatory
    weights as exact on [100,101] (every n) and on [0,10] (n = 32), so the
    operator keeps a diagonal H that the SBP identity does not hold for."""
    cell = (a, b) == (100.0, 101.0) or ((a, b) == (0.0, 10.0) and n == 32)
    if family != "chebyshev_gauss_lobatto" or not cell:
        return False
    h = np.array(doc["H"]).reshape(n + 1, n + 1)
    return bool(np.all(h == np.diag(np.diagonal(h))))


ACCURACY = {"A_dplus", "A_dminus", "A_p0", "A_pn"}
IDENTITY = {"C_identity", "D_identity"}


def verify_verdict(doc: dict, status: int, sbp_holds: bool, n: int, a: float,
                   b: float) -> tuple[str, list[str]]:
    """Judge ``sbpkit verify`` on an exact Lobatto operator.

    Accuracy must pass; the identity verdict must match the benchmark's own.
    A wrong accuracy failure is fault 1, and returns "fault", only where
    ``accuracy_fault_cell`` places it.
    """
    failed = {r["property"] for r in doc["residuals"] if not r["passed"]}
    problems = []
    if bool(failed & IDENTITY) == sbp_holds:
        problems.append(f"SBP identity verdict wrong (benchmark: holds={sbp_holds})")
    if failed - ACCURACY - IDENTITY:
        problems.append(f"unexpected failures {sorted(failed - ACCURACY - IDENTITY)}")
    if sbp_holds and not (doc["nullspace_consistent"] and doc["eigenvalue_property"]):
        problems.append("spectral verdicts wrong on an SBP Lobatto operator")
    if status != (1 if failed else 0):
        problems.append(f"exit status {status} with failures {sorted(failed)}")
    if failed & ACCURACY and not accuracy_fault_cell(n, a, b):
        problems.append(f"accuracy failures {sorted(failed & ACCURACY)} on an exact operator")
    if problems:
        return "wrong", problems
    return ("fault" if failed & ACCURACY else "ok"), []


def certification(doc: dict, n: int) -> list[str]:
    """The paper's third result: every Lobatto operator has the property."""
    problems = []
    if [e["n"] for e in doc["entries"]] != list(range(1, n + 1)):
        problems.append("entries do not cover n = 1..N")
    if not doc["certified"]:
        problems += doc["failures"][:2]
    return problems


def moment_fault(doc: dict, a: float, b: float) -> bool:
    """Fault 2: certification on [100,101] failed on the raw ``np.vander``
    moment check alone, and only for n = 3..6."""
    bad = [e for e in doc["entries"] if not e["passed"]]
    return (a, b) == (100.0, 101.0) and bool(bad) and all(
        3 <= e["n"] <= 6 and e["nullspace_ok"] and e["eigenvalue_ok"]
        and e["moment_ok"] is False for e in bad)


def solution(doc: dict, u0: float, n: int) -> list[str]:
    """``u' = cos``, ``u(0) = u0`` on [0, 1]: error against sin(x) + u0 is O(h^2)."""
    x = np.linspace(0.0, 1.0, n + 1)
    err = float(np.max(np.abs(np.array(doc["u"]) - np.sin(x) - u0)))
    return [] if err <= (1.0 / n) ** 2 else [f"solve error {err:.3e} exceeds h^2"]


def convergence(doc: dict, grids: list[int]) -> list[str]:
    problems = []
    if doc["ns"] != grids:
        problems.append(f"ns={doc['ns']}")
    if abs(doc["fitted_order"] - 2.0) > 0.05:
        problems.append(f"fitted order {doc['fitted_order']:.4f}, expected 2")
    return problems
