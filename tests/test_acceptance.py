"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible with ``pytest -s``); any violated condition fails the test with the
full list of defects.
"""

import json
import time

import numpy as np
import pytest

from sbpkit import (
    Interval,
    NodeFamily,
    build_classical_fd,
    build_counterexample,
    build_d_tilde,
    build_interpolatory_h,
    build_pseudospectral_d,
    build_pseudospectral_operator,
    build_two_point,
    certify_families,
    check_eigenvalue_property,
    check_s_conditions,
    convergence_study,
    h_inner,
    legendre_gauss_lobatto,
    load_operator,
    repair_operator,
    save_operator,
    spectral_report,
    verify_all,
)
from sbpkit.cli import main
from sbpkit.errors import IndefiniteNormError
from sbpkit.pseudospectral import chebyshev_gauss_lobatto_nodes

from oracles import eigenspace_basis, polynomial_exactness_check, vandermonde_d

INV_SQRT5 = 0.4472135954999579


@pytest.fixture(scope="module", autouse=True)
def _warm_lapack():
    np.linalg.eig(np.eye(3))
    np.linalg.svd(np.eye(3))


def _conclude(num, description, failures, elapsed=None, budget=None):
    if elapsed is not None and budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.3f}s exceeds budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    line = f"[{status}] criterion {num}: {description}"
    if elapsed is not None:
        line += f" ({1000.0 * elapsed:.1f} ms)"
    print(line)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_counterexample_regression():
    failures = []
    start = time.perf_counter()
    op = build_counterexample()
    report = verify_all(op, 1e-10)
    spectrum = spectral_report(op, tau_eig=1e-10)
    elapsed = time.perf_counter() - start

    for r in report.residuals:
        if not r.residual < 1e-12:
            failures.append(f"{r.property.value} residual {r.residual:.3e} >= 1e-12")
    if not report.nullspace_consistent:
        failures.append("not nullspace consistent")
    if report.eigenvalue_property:
        failures.append("eigenvalue property unexpectedly present")
    imaginary = spectrum.eigenvalues[spectrum.imaginary]
    if len(imaginary) != 2:
        failures.append(f"expected 2 imaginary eigenvalues, got {len(imaginary)}")
    targets = {1j * INV_SQRT5, -1j * INV_SQRT5}
    for target in targets:
        if min(abs(imaginary - target)) > 1e-10:
            failures.append(f"no imaginary eigenvalue within 1e-10 of {target}")
    _conclude(1, "builtin operator verifies, lacks the eigenvalue property, "
                 "spectrum has the known imaginary pair", failures,
              elapsed, budget=0.1)


def test_criterion_2_imaginary_eigenpair_structure():
    failures = []
    start = time.perf_counter()
    op = build_counterexample()
    report = spectral_report(op, tau_eig=1e-10)
    d_tilde = build_d_tilde(op)

    lam, rows, norms = report.eigenvalues, report.eigenvectors, report.h_norms
    for k, triple, moments in zip(
        np.flatnonzero(report.imaginary), report.boundary_residuals,
        report.moment_residuals
    ):
        euclidean = float(np.linalg.norm(rows[k]))
        for label, value in zip(("p0.w", "pn.w", "max|S w|"), triple):
            if not value <= 1e-10 * euclidean:
                failures.append(f"{label} = {value:.3e} above 1e-10*|w|")
        for j, value in enumerate(moments[: 2]):
            if not value <= 1e-10 * norms[k]:
                failures.append(f"<x^{j}, w> = {value:.3e} above 1e-10*|w|_H")
        for other in range(lam.size):
            if abs(lam[other] - lam[k]) < 1e-12:
                continue
            inner = abs(h_inner(rows[k], rows[other], op.h))
            if not inner <= 1e-8 * norms[k] * norms[other]:
                failures.append(
                    f"<w, v> = {inner:.3e} for eigenvalues {lam[k]}, {lam[other]}"
                )
        geometric = len(eigenspace_basis(d_tilde, lam[k]))
        algebraic = int(np.count_nonzero(np.abs(lam - lam[k]) < 1e-8))
        if geometric != algebraic:
            failures.append(
                f"multiplicities differ at {lam[k]}: geometric {geometric}, "
                f"algebraic {algebraic}"
            )
    elapsed = time.perf_counter() - start
    _conclude(2, "imaginary eigenpairs annihilate the boundary data and the "
                 "grid moments, and are H-orthogonal and non-defective",
              failures, elapsed, budget=0.1)


def test_criterion_3_repair_at_three_budgets():
    failures = []
    start = time.perf_counter()
    op = build_counterexample()
    before = np.linalg.eigvals(build_d_tilde(op))
    scale = float(np.linalg.norm(build_d_tilde(op), "fro"))
    kept = before[np.abs(before.real) > 1e-10 * scale]
    moved = before[np.abs(before.real) <= 1e-10 * scale]

    for eps in (1e-2, 1e-6, 1e-10):
        repaired, plan = repair_operator(op, eps)
        report = verify_all(repaired, 1e-10)
        if not report.all_passed():
            failures.append(f"eps={eps}: algebraic checks failed after repair")
        # strict positivity is certified by the Hautus test, which has no
        # band (the eps=1e-10 shift is ~7e-11, inside the default
        # 1e-10-scaled band of the spectral report)
        eig = check_eigenvalue_property(repaired, build_d_tilde(repaired), 1e-12)
        if not eig.has_property:
            failures.append(f"eps={eps}: eigenvalue property still absent")
        delta = float(np.linalg.norm(repaired.d_plus - op.d_plus, "fro"))
        if not delta <= eps * (1.0 + 1e-14):
            failures.append(f"eps={eps}: |dD|_F = {delta:.17g} exceeds budget")
        for j in range(op.q + 1):
            xj = op.x**j if j else np.ones(6)
            target = j * op.x ** (j - 1) if j else np.zeros(6)
            acc = float(np.max(np.abs(repaired.d_plus @ xj - target)))
            if not acc <= 1e-10:
                failures.append(f"eps={eps}: accuracy defect {acc:.3e} at j={j}")
        after = np.linalg.eigvals(build_d_tilde(repaired))
        predicted = 0.5 * plan.epsilons[0]
        for lam in moved:
            candidates = after[np.abs(after - (lam + predicted)) ==
                               np.min(np.abs(after - (lam + predicted)))]
            if abs(candidates[0].real - predicted) > 1e-8:
                failures.append(
                    f"eps={eps}: shift of {lam} is {candidates[0].real:.3e}, "
                    f"predicted {predicted:.3e}"
                )
        for lam in kept:
            if np.min(np.abs(after - lam)) > 1e-8 * scale:
                failures.append(f"eps={eps}: eigenvalue {lam} moved")
        sym, psd, ann = check_s_conditions(repaired, 1e-10)
        if not (sym.passed and psd.passed):
            failures.append(f"eps={eps}: repaired S not symmetric PSD")
        if not ann.residual < 1e-10:
            failures.append(
                f"eps={eps}: annihilation residual {ann.residual:.3e}"
            )
    elapsed = time.perf_counter() - start
    _conclude(3, "repair restores the spectrum at budgets 1e-2, 1e-6, 1e-10 "
                 "without touching accuracy or the other eigenvalues",
              failures, elapsed, budget=0.5)


def _standardized_conditioning(nodes, interval):
    c = 0.5 * (interval.a + interval.b)
    r = 0.5 * interval.length
    t = (np.asarray(nodes) - c) / r
    return float(np.linalg.cond(np.vander(t, increasing=True)))


def test_criterion_4_lobatto_and_random_node_sweep():
    failures = []
    start = time.perf_counter()
    families = []
    for interval in (Interval(-1.0, 1.0), Interval(0.0, 2.7)):
        for n in range(1, 9):
            families.append(NodeFamily.legendre_gauss_lobatto(n, interval))
            families.append(NodeFamily.chebyshev_gauss_lobatto(n, interval))

    rng = np.random.default_rng(20240211)
    interval = Interval(-1.0, 1.0)
    while sum(1 for f in families if f.tag.value == "explicit") < 100:
        nodes = np.sort(rng.uniform(-1.0, 1.0, 4))
        # well-separated nodes keep the sweep about the spectrum rather than
        # about floating-point coincidence
        if np.min(np.diff(nodes)) < 0.04:
            continue
        try:
            build_interpolatory_h(nodes, interval)
        except IndefiniteNormError:
            continue
        families.append(NodeFamily.explicit(nodes, interval))

    for family in families:
        op = build_pseudospectral_operator(family)
        budget = 1e-8 * max(1.0, _standardized_conditioning(family.nodes,
                                                            family.interval))
        report = verify_all(op, tolerance=budget)
        if not report.all_passed():
            bad = [r.property.value for r in report.residuals if not r.passed]
            failures.append(f"{family.label()}: failed {bad} at budget {budget:.2e}")
        if report.observed_order < family.n:
            failures.append(
                f"{family.label()}: observed order {report.observed_order} < n"
            )
    certification = certify_families(families, tau_eig=1e-10)
    failures.extend(certification.failures)
    elapsed = time.perf_counter() - start
    _conclude(4, "all Lobatto bundles (two intervals) and 100 random "
                 "positive-weight node sets verify, are nullspace consistent "
                 "and keep the spectrum in the right half-plane",
              failures, elapsed, budget=5.0)


def test_criterion_5_construction_uniqueness_oracle():
    failures = []
    for n in range(1, 7):
        for nodes in (legendre_gauss_lobatto(n)[0],
                      chebyshev_gauss_lobatto_nodes(n)):
            d_bary = build_pseudospectral_d(nodes)
            d_vand = vandermonde_d(nodes)
            gap = float(np.max(np.abs(d_bary - d_vand)))
            scale = float(np.max(np.abs(d_bary)))
            if not gap <= 1e-8 * scale:
                failures.append(f"n={n}: constructions differ by {gap:.3e}")
    op = build_pseudospectral_operator(
        NodeFamily.legendre_gauss_lobatto(2, Interval(-1.0, 1.0))
    )
    d_expected = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])
    if np.max(np.abs(op.d_plus - d_expected)) > 1e-12:
        failures.append("degree-2 differentiation matrix off by more than 1e-12")
    if np.max(np.abs(np.diagonal(op.h) - np.array([1 / 3, 4 / 3, 1 / 3]))) > 1e-12:
        failures.append("degree-2 quadrature weights off by more than 1e-12")
    _conclude(5, "barycentric and Vandermonde constructions agree; the "
                 "degree-2 bundle matches its closed form", failures)


def test_criterion_6_polynomial_exactness():
    failures = []
    start = time.perf_counter()
    operators = [
        build_two_point(),
        build_classical_fd(64, Interval(0.0, 1.0)),
        build_counterexample(),
        build_pseudospectral_operator(
            NodeFamily.legendre_gauss_lobatto(4, Interval(-1.0, 1.0))
        ),
    ]
    for op in operators:
        worst = polynomial_exactness_check(op, trials=20)
        if not worst <= 1e-9:
            failures.append(f"{op.name}: degree<=q error {worst:.3e} above 1e-9")
    overreach = polynomial_exactness_check(build_counterexample(), degree=2,
                                           trials=20)
    if not overreach > 1e-3:
        failures.append(
            f"counterexample degree-2 error {overreach:.3e} suspiciously small"
        )
    elapsed = time.perf_counter() - start
    _conclude(6, "forward solves reproduce 20 random polynomials per operator "
                 "at degree q, and fail degree q+1 as they must", failures,
              elapsed, budget=1.0)


def test_criterion_7_convergence_order():
    failures = []
    start = time.perf_counter()
    study = convergence_study(
        build=lambda n: build_classical_fd(n, Interval(0.0, 1.0)),
        f=np.cos,
        exact_u=np.sin,
        ns=[32, 64, 128, 256],
    )
    if not study.fitted_order >= 1.9:
        failures.append(f"fitted order {study.fitted_order:.3f} below 1.9")
    elapsed = time.perf_counter() - start
    _conclude(7, "the one-sided-closure family converges at second order on "
                 "the smooth model problem", failures, elapsed, budget=1.0)


def test_criterion_8_round_trip_and_determinism(tmp_path, capsys):
    failures = []
    catalog = {
        "counterexample": build_counterexample(),
        "two_point": build_two_point(),
        "classical_fd_2": build_classical_fd(2, Interval(0.0, 1.0)),
        "classical_fd_64": build_classical_fd(64, Interval(0.0, 1.0)),
    }
    for name, op in catalog.items():
        path = tmp_path / f"{name}.json"
        save_operator(op, path)
        loaded = load_operator(path)
        for attr in ("d_plus", "d_minus", "h", "s", "p0", "pn", "x"):
            if not np.array_equal(getattr(loaded, attr), getattr(op, attr)):
                failures.append(f"{name}: field {attr} not bit-exact")
        if (loaded.q, loaded.interval, loaded.name) != (op.q, op.interval, op.name):
            failures.append(f"{name}: metadata changed")

    op_path = str(tmp_path / "counterexample.json")
    invocations = [
        ["verify", "--input", op_path],
        ["spectrum", "--input", op_path],
        ["repair", "--input", op_path, "--target-eps", "1e-6"],
        ["demo", "--format", "json"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            code = main(argv)
            outputs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(f"{argv[0]}: exit {code}")
        if outputs[0] != outputs[1]:
            failures.append(f"{argv[0]}: report not byte-identical across runs")
        try:
            json.loads(outputs[0])
        except json.JSONDecodeError:
            failures.append(f"{argv[0]}: output is not valid JSON")
    _conclude(8, "operator documents round-trip bit-exactly and repeated CLI "
                 "runs emit byte-identical JSON", failures)
