import collections
import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sbpkit import (
    EigenvalueClass,
    Interval,
    NodeFamily,
    NormChoice,
    SbpOperatorPair,
    build_classical_fd,
    build_counterexample,
    build_d_tilde,
    build_pseudospectral_operator,
    build_two_point,
    certify_families,
    check_eigenvalue_property,
    repair_operator,
    save_operator,
    spectral,
    spectral_report,
    verify_all,
)
from sbpkit.cli import main
from sbpkit.errors import (
    ContractError,
    ParameterError,
    RepairImpossibleError,
    ShapeError,
)
from sbpkit.linalg import rank_threshold, svd_rank
from sbpkit.spectral import eigen_decompose, h_inner, orthogonalize_imaginary

from oracles import (eigenspace_basis, h_norm, peak_n2, planted_kernel_fd,
                     reference_eigenvalue_check, verdict_of)

INV_SQRT5 = 0.4472135954999579


def _paper_style_eigenvector():
    # closed-form eigenvector of the counterexample's penalized matrix for
    # the eigenvalue i/sqrt(5)
    return np.array([0, 1, -3, 3, -1, 0], dtype=float) + 1j * np.sqrt(5.0) * np.array(
        [0, 1, -1, -1, 1, 0], dtype=float
    )


# ---------------------------------------------------------------------------
# penalized matrix assembly


def test_d_tilde_two_point():
    np.testing.assert_array_equal(
        build_d_tilde(build_two_point()), np.array([[1.0, 1.0], [-1.0, 1.0]])
    )


def test_d_tilde_counterexample_corner():
    assert build_d_tilde(build_counterexample())[0, 0] == 1.0


def test_d_tilde_classical_fd_corner():
    op = build_classical_fd(2, Interval(0.0, 1.0))
    assert build_d_tilde(op)[0, 0] == 2.0


# ---------------------------------------------------------------------------
# eigendecomposition


def test_eigen_decompose_two_by_two():
    lam, _, _ = eigen_decompose(np.array([[1.0, 1.0], [-1.0, 1.0]]), np.eye(2))
    assert lam.tolist() == [1.0 - 1.0j, 1.0 + 1.0j]


def test_two_point_eigenvalues_have_positive_real_parts():
    report = spectral_report(build_two_point())
    assert report.eigenvalues.tolist() == [1.0 - 1.0j, 1.0 + 1.0j]
    assert all(
        c is EigenvalueClass.POSITIVE_REAL_PART for c in report.classifications
    )


def test_eigen_decompose_counterexample_contains_imaginary_pair():
    op = build_counterexample()
    values, _, _ = eigen_decompose(build_d_tilde(op), h=op.h)
    assert np.min(np.abs(values - 1j * INV_SQRT5)) < 1e-10
    assert np.min(np.abs(values + 1j * INV_SQRT5)) < 1e-10


def test_eigen_decompose_identity_multiplicity():
    lam, w, _ = eigen_decompose(np.eye(3), np.eye(3))
    assert all(v == pytest.approx(1.0) for v in lam)
    assert np.linalg.matrix_rank(w) == 3


def test_eigen_decompose_residual_bound():
    for op in (build_counterexample(), build_two_point(),
               build_classical_fd(9, Interval(0.0, 1.0))):
        a = build_d_tilde(op)
        scale = np.linalg.norm(a, "fro")
        for lam, w in zip(*eigen_decompose(a, h=op.h)[:2]):
            residual = np.linalg.norm(a @ w - lam * w)
            assert residual <= 1e-10 * scale * np.linalg.norm(w)


def test_eigen_decompose_returns_contiguous_rows():
    op = build_classical_fd(16, Interval(0.0, 1.0))
    lam, w, h_norms = eigen_decompose(build_d_tilde(op), h=op.h)
    assert w.flags.c_contiguous
    assert lam.dtype == complex
    assert lam.shape == h_norms.shape == (op.n + 1,)


def test_report_classifies_negative_real_parts():
    # D_plus = diag(-1, 2) with p0 = pn = 0: D_tilde = D_plus
    op = build_two_point().with_fields(
        d_plus=np.diag([-1.0, 2.0]), p0=np.zeros(2), pn=np.zeros(2))
    report = spectral_report(op)
    assert report.classifications.tolist() == [
        EigenvalueClass.NEGATIVE_REAL_PART, EigenvalueClass.POSITIVE_REAL_PART]
    assert report.m == 0
    assert report.boundary_residuals.shape == (0, 3)


@pytest.mark.parametrize("op", [
    build_counterexample(),
    build_classical_fd(64, Interval(0.0, 1.0)),
    build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(16, Interval(0.0, 10.0))),  # dense H
], ids=["counterexample", "classical_fd_64", "cgl_16"])
def test_eigen_decompose_h_norms_match_the_per_vector_norm(op):
    # the H-norms are summed in another order than sqrt(w* H w) per vector
    _, rows, h_norms = eigen_decompose(build_d_tilde(op), h=op.h)
    for w, norm in zip(rows, h_norms):
        assert norm == pytest.approx(h_norm(w, op.h), rel=8 * np.finfo(float).eps)


@pytest.mark.parametrize("op", [
    build_counterexample(),
    build_two_point(),
    build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(16, Interval(0.0, 10.0))),  # dense H
], ids=["counterexample", "two_point", "cgl_16"])
def test_eigen_decompose_h_norms_keep_the_bits_of_the_one_product(op):
    _, rows, h_norms = eigen_decompose(build_d_tilde(op), h=op.h)
    re, im = rows.real, rows.imag
    squares = np.sum(re * (re @ op.h.T) + im * (im @ op.h.T), axis=1)
    assert h_norms.tobytes() == np.sqrt(np.maximum(squares, 0.0)).tobytes()


def test_spectral_report_memory_at_n_512():
    # In 513 x 513 float64 units: D_tilde 1, the complex eigenvectors twice
    # (LAPACK's and the sorted rows) 4, the two H-norm products 2.
    op = build_classical_fd(512, Interval(0.0, 1.0))
    assert peak_n2(lambda: spectral_report(op)) <= 7.1


# ---------------------------------------------------------------------------
# H inner product


def test_h_inner_disjoint_support():
    assert h_inner(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                   np.diag([0.5, 0.5])) == 0.0


def test_h_inner_conjugate_eigenvectors_are_orthogonal():
    w = _paper_style_eigenvector()
    h = np.diag([0.5, 1, 1, 1, 1, 0.5])
    assert abs(h_inner(w, np.conj(w), h)) < 1e-10


def test_h_inner_eigenvector_norm_squared_is_40():
    w = _paper_style_eigenvector()
    h = np.diag([0.5, 1, 1, 1, 1, 0.5])
    # independent oracle: plain weighted sum of squared magnitudes
    oracle = sum(hk * abs(wk) ** 2 for hk, wk in zip(np.diagonal(h), w))
    assert oracle == pytest.approx(40.0, abs=1e-12)
    assert h_inner(w, w, h).real == pytest.approx(40.0, abs=1e-10)
    assert abs(h_inner(w, w, h).imag) < 1e-12
    assert h_norm(w, h) == pytest.approx(np.sqrt(40.0))


def test_h_inner_length_mismatch():
    with pytest.raises(ShapeError):
        h_inner(np.ones(2), np.ones(3), np.eye(3))


# ---------------------------------------------------------------------------
# classification


def test_report_counts_the_counterexample_pair():
    op = build_counterexample()
    report = spectral_report(op)
    assert report.m == 1
    assert np.count_nonzero(report.imaginary) == 2


def test_report_counts_no_pair_on_two_point():
    assert spectral_report(build_two_point()).m == 0


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_report_rejects_a_nonpositive_band(tau):
    # With tau = -1 the band is empty and the +-i/sqrt(5) pair would go uncounted.
    with pytest.raises(ParameterError):
        spectral_report(build_counterexample(), tau_eig=tau)


def test_report_rejects_an_infinite_band():
    # An infinite band has no finite tolerance to write into a document.
    with pytest.raises(ParameterError, match="finite"):
        spectral_report(build_counterexample(), tau_eig=float("inf"))


def test_classification_band():
    # eigenvalues 1e-15 +- 0.3i lie inside the band 1e-9 * ||A||_F
    # (D_plus = a with p0 = pn = 0, so D_tilde = a)
    a = np.array([[1e-15, 0.3], [-0.3, 1e-15]])
    op = build_two_point().with_fields(d_plus=a, p0=np.zeros(2), pn=np.zeros(2))
    report = spectral_report(op, tau_eig=1e-9)
    assert report.imaginary.tolist() == [True, True]
    assert report.m == 1
    # a repair by 1e-11 moves +-i/sqrt(5) to about 7e-12 +- i/sqrt(5), still
    # inside the default band 1e-10 * ||D_tilde||_F, so the pair is counted
    repaired, plan = repair_operator(build_counterexample(), 1e-11)
    report = spectral_report(repaired)
    inside = report.eigenvalues[report.imaginary]
    assert (inside.real > 0.0).tolist() == [True, True]
    assert inside[0].real == pytest.approx(0.5 * plan.epsilons[0], rel=1e-3)
    assert report.m == 1


def test_conjugate_closure_is_exact():
    # LAPACK returns the complex eigenpairs of a real matrix as exact
    # conjugates; the report relies on it and synthesizes nothing
    report = spectral_report(build_counterexample())
    lam = report.eigenvalues[report.imaginary]
    rows = report.eigenvectors[report.imaginary]
    assert set(np.conj(lam).tolist()) == set(lam.tolist())
    plus, minus = rows[lam.imag > 0][0], rows[lam.imag < 0][0]
    np.testing.assert_array_equal(minus, np.conj(plus))


def _crippled_counterexample():
    # rows 2 and 3 of D_plus zeroed: ker D_plus is two-dimensional, and the
    # penalized matrix has a double zero eigenvalue
    op = build_counterexample()
    d = np.array(op.d_plus)
    d[2] = 0.0
    d[3] = 0.0
    return op.with_fields(d_plus=d, d_minus=d)


def test_spectrum_of_an_operator_that_is_not_nullspace_consistent(capsys, tmp_path):
    op = _crippled_counterexample()
    report = spectral_report(op)
    zeros = report.eigenvalues == 0.0
    assert np.count_nonzero(zeros) == 2
    assert all(report.imaginary[zeros])
    assert report.m == 0
    path = str(tmp_path / "crippled.json")
    save_operator(op, path)
    assert main(["spectrum", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 0
    with pytest.raises(RepairImpossibleError):
        repair_operator(op, 1e-3)


# ---------------------------------------------------------------------------
# basis of the imaginary invariant subspace


def test_orthogonalize_counterexample():
    op = build_counterexample()
    check = orthogonalize_imaginary(op)
    np.testing.assert_allclose(check.offending, [-1j * INV_SQRT5, 1j * INV_SQRT5], rtol=1e-12)
    assert not check.singular and check.route == "hautus"
    q = check.basis
    assert q.shape == (6, 2)
    assert not np.iscomplexobj(q)
    assert np.max(np.abs(q.T @ op.h @ q - np.eye(2))) <= 1e-14
    # the plane of Re w and Im w of the closed-form eigenvector
    w = _paper_style_eigenvector()
    plane = np.column_stack([w.real, w.imag])
    assert np.linalg.matrix_rank(np.hstack([q, plane]), tol=1e-10) == 2


@pytest.mark.parametrize("build", [
    build_two_point,
    lambda: build_classical_fd(64, Interval(0.0, 1.0)),
    lambda: repair_operator(build_counterexample(), 1e-3)[0],
], ids=["two_point", "classical_fd_64", "repaired_counterexample"])
def test_orthogonalize_is_empty_with_the_eigenvalue_property(build):
    op = build()
    check = orthogonalize_imaginary(op)
    assert check.offending == () and not check.singular
    assert check.basis.shape == (op.n + 1, 0)


# ---------------------------------------------------------------------------
# structural probes


def test_boundary_projections_vanish_on_counterexample():
    op = build_counterexample()
    report = spectral_report(op)
    rows = report.eigenvectors[report.imaginary]
    assert report.boundary_residuals.shape == (2, 3)
    for w, triple in zip(rows, report.boundary_residuals):
        assert all(r <= 1e-10 * np.linalg.norm(w) for r in triple)


def test_moment_residuals_vanish_on_counterexample():
    op = build_counterexample()
    w = _paper_style_eigenvector()
    # direct oracle: weighted dot products with 1 and x
    weights = np.diagonal(op.h)
    assert abs(np.sum(weights * w)) < 1e-12
    assert abs(np.sum(weights * op.x * w)) < 1e-12
    report = spectral_report(op)
    assert report.moment_residuals.shape == (2, op.q + 1)
    for norm, moments in zip(report.h_norms[report.imaginary],
                             report.moment_residuals):
        assert all(r <= 1e-10 * norm for r in moments)


def test_repaired_operator_has_no_imaginary_pairs():
    repaired, _ = repair_operator(build_counterexample(), 1e-3)
    report = spectral_report(repaired)
    assert report.m == 0
    assert not report.imaginary.any()
    assert report.boundary_residuals.shape == (0, 3)
    assert report.moment_residuals.shape == (0, repaired.q + 1)


# ---------------------------------------------------------------------------
# structure of the imaginary spectrum


def test_imaginary_eigenvectors_are_h_orthogonal_to_all_others():
    op = build_counterexample()
    report = spectral_report(op)
    lam, rows, norms = report.eigenvalues, report.eigenvectors, report.h_norms
    for k in np.flatnonzero(report.imaginary):
        for j in range(lam.size):
            if abs(lam[j] - lam[k]) < 1e-12:
                continue
            inner = abs(h_inner(rows[k], rows[j], op.h))
            assert inner <= 1e-8 * norms[k] * norms[j]


def test_imaginary_eigenvalues_are_nondefective():
    op = build_counterexample()
    d_tilde = build_d_tilde(op)
    for lam in (1j * INV_SQRT5, -1j * INV_SQRT5):
        assert len(eigenspace_basis(d_tilde, lam)) == 1


def test_report_document_round_trip_fields():
    doc = spectral_report(build_counterexample()).to_document()
    assert list(doc) == ["m", "tau_eig", "eigenvalues", "classifications", "h_norms",
                         "eigenvectors", "boundary_residuals", "moment_residuals"]
    assert doc["m"] == 1
    assert len(doc["eigenvalues"]) == 6
    assert len(doc["eigenvectors"][0]) == 12
    assert doc["classifications"].count("imaginary") == 2


@pytest.mark.parametrize("key", ["eigenvalues", "h_norms", "eigenvectors",
                                 "boundary_residuals", "moment_residuals"])
def test_report_document_does_not_write_into_the_report(key):
    report = spectral_report(build_counterexample())
    before = report.to_document()[key].copy()
    with pytest.raises(ValueError, match="read-only"):
        report.to_document()[key][0] = 7.0
    np.testing.assert_array_equal(report.to_document()[key], before)


# ---------------------------------------------------------------------------
# one analysis per call


def _lobatto(family, n, a, b):
    return lambda: build_pseudospectral_operator(family(n, Interval(a, b)))


AGREEMENT_FIXTURES = {
    "counterexample": build_counterexample,
    "two_point": build_two_point,
    "classical_fd_16": lambda: build_classical_fd(16, Interval(0.0, 1.0)),
    "classical_fd_64": lambda: build_classical_fd(64, Interval(0.0, 1.0)),
    # on matrices this large eigvals and eig can return eigenvalues that
    # differ in the last bits (with OpenBLAS from about n = 200)
    "classical_fd_256": lambda: build_classical_fd(256, Interval(0.0, 1.0)),
    **{
        f"{family.__name__}_{n}_{a:g}_{b:g}": _lobatto(family, n, a, b)
        for family in (NodeFamily.legendre_gauss_lobatto,
                       NodeFamily.chebyshev_gauss_lobatto)
        for n in (4, 8, 16, 32)
        for a, b in ((-1.0, 1.0), (0.0, 10.0))
    },
    "repaired_counterexample": lambda: repair_operator(build_counterexample(), 1e-6)[0],
}


@pytest.mark.parametrize("build", AGREEMENT_FIXTURES.values(),
                         ids=AGREEMENT_FIXTURES.keys())
def test_verify_and_report_decide_from_the_same_eigenvalues(build):
    # Verify decides by the Hautus test and the report by the band; both
    # give the same verdict, and each offending value i mu lies on one of
    # the report's imaginary eigenvalues.
    op = build()
    check = verify_all(op).eigenvalue_check
    report = spectral_report(op)
    scale = np.linalg.norm(build_d_tilde(op), "fro")
    band = report.eigenvalues[report.classifications != EigenvalueClass.POSITIVE_REAL_PART]
    assert check.has_property is (band.size == 0)
    assert len(check.offending) == band.size
    by_imag = sorted(band.tolist(), key=lambda z: z.imag)
    for value, lam in zip(sorted(check.offending, key=lambda z: z.imag), by_imag):
        assert value.real == 0.0
        assert abs(value - lam) <= 1e-10 * scale


@pytest.fixture
def calls(monkeypatch):
    tally = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eig", "eigvals", "eigh", "cholesky", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(spectral, "build_d_tilde",
                        counted("build_d_tilde", spectral.build_d_tilde))
    return tally


@pytest.mark.parametrize("build", AGREEMENT_FIXTURES.values(),
                         ids=AGREEMENT_FIXTURES.keys())
def test_hautus_and_band_find_the_same_unobservable_subspace(calls, build):
    op = build()
    report = spectral_report(op)
    eigs = calls["eig"]
    offending = check_eigenvalue_property(op).offending
    assert calls["eig"] == eigs  # no eig: the Hautus test decided
    q = orthogonalize_imaginary(op).basis
    assert len(offending) == q.shape[1] == 2 * report.m
    assert not np.iscomplexobj(q)
    assert np.max(np.abs(q.T @ op.h @ q - np.eye(q.shape[1])), initial=0.0) <= 1e-12


def _fd_32_off_the_identity():
    # classical FD n = 32 with one entry of D_plus (and D_minus) moved by
    # 1e-9, row sum kept: every check passes at 1e-10, but the SBP identity
    # misses by 6.25e-11, far above rounding.
    op = build_classical_fd(32, Interval(0.0, 1.0))
    d = op.d_plus.copy()
    d[5, 6] += 1e-9
    d[5, 5] -= 1e-9
    return op.with_fields(d_plus=d, d_minus=d)


def test_where_the_sbp_identity_is_off_by_more_than_rounding_one_eigvals_decides(calls):
    # The identity defect of A + A^T = B B^T in H coordinates is far above
    # the gate's rounding-level bound.  The band of one eigvals decides.
    op = _fd_32_off_the_identity()
    check = verify_all(op).eigenvalue_check
    assert (calls["build_d_tilde"], calls["eig"], calls["eigvals"],
            calls["eigh"]) == (1, 0, 1, 0)
    assert check.has_property and check.offending == ()


def test_where_the_hautus_test_does_not_apply_the_repair_takes_the_band(calls):
    op = _fd_32_off_the_identity()
    repaired, plan = repair_operator(op, 1e-3)
    assert (calls["build_d_tilde"], calls["eig"], calls["eigvals"],
            calls["eigh"]) == (1, 0, 1, 0)
    assert repaired is op
    assert plan.m == 0 and plan.norm_bound == 0.0
    assert not np.any(plan.s_prime)


def _lgl_32_far_from_the_origin():
    return build_pseudospectral_operator(
        NodeFamily.legendre_gauss_lobatto(32, Interval(100.0, 101.0)))


def _flipped_two_point():
    # off the SBP identity, with an eigenvalue left of the imaginary axis
    op = build_two_point()
    return op.with_fields(d_plus=-op.d_plus, d_minus=-op.d_minus)


@pytest.mark.parametrize("build", AGREEMENT_FIXTURES.values(),
                         ids=AGREEMENT_FIXTURES.keys())
def test_the_check_carries_the_hautus_basis(build):
    op = build()
    basis = check_eigenvalue_property(op).basis
    q = orthogonalize_imaginary(op).basis
    assert basis.shape == q.shape and basis.dtype == q.dtype
    assert basis.tobytes() == q.tobytes()


def test_where_the_band_decides_the_check_has_no_basis():
    op = _fd_32_off_the_identity()
    assert orthogonalize_imaginary(op) is None
    check = check_eigenvalue_property(op)
    assert check.has_property and check.basis is None


def test_on_the_band_route_the_values_inside_the_band_offend():
    # An indefinite H that solves H x = p0 as the counterexample's does, so
    # D_tilde and its pair +-i/sqrt(5) stay, but the Hautus test cannot
    # take H coordinates: the band decides, as the spectrum report does.
    op = build_counterexample()
    h = np.array(op.h)
    h[1, 2] = h[2, 1] = 5.0
    op = op.with_fields(h=h)
    assert orthogonalize_imaginary(op) is None
    check = check_eigenvalue_property(op)
    report = spectral_report(op)
    inside = report.eigenvalues[report.classifications != EigenvalueClass.POSITIVE_REAL_PART]
    assert not check.has_property and check.basis is None
    assert len(check.offending) == inside.size == 2
    np.testing.assert_allclose(check.offending, inside, atol=1e-12)
    np.testing.assert_allclose(np.abs(np.imag(check.offending)), 1 / np.sqrt(5), atol=1e-12)


def test_the_checks_basis_is_read_only():
    op = build_counterexample()
    basis = check_eigenvalue_property(op).basis
    assert basis.shape == (6, 2)
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 7.0


REPAIR_FIXTURES = {
    **AGREEMENT_FIXTURES,
    "lgl_32_100_101": _lgl_32_far_from_the_origin,
    "flipped_two_point": _flipped_two_point,
}


@pytest.mark.parametrize("build", REPAIR_FIXTURES.values(), ids=REPAIR_FIXTURES.keys())
def test_the_repair_follows_the_checks_verdict(build):
    # op comes back itself exactly where verify passes it, and the repair
    # refuses exactly where the band failed it and no basis of N exists.
    op = build()
    check = verify_all(op).eigenvalue_check
    refused = check.basis is None and bool(check.offending)
    try:
        repaired, _ = repair_operator(op, 1e-3)
    except ContractError as exc:
        assert refused, exc
        assert "cannot be repaired" in str(exc)
    else:
        assert not refused
        assert (repaired is op) is check.has_property


LGL_1_TO_4 = [NodeFamily.legendre_gauss_lobatto(n, Interval(-1.0, 1.0))
              for n in range(1, 5)]


@pytest.mark.parametrize("build", [build_two_point, build_counterexample],
                         ids=["two_point", "counterexample"])
def test_where_h_has_no_cholesky_factor_one_eigvals_decides(calls, build):
    # A dense, indefinite H: the Hautus test cannot take H coordinates, so
    # the band decides the eigenvalue verdict and there is no basis.
    op = build()
    h = np.array(op.h)
    h[0, 1] = h[1, 0] = 0.9 * (h[0, 0] + h[1, 1])
    report = verify_all(op.with_fields(h=h))
    verdicts = {r.property.value: r.passed for r in report.residuals}
    assert verdicts["B_spd"] is False
    # One Cholesky fails to prove B_spd, one to take H coordinates, and one
    # proves the rank of D_plus.
    assert (calls["cholesky"], calls["eig"], calls["eigvals"]) == (3, 0, 1)
    assert report.eigenvalue_check.basis is None


@pytest.mark.parametrize("call, counts", [
    (lambda op: verify_all(op), (0, 0, 0, 2, 1)),
    (lambda op: spectral_report(op), (1, 1, 0, 0, 0)),
    (lambda op: repair_operator(op, 1e-6), (0, 0, 0, 2, 1)),
    (lambda op: certify_families(LGL_1_TO_4), (4, 0, 4, 4, 4)),
], ids=["verify_all", "spectral_report", "repair_operator", "certify_families"])
def test_each_call_builds_and_decomposes_d_tilde_once(calls, call, counts):
    # verify_all and the repair decompose the skew part of D_plus in H
    # coordinates and build no D_tilde: by the real eigh of the certificate,
    # which cannot decide the counterexample's four-member cluster, and then
    # one complex eigh.  Certification builds D_tilde once per family for the
    # one eigvals of the entry's min_real_part; only the spectrum report runs
    # eig.  The counterexample's H is diagonal, so the one Cholesky factor
    # per nullspace check proves the rank of D_plus.
    call(build_counterexample())
    assert (calls["build_d_tilde"], calls["eig"], calls["eigvals"], calls["eigh"],
            calls["cholesky"]) == counts


# ---------------------------------------------------------------------------
# nullspace route 1: the eigenvalue check says whether D_tilde is singular


def _d_tilde_has_full_rank(op):
    # The route the check replaces: the rank of D_tilde by its own SVD.
    return svd_rank(build_d_tilde(op))[0] == op.n + 1


def _counterexample_row_2_zeroed():
    op = build_counterexample()
    d = np.array(op.d_plus)
    d[2] = 0.0
    return op.with_fields(d_plus=d, d_minus=d)


ROUTE_FIXTURES = {
    **AGREEMENT_FIXTURES,
    "crippled_counterexample": _crippled_counterexample,
    "counterexample_row_2_zeroed": _counterexample_row_2_zeroed,
    "planted_kernel_fd_16": lambda: planted_kernel_fd(16)[0],
}


@pytest.mark.parametrize("build", ROUTE_FIXTURES.values(), ids=ROUTE_FIXTURES.keys())
def test_the_check_finds_an_eigenvalue_at_0_exactly_where_d_tilde_loses_rank(build):
    op = build()
    check = check_eigenvalue_property(op)
    assert check.singular is not _d_tilde_has_full_rank(op)


def test_the_crippled_operators_take_the_band_and_the_planted_one_the_hautus_route():
    for build in (_crippled_counterexample, _counterexample_row_2_zeroed):
        op = build()
        check = check_eigenvalue_property(op)
        assert check.singular and check.basis is None
    op = planted_kernel_fd(16)[0]
    check = check_eigenvalue_property(op)
    assert check.singular and check.basis is not None


LOBATTO_UP_TO_16 = {
    f"{family.__name__}_{n}_{a:g}": _lobatto(family, n, a, a + (2.0 if a < 0 else 1.0))
    for family in (NodeFamily.legendre_gauss_lobatto, NodeFamily.chebyshev_gauss_lobatto)
    for a in (-1.0, 100.0, 1e4)
    for n in range(1, 17)
}


VERDICT_FIXTURES = {
    **ROUTE_FIXTURES,
    "fd_32_off_the_identity": _fd_32_off_the_identity,
    "flipped_two_point": _flipped_two_point,
    **LOBATTO_UP_TO_16,
}


@pytest.mark.parametrize("build", VERDICT_FIXTURES.values(), ids=VERDICT_FIXTURES.keys())
def test_the_verdict_is_that_of_the_assembled_d_tilde(build):
    # The reference takes H coordinates from D_tilde itself; the check adds
    # b0 b0^T to the image of D_plus.  Same property, singularity, offending
    # count and route, on both routes and on [-1, 1], [100, 101] and
    # [1e4, 1e4 + 1].
    op = build()
    check = check_eigenvalue_property(op)
    reference = reference_eigenvalue_check(op)
    assert verdict_of(check) == verdict_of(reference)
    np.testing.assert_allclose(check.offending, reference.offending, rtol=0.0, atol=1e-12)



@pytest.mark.parametrize("build", [
    build_two_point,
    lambda: build_classical_fd(64, Interval(0.0, 1.0)),
    _lgl_32_far_from_the_origin,
], ids=["two_point", "classical_fd_64", "lgl_32_100_101"])
def test_verify_all_runs_one_eigh_and_no_svd(calls, build):
    # The certificate's eigh, which also answers nullspace route 1, and a
    # verified Cholesky factor that proves the rank of D_plus (route 2): no
    # SVD of D_plus or of D_tilde.
    verify_all(build())
    assert (calls["svd"], calls["eigh"], calls["eig"], calls["eigvals"]) == (0, 1, 0, 0)


def test_on_the_band_route_verify_all_runs_one_eigvals_and_no_svd(calls):
    verify_all(_fd_32_off_the_identity())
    assert (calls["svd"], calls["eigh"], calls["eig"], calls["eigvals"]) == (0, 0, 0, 1)


# ---------------------------------------------------------------------------
# the zero test allows for the leak of eigh between close clusters

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
#: repair_planted inputs (seed, slot) of perfbench/gen.py whose planted mu
#: lies about 1e-3 from an observable one: eigh leaks each eigenvector into
#: the other by about eps ||K|| / gap, which the bare rank rule reads as
#: observable (10 or 11 of 12 offending values, or 5 of 6).
NEAR_GAP_INPUTS = ((69, 1), (341, 1), (26023, 5), (26312, 1), (26596, 5))


def _benchmark_operator(pair):
    return SbpOperatorPair(d_plus=pair.d, d_minus=pair.d, h=pair.h, s=pair.s, p0=pair.p0,
                           pn=pair.pn, x=pair.x, q=pair.q, interval=Interval(pair.a, pair.b))


def check_near_gap_input(gen, seed, slot):
    pair, budget, norm = gen.repair_input(seed, slot)
    op = _benchmark_operator(pair)
    m = pair.omegas.size
    check = check_eigenvalue_property(op)
    assert len(check.offending) == 2 * m and check.route == "hautus"
    repaired, plan = repair_operator(op, budget, NormChoice(norm))
    assert plan.m == m
    least = np.min(np.linalg.eigvals(build_d_tilde(repaired)).real)
    assert least == pytest.approx(0.5 * plan.epsilons[0], rel=1e-3)
    report = verify_all(repaired)
    assert report.all_passed() and report.nullspace_consistent and report.eigenvalue_property
    assert report.eigenvalue_check.route == "certificate"


@pytest.fixture
def gen(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("gen")


@pytest.mark.parametrize("seed, slot", NEAR_GAP_INPUTS,
                         ids=[f"{seed}_{slot}" for seed, slot in NEAR_GAP_INPUTS])
def test_a_pair_planted_near_an_observable_one_is_found_and_repaired(gen, seed, slot):
    check_near_gap_input(gen, seed, slot)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_near_gap_inputs_read_the_same_at_one_and_two_blas_threads(threads):
    # The leak of eigh changes with the BLAS thread count; the verdicts must not.
    tests = pathlib.Path(__file__).resolve().parent
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import gen, test_spectral; "
            "[test_spectral.check_near_gap_input(gen, *i) "
            "for i in test_spectral.NEAR_GAP_INPUTS]")
    src = str(tests.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code, str(tests), str(PERFBENCH)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


LOBATTO_LARGE = {
    f"{family.__name__}_{n}_{a:g}": _lobatto(family, n, a, a + (2.0 if a < 0 else 1.0))
    for family in (NodeFamily.legendre_gauss_lobatto, NodeFamily.chebyshev_gauss_lobatto)
    for a in (-1.0, 100.0)
    for n in (64, 128, 256)
}


@pytest.mark.parametrize("build", LOBATTO_LARGE.values(), ids=LOBATTO_LARGE.keys())
def test_the_leak_allowance_reads_no_lobatto_direction_as_hidden(build):
    # On [100, 101] the clusters of K lie as close as 1e-4 relative, where
    # the zero threshold grows by 1e4; the Hautus margin is still 1e-2.
    check = check_eigenvalue_property(build())
    assert check.has_property and check.basis is not None


# ---------------------------------------------------------------------------
# the certificate: one real eigh of K^T K proves N = {0}, or the complex
# route decides

CERTIFIED_FIXTURES = {
    **{
        f"{family.__name__}_{n}_{a:g}_{b:g}": _lobatto(family, n, a, b)
        for family in (NodeFamily.legendre_gauss_lobatto,
                       NodeFamily.chebyshev_gauss_lobatto)
        for n in (1, 2, 3, 8, 17, 40, 96)
        for a, b in ((-1.0, 1.0), (100.0, 101.0), (-1000.0, 1000.0), (0.0, 1e-3),
                     (1e4, 1e4 + 1.0))
    },
    **{f"classical_fd_{n}": (lambda n=n: build_classical_fd(n, Interval(0.0, 1.0)))
       for n in (8, 99, 197, 512)},
    **{
        f"gauss_legendre_{n}_{a:g}": (lambda n=n, a=a: build_pseudospectral_operator(
            NodeFamily.explicit(a + 0.5 + 0.5 * np.polynomial.legendre.leggauss(n + 1)[0],
                                Interval(a, a + 1.0))))
        for n in (4, 12, 40)
        for a in (-0.5, 0.0)
    },
    "two_point": build_two_point,
}


def _complex_route_check(monkeypatch, op):
    """The check of ``op`` with the certificate deciding nothing, so that the
    complex route decides: the reference a certified check must equal."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_certified", lambda *args: None)
        check = check_eigenvalue_property(op)
    assert check.route == "hautus"
    return check


@pytest.mark.filterwarnings("ignore:interpolatory weights:RuntimeWarning")
@pytest.mark.parametrize("build", CERTIFIED_FIXTURES.values(), ids=CERTIFIED_FIXTURES.keys())
def test_every_operator_with_the_property_is_certified(monkeypatch, build):
    op = build()
    check = check_eigenvalue_property(op)
    assert check.route == "certificate"
    assert check.has_property and not check.singular and check.basis.shape == (op.n + 1, 0)
    assert check == _complex_route_check(monkeypatch, op)


def test_the_benchmark_inputs_with_the_property_are_certified(gen):
    for slot in range(len(gen.DIAGNOSE_SLOTS)):
        op = _benchmark_operator(gen.diagnose_input(1, slot))
        check = check_eigenvalue_property(op)
        assert check.route == "certificate" and check.has_property, slot


def test_planted_inputs_and_their_repairs_take_the_certificate_route(gen):
    # The certificate proves each planted pair hidden and every other
    # cluster observable; once repaired, the input has the property.
    for slot in range(len(gen.REPAIR_SLOTS)):
        pair, budget, norm = gen.repair_input(7, slot)
        op = _benchmark_operator(pair)
        check = check_eigenvalue_property(op)
        assert check.route == "certificate" and len(check.offending) == 2 * pair.omegas.size
        repaired, _ = repair_operator(op, budget, NormChoice(norm))
        assert check_eigenvalue_property(repaired).route == "certificate", slot


@pytest.mark.parametrize("call", [verify_all, lambda op: repair_operator(op, 1e-3)],
                         ids=["verify_all", "repair_operator"])
def test_a_planted_input_runs_one_real_eigh_and_no_complex_one_and_no_svd(
        gen, calls, eigh_dtypes, call):
    op = _benchmark_operator(gen.repair_input(7, 4)[0])  # m = 6, plain
    calls.clear()
    eigh_dtypes.clear()
    call(op)
    assert eigh_dtypes == [np.dtype(float)]
    assert (calls["svd"], calls["eig"], calls["eigvals"], calls["cholesky"]) == (0, 0, 0, 1)


def test_the_counterexample_and_its_repairs_take_the_hautus_route():
    # +-1/sqrt(5) is a double |mu| of K, one pair hidden and one observable:
    # a four-member cluster of K^T K, which the certificate cannot decide.
    op = build_counterexample()
    check = check_eigenvalue_property(op)
    assert check.route == "hautus"
    np.testing.assert_allclose(check.offending, [-1j * INV_SQRT5, 1j * INV_SQRT5], rtol=1e-12)
    for eps in (1e-2, 1e-6, 1e-10):
        check = check_eigenvalue_property(repair_operator(op, eps)[0])
        assert check.route == "hautus" and check.has_property


BAND_FIXTURES = {
    "fd_32_off_the_identity": _fd_32_off_the_identity,
    "flipped_two_point": _flipped_two_point,
    "crippled_counterexample": _crippled_counterexample,
    "counterexample_row_2_zeroed": _counterexample_row_2_zeroed,
}


@pytest.mark.parametrize("build", BAND_FIXTURES.values(), ids=BAND_FIXTURES.keys())
def test_where_the_hautus_test_does_not_apply_the_route_is_the_band(build):
    check = check_eigenvalue_property(build())
    assert check.route == "band" and check.basis is None


@pytest.fixture
def eigh_dtypes(monkeypatch):
    """The dtype of every matrix given to np.linalg.eigh."""
    seen = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return seen


def test_a_certified_operator_runs_one_real_eigh_and_no_complex_one(eigh_dtypes):
    check = verify_all(build_classical_fd(64, Interval(0.0, 1.0))).eigenvalue_check
    assert check.route == "certificate"
    assert eigh_dtypes == [np.dtype(float)]


def test_a_repair_of_a_certified_operator_runs_one_real_eigh_and_no_complex_one(eigh_dtypes):
    # The repair takes the check verify_all takes, certificate first.
    op = build_classical_fd(64, Interval(0.0, 1.0))
    repaired, plan = repair_operator(op, 1e-6)
    assert repaired is op and plan.m == 0
    assert eigh_dtypes == [np.dtype(float)]


def _skew_operator(k, b):
    """An operator with H = I whose H coordinates are ``A = K + B B^T / 2``
    and ``B = [p0, pn]``, so that the SBP identity holds to rounding."""
    size = k.shape[0]
    d = k + 0.5 * np.outer(b[:, 1], b[:, 1]) - 0.5 * np.outer(b[:, 0], b[:, 0])
    return SbpOperatorPair(d_plus=d, d_minus=d, h=np.eye(size), s=np.zeros((size, size)),
                           p0=b[:, 0], pn=b[:, 1], x=np.linspace(0.0, 1.0, size), q=1,
                           interval=Interval(0.0, 1.0))


def _rotations(mus, size):
    """Block-diagonal real skew K with one 2 x 2 block of frequency mu each."""
    k = np.zeros((size, size))
    for j, mu in enumerate(mus):
        k[2 * j, 2 * j + 1], k[2 * j + 1, 2 * j] = mu, -mu
    return k


def test_a_pair_is_read_by_its_plane_not_by_the_vectors_eigh_picks(monkeypatch):
    # B sees one of the two vectors of each pair, the first one in every
    # other pair: each pair is observable (||B^T v|| = ||b|| / sqrt(2) for
    # v in V_mu), but one vector eigh returns for the plane is not.
    mus = (0.25, 0.5, 0.75, 1.0)
    size = 2 * len(mus) + 1
    b = np.zeros((size, 2))
    for j in range(len(mus)):
        b[2 * j + (j % 2 == 0)] = (1.0, 0.5 + j)
    b[-1] = (0.3, 0.2)
    op = _skew_operator(_rotations(mus, size), b)
    check = check_eigenvalue_property(op)
    assert check.route == "certificate" and check.has_property
    assert check == _complex_route_check(monkeypatch, op)


@pytest.mark.parametrize("seed", range(3))
def test_the_leak_allowance_is_read_from_the_nearer_neighbour(seed):
    # A pair at mu = 0.5 with ||B^T v|| = 1e-10, 1e-4 from an observable
    # pair and 0.25 from the other: eigh may leak the nearer one into it by
    # eps ||K|| / 1e-4, which swamps its observability, so it reads hidden,
    # though it clears the zero threshold the farther neighbour would set.
    rng = np.random.default_rng(seed)
    mus = (0.25, 0.5, 0.5 + 1e-4, 1.0)
    size = 2 * len(mus) + 1
    b = np.zeros((size, 2))
    b[[1, 4, 7], :] = [(1.0, 0.5), (1.0, 2.5), (1.0, 3.5)]
    b[2, 0] = np.sqrt(2.0) * 1e-10  # ||B^T v|| = 1e-10 for v in V_+-0.5
    b[-1] = (0.3, 0.2)
    unit = rank_threshold(np.linalg.norm(b, 2), size)
    assert unit * (1.0 + 1.0 / 0.25) < 1e-10 < unit * (1.0 + 1.0 / 1e-4)
    rotation, _ = np.linalg.qr(rng.standard_normal((size, size)))
    k = rotation @ _rotations(mus, size) @ rotation.T
    check = check_eigenvalue_property(_skew_operator(0.5 * (k - k.T), rotation @ b))
    assert check.route == "hautus" and not check.singular
    np.testing.assert_allclose(np.imag(check.offending), [-0.5, 0.5], rtol=1e-12)


@pytest.mark.parametrize("fraction, route", [(0.25, "certificate"), (0.75, "hautus")])
@pytest.mark.parametrize("seed", range(3))
def test_a_hidden_pair_is_proved_only_below_half_the_zero_threshold(seed, fraction, route):
    # A pair at mu = 0.5, 0.25 from its neighbours, with ||B^T v|| a fraction
    # of the complex route's zero threshold z, which reads it hidden either
    # way.  The certificate proves it hidden only below z / 2, which leaves
    # the complex route's own rounding a factor of two.
    rng = np.random.default_rng(seed)
    mus = (0.25, 0.5, 0.75, 1.0)
    size = 2 * len(mus) + 1
    b = np.zeros((size, 2))
    b[[1, 4, 7], :] = [(1.0, 0.5), (1.0, 2.5), (1.0, 3.5)]
    b[-1] = (0.3, 0.2)
    zero = rank_threshold(np.linalg.norm(b, 2), size) * (1.0 + 1.0 / 0.25)
    b[2, 0] = np.sqrt(2.0) * fraction * zero  # ||B^T v|| for v in V_+-0.5
    rotation, _ = np.linalg.qr(rng.standard_normal((size, size)))
    k = rotation @ _rotations(mus, size) @ rotation.T
    check = check_eigenvalue_property(_skew_operator(0.5 * (k - k.T), rotation @ b))
    assert check.route == route and not check.singular
    np.testing.assert_allclose(np.imag(check.offending), [-0.5, 0.5], rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_a_hidden_pair_that_eigh_of_k_squared_leaks_into_is_left_to_the_hautus_route(seed):
    # A hidden pair at |mu| = 3e-6 ||K||, a pair of K^T K ten rank rules from
    # an observable one: eigh of K^T K mixes the two by about
    # eps ||K||^2 / gap, which the certificate's Davis-Kahan term allows
    # for; the complex route finds the hidden pair.
    rng = np.random.default_rng(seed)
    mus = (3e-6, np.sqrt(9e-12 + 10.0 * rank_threshold(1.0, 12)), 0.2, 0.45, 0.7, 1.0)
    rotation, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    b = rng.standard_normal((12, 2))
    b[:2] = 0.0
    k = rotation @ _rotations(mus, 12) @ rotation.T
    op = _skew_operator(0.5 * (k - k.T), rotation @ b)
    check = check_eigenvalue_property(op)
    assert check.route == "hautus" and not check.has_property
    np.testing.assert_allclose(np.imag(check.offending), [-3e-6, 3e-6], rtol=1e-6)
