import collections
import json

import numpy as np
import pytest

from sbpkit import (
    EigenvalueClass,
    Interval,
    NodeFamily,
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
from sbpkit.linalg import svd_rank
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
    offending, q, singular = orthogonalize_imaginary(op)
    np.testing.assert_allclose(offending, [-1j * INV_SQRT5, 1j * INV_SQRT5], rtol=1e-12)
    assert not singular
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
    offending, q, singular = orthogonalize_imaginary(op)
    assert offending == () and not singular
    assert q.shape == (op.n + 1, 0)


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
    q = orthogonalize_imaginary(op)[1]
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
    q = orthogonalize_imaginary(op)[1]
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
    assert (calls["cholesky"], calls["eig"], calls["eigvals"]) == (1, 0, 1)
    assert report.eigenvalue_check.basis is None


@pytest.mark.parametrize("call, counts", [
    (lambda op: verify_all(op), (0, 0, 0, 1, 0)),
    (lambda op: spectral_report(op), (1, 1, 0, 0, 0)),
    (lambda op: repair_operator(op, 1e-6), (0, 0, 0, 1, 0)),
    (lambda op: certify_families(LGL_1_TO_4), (4, 0, 4, 4, 0)),
], ids=["verify_all", "spectral_report", "repair_operator", "certify_families"])
def test_each_call_builds_and_decomposes_d_tilde_once(calls, call, counts):
    # verify_all and the repair decompose the skew part of D_plus in H
    # coordinates (one eigh) and build no D_tilde.  Certification builds
    # D_tilde once per family for the one eigvals of the entry's
    # min_real_part; only the spectrum report runs eig.  The counterexample's
    # H is diagonal: no Cholesky factor.
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
def test_verify_all_runs_one_svd_and_one_eigh(calls, build):
    # The SVD of D_plus (nullspace route 2) and the Hautus eigh, which also
    # answers route 1: no SVD of D_tilde.
    verify_all(build())
    assert (calls["svd"], calls["eigh"], calls["eig"], calls["eigvals"]) == (1, 1, 0, 0)


def test_on_the_band_route_verify_all_runs_one_svd_and_one_eigvals(calls):
    verify_all(_fd_32_off_the_identity())
    assert (calls["svd"], calls["eigh"], calls["eig"], calls["eigvals"]) == (1, 0, 0, 1)
