import numpy as np
import pytest

from sbpkit import (
    EigenvalueClass,
    HEigenPair,
    Interval,
    boundary_projection_residuals,
    build_classical_fd,
    build_counterexample,
    build_d_tilde,
    build_two_point,
    eigen_decompose,
    h_inner,
    h_norm,
    orthogonalize_imaginary,
    polynomial_moment_residuals,
    repair_operator,
    spectral_report,
)
from sbpkit.errors import (
    ContractError,
    DegenerateEigenspaceError,
    PairingError,
    ParameterError,
    ShapeError,
)
from sbpkit.spectral import classify_and_pair, geometric_multiplicity

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
    pairs = eigen_decompose(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    assert [p.lam for p in pairs] == [1.0 - 1.0j, 1.0 + 1.0j]
    assert all(
        p.classification is EigenvalueClass.POSITIVE_REAL_PART for p in pairs
    )


def test_eigen_decompose_counterexample_contains_imaginary_pair():
    op = build_counterexample()
    pairs = eigen_decompose(build_d_tilde(op), h=op.h)
    values = np.array([p.lam for p in pairs])
    assert np.min(np.abs(values - 1j * INV_SQRT5)) < 1e-10
    assert np.min(np.abs(values + 1j * INV_SQRT5)) < 1e-10


def test_eigen_decompose_identity_multiplicity():
    pairs = eigen_decompose(np.eye(3))
    assert all(p.lam == pytest.approx(1.0) for p in pairs)
    stacked = np.column_stack([p.w for p in pairs])
    assert np.linalg.matrix_rank(stacked) == 3


def test_eigen_decompose_residual_bound():
    for op in (build_counterexample(), build_two_point(),
               build_classical_fd(9, Interval(0.0, 1.0))):
        a = build_d_tilde(op)
        scale = np.linalg.norm(a, "fro")
        for p in eigen_decompose(a, h=op.h):
            residual = np.linalg.norm(a @ p.w - p.lam * p.w)
            assert residual <= 1e-10 * scale * np.linalg.norm(p.w)


def test_eigen_decompose_rejects_complex_input():
    with pytest.raises(ContractError):
        eigen_decompose(np.eye(2, dtype=complex) * 1j)


def test_eigen_decompose_classifies_negative_real_parts():
    pairs = eigen_decompose(np.diag([-1.0, 2.0]))
    assert pairs[0].classification is EigenvalueClass.NEGATIVE_REAL_PART
    assert pairs[1].classification is EigenvalueClass.POSITIVE_REAL_PART


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
# classification and conjugate pairing


def test_classify_and_pair_counterexample():
    op = build_counterexample()
    report = spectral_report(op)
    assert report.m == 1
    assert len(report.imaginary()) == 2


def test_classify_and_pair_two_point():
    assert spectral_report(build_two_point()).m == 0


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_report_rejects_a_nonpositive_band(tau):
    # With tau = -1 the band is empty and the +-i/sqrt(5) pair would go uncounted.
    with pytest.raises(ParameterError):
        spectral_report(build_counterexample(), tau_eig=tau)


def test_classification_band():
    w = np.array([1.0, 0.0])
    pair_plus = HEigenPair(1e-15 + 0.3j, w.astype(complex),
                           EigenvalueClass.POSITIVE_REAL_PART, 1.0)
    pair_minus = HEigenPair(1e-15 - 0.3j, w.astype(complex),
                            EigenvalueClass.POSITIVE_REAL_PART, 1.0)
    pairs, m = classify_and_pair([pair_plus, pair_minus], tau_eig=1e-9, scale=1.0)
    assert m == 1
    assert all(p.classification is EigenvalueClass.IMAGINARY for p in pairs)


def test_unpaired_imaginary_eigenvalue_is_an_error():
    w = np.array([1.0, 0.0], dtype=complex)
    lone = HEigenPair(0.3j, w, EigenvalueClass.IMAGINARY, 1.0)
    with pytest.raises(PairingError):
        classify_and_pair([lone], tau_eig=1e-9, scale=1.0)


def test_zero_eigenvalue_cannot_be_paired():
    w = np.array([1.0, 0.0], dtype=complex)
    zeros = [
        HEigenPair(0.0 + 0.0j, w, EigenvalueClass.IMAGINARY, 1.0),
        HEigenPair(0.0 + 0.0j, w, EigenvalueClass.IMAGINARY, 1.0),
    ]
    with pytest.raises(PairingError):
        classify_and_pair(zeros, tau_eig=1e-9, scale=1.0)


def test_conjugate_closure_is_exact():
    report = spectral_report(build_counterexample())
    imaginary = report.imaginary()
    by_value = {p.lam for p in imaginary}
    for p in imaginary:
        assert np.conj(p.lam) in by_value
    plus = [p for p in imaginary if p.lam.imag > 0][0]
    minus = [p for p in imaginary if p.lam.imag < 0][0]
    np.testing.assert_array_equal(minus.w, np.conj(plus.w))


# ---------------------------------------------------------------------------
# orthogonalization


def test_orthogonalize_counterexample():
    op = build_counterexample()
    report = spectral_report(op)
    vectors = orthogonalize_imaginary(report, op.h)
    assert len(vectors) == 2
    for v in vectors:
        assert h_norm(v, op.h) == pytest.approx(1.0, abs=1e-12)
    assert abs(h_inner(vectors[0], vectors[1], op.h)) < 1e-10


def test_orthogonalize_single_vector_is_normalized():
    op = build_counterexample()
    w = _paper_style_eigenvector()
    single = [HEigenPair(1j * INV_SQRT5, w, EigenvalueClass.IMAGINARY,
                         h_norm(w, op.h))]
    vectors = orthogonalize_imaginary(single, op.h)
    assert h_norm(vectors[0], op.h) == pytest.approx(1.0, abs=1e-12)


def test_orthogonalize_degenerate_input():
    op = build_counterexample()
    w = _paper_style_eigenvector()
    duplicated = [
        HEigenPair(1j * INV_SQRT5, w, EigenvalueClass.IMAGINARY, h_norm(w, op.h)),
        HEigenPair(1j * INV_SQRT5, w.copy(), EigenvalueClass.IMAGINARY,
                   h_norm(w, op.h)),
    ]
    with pytest.raises(DegenerateEigenspaceError):
        orthogonalize_imaginary(duplicated, op.h)


def test_orthogonalize_requires_imaginary_pairs():
    op = build_two_point()
    with pytest.raises(ContractError):
        orthogonalize_imaginary(spectral_report(op), op.h)


# ---------------------------------------------------------------------------
# structural probes


def test_boundary_projections_vanish_on_counterexample():
    op = build_counterexample()
    report = spectral_report(op)
    for pair, triple in zip(report.imaginary(), report.boundary_residuals):
        scale = np.linalg.norm(pair.w)
        assert all(r <= 1e-10 * scale for r in triple)


def test_moment_residuals_vanish_on_counterexample():
    op = build_counterexample()
    w = _paper_style_eigenvector()
    # direct oracle: weighted dot products with 1 and x
    weights = np.diagonal(op.h)
    assert abs(np.sum(weights * w)) < 1e-12
    assert abs(np.sum(weights * op.x * w)) < 1e-12
    report = spectral_report(op)
    for pair, moments in zip(report.imaginary(), report.moment_residuals):
        assert len(moments) == op.q + 1
        assert all(r <= 1e-10 * pair.h_norm for r in moments)


def test_probes_reject_non_imaginary_pairs():
    op = build_two_point()
    pair = spectral_report(op).pairs[0]
    with pytest.raises(ContractError):
        boundary_projection_residuals(op, pair)
    with pytest.raises(ContractError):
        polynomial_moment_residuals(op, pair)


def test_repaired_operator_has_no_imaginary_pairs():
    repaired, _ = repair_operator(build_counterexample(), 1e-3)
    report = spectral_report(repaired)
    assert report.m == 0
    assert report.imaginary() == ()
    assert report.boundary_residuals == ()


# ---------------------------------------------------------------------------
# structure of the imaginary spectrum


def test_imaginary_eigenvectors_are_h_orthogonal_to_all_others():
    op = build_counterexample()
    report = spectral_report(op)
    for p in report.imaginary():
        for other in report.pairs:
            if abs(other.lam - p.lam) < 1e-12:
                continue
            inner = abs(h_inner(p.w, other.w, op.h))
            assert inner <= 1e-8 * p.h_norm * other.h_norm


def test_imaginary_eigenvalues_are_nondefective():
    op = build_counterexample()
    d_tilde = build_d_tilde(op)
    for lam in (1j * INV_SQRT5, -1j * INV_SQRT5):
        assert geometric_multiplicity(d_tilde, lam) == 1


def test_report_document_round_trip_fields():
    doc = spectral_report(build_counterexample()).to_document()
    assert doc["m"] == 1
    assert len(doc["eigenvalues"]) == 6
    assert len(doc["eigenvectors"][0]) == 12
    assert doc["classifications"].count("imaginary") == 2
