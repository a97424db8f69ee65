import numpy as np
import pytest

from sbpkit import (
    EigenvalueClass,
    HEigenPair,
    NormChoice,
    analyze,
    build_counterexample,
    build_d_tilde,
    build_s_prime,
    build_two_point,
    check_eigenvalue_property,
    orthogonalize_imaginary,
    predicted_shift,
    repair_operator,
    spectral_report,
    verify_all,
)
from sbpkit.errors import (
    ContractError,
    ParameterError,
    RepairImpossibleError,
    ShapeError,
)
from sbpkit.linalg import svd_rank

from oracles import h_norm


def _paper_style_eigenvector():
    # closed-form eigenvector of the counterexample for i/sqrt(5); ||w||_H^2 = 40
    return np.array([0, 1, -3, 3, -1, 0], dtype=float) + 1j * np.sqrt(5.0) * np.array(
        [0, 1, -1, -1, 1, 0], dtype=float
    )


def _ortho_vectors(op):
    return orthogonalize_imaginary(spectral_report(op), op.h)


def _sorted_eigs(matrix):
    lam = np.linalg.eigvals(matrix)
    return lam[np.lexsort((lam.imag, lam.real))]


# ---------------------------------------------------------------------------
# build_s_prime


def test_s_prime_counterexample_structure():
    op = build_counterexample()
    s_prime = build_s_prime(op.h, _ortho_vectors(op), [1.0])
    rank, _ = svd_rank(s_prime)
    assert rank == 2
    assert np.max(np.abs(s_prime - s_prime.T)) < 1e-15
    assert np.max(np.abs(s_prime @ np.ones(6))) < 1e-14
    assert np.max(np.abs(s_prime @ op.x)) < 1e-14
    assert np.min(np.linalg.eigvalsh(s_prime)) > -1e-14


def test_s_prime_empty_input_is_zero():
    op = build_two_point()
    np.testing.assert_array_equal(build_s_prime(op.h, [], []), np.zeros((2, 2)))


def test_s_prime_is_linear_in_eps():
    op = build_counterexample()
    vectors = _ortho_vectors(op)
    one = build_s_prime(op.h, vectors, [1.0])
    two = build_s_prime(op.h, vectors, [2.0])
    np.testing.assert_array_equal(two, 2.0 * one)


def test_s_prime_rejects_unnormalized_vectors():
    op = build_counterexample()
    vectors = [2.0 * v for v in _ortho_vectors(op)]
    with pytest.raises(ContractError, match="orthonormal"):
        build_s_prime(op.h, vectors, [1.0])


def test_s_prime_rejects_complex_vectors():
    op = build_counterexample()
    w = _paper_style_eigenvector() / np.sqrt(40.0)
    with pytest.raises(ContractError, match="real"):
        build_s_prime(op.h, [w, np.conj(w)], [1.0])
    with pytest.raises(ContractError, match="real"):
        build_s_prime(op.h, [v.astype(complex) for v in _ortho_vectors(op)], [1.0])


def test_s_prime_rejects_mismatched_lengths():
    op = build_counterexample()
    vectors = [np.append(v, 0.0) for v in _ortho_vectors(op)]
    with pytest.raises(ShapeError):
        build_s_prime(op.h, vectors, [1.0])


def test_s_prime_closed_form_on_counterexample():
    # unit-H-norm w gives (Hw)(Hw)* + (Hw~)(Hw~)* = 2 H (Re w Re w^T + Im w Im w^T) H
    op = build_counterexample()
    w = _paper_style_eigenvector()
    expected = 2.0 * op.h @ (np.outer(w.real, w.real) + np.outer(w.imag, w.imag)) @ op.h / 40.0
    _, plan = repair_operator(op, 1e-3)
    unit = plan.s_prime / plan.epsilons[0]
    assert np.max(np.abs(unit - expected)) <= 1e-14


def test_s_prime_on_a_two_dimensional_eigenspace():
    # two non-orthogonal eigenvectors of one imaginary eigenvalue; the diagonal
    # H keeps Re w and Im w H-orthogonal with equal norms, as an H-skew
    # operator's eigenvectors are
    h = np.diag([2.0, 2.0, 3.0, 3.0, 1.0, 1.0])
    first = np.array([1, 1j, 0, 0, 0, 0])
    second = first + np.array([0, 0, 1, 1j, 0, 0])
    pairs = [HEigenPair(0.5j, w, EigenvalueClass.IMAGINARY, h_norm(w, h))
             for w in (first, second)]
    vectors = orthogonalize_imaginary(pairs, h)
    q = np.column_stack(vectors)
    assert q.shape == (6, 4)
    assert np.max(np.abs(q.conj().T @ h @ q - np.eye(4))) <= 1e-14
    # the H-orthogonal projector onto span{e_1..e_4} is diag(1/2, 1/2, 1/3, 1/3, 0, 0)
    x = np.column_stack([first.real, first.imag, second.real, second.imag])
    projector = x @ np.linalg.solve(x.T @ h @ x, x.T)
    np.testing.assert_allclose(projector, np.diag([0.5, 0.5, 1 / 3, 1 / 3, 0, 0]),
                               atol=1e-15)
    s_prime = build_s_prime(h, vectors, [1.0, 1.0])
    assert np.max(np.abs(s_prime - h @ projector @ h)) <= 1e-14


def test_s_prime_rejects_nonpositive_eps():
    op = build_counterexample()
    for eps in (-1.0, 0.0, float("nan")):
        with pytest.raises(ParameterError):
            build_s_prime(op.h, _ortho_vectors(op), [eps])


def test_s_prime_rejects_odd_vector_count():
    op = build_counterexample()
    with pytest.raises(ContractError):
        build_s_prime(op.h, _ortho_vectors(op)[:1], [1.0])


# ---------------------------------------------------------------------------
# predicted_shift


def test_predicted_shift_unit_vector():
    pair = HEigenPair(0.3j, np.array([1.0 + 0j]), EigenvalueClass.IMAGINARY, 1.0)
    assert predicted_shift(pair, 0.01) == pytest.approx(0.005)


def test_predicted_shift_unnormalized_vector():
    # the closed-form eigenvector has squared H-norm 40
    op = build_counterexample()
    w = _paper_style_eigenvector()
    pair = HEigenPair(0.4472135955j, w, EigenvalueClass.IMAGINARY, h_norm(w, op.h))
    eps = 0.01
    assert predicted_shift(pair, eps) == pytest.approx(20.0 * eps, rel=1e-12)


def test_predicted_shift_requires_imaginary_pair():
    pair = HEigenPair(1.0 + 1.0j, np.array([1.0 + 0j]),
                      EigenvalueClass.POSITIVE_REAL_PART, 1.0)
    with pytest.raises(ContractError):
        predicted_shift(pair, 0.01)


def test_measured_shift_matches_prediction():
    op = build_counterexample()
    target = 1e-3
    repaired, plan = repair_operator(op, target)
    shifted = _sorted_eigs(build_d_tilde(repaired))
    predicted = 0.5 * plan.epsilons[0]
    previously_imaginary = shifted[np.abs(shifted.imag) > 0.4]
    moved = previously_imaginary[np.abs(np.abs(previously_imaginary.imag)
                                        - 0.4472135955) < 1e-6]
    assert len(moved) == 2
    for lam in moved:
        assert lam.real == pytest.approx(predicted, abs=1e-8)


# ---------------------------------------------------------------------------
# repair_operator


@pytest.mark.parametrize("norm_choice", [NormChoice.FROBENIUS, NormChoice.SPECTRAL])
def test_repair_meets_norm_budget_exactly(norm_choice):
    op = build_counterexample()
    target = 1e-3
    repaired, plan = repair_operator(op, target, norm_choice)
    ord_key = "fro" if norm_choice is NormChoice.FROBENIUS else 2
    achieved = np.linalg.norm(repaired.d_plus - op.d_plus, ord_key)
    assert achieved <= target * (1.0 + 1e-14)
    assert achieved == pytest.approx(target, rel=1e-13)
    assert plan.norm_bound == pytest.approx(target, rel=1e-13)


def test_repair_restores_eigenvalue_property():
    repaired, plan = repair_operator(build_counterexample(), 1e-3)
    assert plan.m == 1
    report = verify_all(repaired)
    assert report.all_passed()
    assert report.eigenvalue_property
    assert report.observed_order == 1


def test_repair_preserves_accuracy_and_identities():
    op = build_counterexample()
    repaired, _ = repair_operator(op, 1e-2)
    for j in range(op.q + 1):
        xj = op.x**j if j else np.ones(6)
        target = j * op.x ** (j - 1) if j else np.zeros(6)
        assert np.max(np.abs(repaired.d_plus @ xj - target)) <= 1e-10
    lhs_c = (repaired.h @ repaired.d_plus + repaired.d_plus.T @ repaired.h
             + np.outer(op.p0, op.p0) - np.outer(op.pn, op.pn) - repaired.s)
    lhs_d = (repaired.h @ repaired.d_plus + repaired.d_minus.T @ repaired.h
             + np.outer(op.p0, op.p0) - np.outer(op.pn, op.pn))
    assert np.max(np.abs(lhs_c)) <= 1e-10
    assert np.max(np.abs(lhs_d)) <= 1e-10


def test_repair_leaves_other_eigenvalues_in_place():
    op = build_counterexample()
    before = _sorted_eigs(build_d_tilde(op))
    repaired, _ = repair_operator(op, 1e-2)
    after = _sorted_eigs(build_d_tilde(repaired))
    scale = np.linalg.norm(build_d_tilde(op), "fro")
    untouched = before[np.abs(before.real) > 1e-8]
    for lam in untouched:
        assert np.min(np.abs(after - lam)) <= 1e-8 * scale


def test_repair_is_idempotent():
    op = build_counterexample()
    repaired, _ = repair_operator(op, 1e-3)
    again, plan = repair_operator(repaired, 1e-3)
    assert again is repaired
    assert plan.is_empty()
    assert plan.norm_bound == 0.0


def test_repair_returns_conforming_operator_unchanged():
    op = build_two_point()
    repaired, plan = repair_operator(op, 1e-3)
    assert repaired is op
    assert plan.is_empty()


def test_repair_requires_nullspace_consistency():
    op = build_counterexample()
    d = np.array(op.d_plus)
    d[2] = 0.0
    d[3] = 0.0
    crippled = op.with_fields(d_plus=d, d_minus=d)
    with pytest.raises(RepairImpossibleError):
        repair_operator(crippled, 1e-3)


def test_repair_rejects_negative_real_parts():
    # -D_plus of the two-point operator keeps the constants as its kernel,
    # but its penalized matrix [[3, -1], [1, -1]] has determinant -2
    op = build_two_point()
    flipped = op.with_fields(d_plus=-op.d_plus, d_minus=-op.d_minus)
    with pytest.raises(ContractError, match="negative real part"):
        repair_operator(flipped, 1e-3)


def test_repair_rejects_nonpositive_target():
    with pytest.raises(ParameterError):
        repair_operator(build_counterexample(), 0.0)


def test_repair_updates_dissipation_and_flavor_inputs():
    op = build_counterexample()
    repaired, plan = repair_operator(op, 1e-3)
    np.testing.assert_array_equal(repaired.s, op.s + plan.s_prime)
    assert repaired.q == op.q
    np.testing.assert_array_equal(repaired.h, op.h)
    np.testing.assert_array_equal(repaired.p0, op.p0)
    np.testing.assert_array_equal(repaired.pn, op.pn)


def test_plan_document_fields():
    _, plan = repair_operator(build_counterexample(), 1e-3)
    doc = plan.to_document()
    assert doc["m"] == 1
    assert doc["norm_choice"] == "frobenius"
    assert len(doc["s_prime"]) == 36
    assert doc["epsilons"][0] == pytest.approx(1e-3 * np.sqrt(2.0), rel=1e-10)


def test_repaired_spectrum_is_clean():
    repaired, plan = repair_operator(build_counterexample(), 1e-6)
    check = check_eigenvalue_property(analyze(repaired))
    assert check.has_property
    assert check.min_real_part == pytest.approx(0.5 * plan.epsilons[0], rel=1e-6)
