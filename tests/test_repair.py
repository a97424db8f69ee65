import dataclasses
import importlib
import pathlib

import numpy as np
import pytest

from sbpkit import (
    Interval,
    NormChoice,
    Property,
    build_classical_fd,
    build_counterexample,
    build_d_tilde,
    build_two_point,
    check_eigenvalue_property,
    repair_operator,
    spectral,
    spectral_report,
    verify_all,
)
from sbpkit.errors import (
    ContractError,
    InternalInconsistencyError,
    ParameterError,
    RepairImpossibleError,
)
from sbpkit.linalg import max_abs, rank_threshold, svd_rank
from sbpkit.operators import _is_diagonal
from sbpkit.repair import build_s_prime
from sbpkit.spectral import orthogonalize_imaginary

from oracles import d_tilde_h_coordinates, reference_eigenvalue_check, verdict_of

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _paper_style_eigenvector():
    # closed-form eigenvector of the counterexample for i/sqrt(5); ||w||_H^2 = 40
    return np.array([0, 1, -3, 3, -1, 0], dtype=float) + 1j * np.sqrt(5.0) * np.array(
        [0, 1, -1, -1, 1, 0], dtype=float
    )


def _basis(op):
    return orthogonalize_imaginary(op).basis


def _sorted_eigs(matrix):
    lam = np.linalg.eigvals(matrix)
    return lam[np.lexsort((lam.imag, lam.real))]


# ---------------------------------------------------------------------------
# build_s_prime


def test_s_prime_counterexample_structure():
    op = build_counterexample()
    s_prime, _ = build_s_prime(op.h, _basis(op), 1.0)
    rank, _ = svd_rank(s_prime)
    assert rank == 2
    assert np.max(np.abs(s_prime - s_prime.T)) < 1e-15
    assert np.max(np.abs(s_prime @ np.ones(6))) < 1e-14
    assert np.max(np.abs(s_prime @ op.x)) < 1e-14
    assert np.min(np.linalg.eigvalsh(s_prime)) > -1e-14


def test_s_prime_empty_input_is_zero():
    op = build_two_point()
    s_prime, u = build_s_prime(op.h, np.empty((2, 0)), 1.0)
    np.testing.assert_array_equal(s_prime, np.zeros((2, 2)))
    assert u.shape == (2, 0)


def test_s_prime_is_linear_in_eps():
    op = build_counterexample()
    q = _basis(op)
    one, u_one = build_s_prime(op.h, q, 1.0)
    two, u_two = build_s_prime(op.h, q, 2.0)
    np.testing.assert_array_equal(two, 2.0 * one)
    assert u_one.tobytes() == u_two.tobytes() == (op.h @ q).tobytes()


def test_s_prime_closed_form_on_counterexample():
    # unit-H-norm w gives (Hw)(Hw)* + (Hw~)(Hw~)* = 2 H (Re w Re w^T + Im w Im w^T) H
    op = build_counterexample()
    w = _paper_style_eigenvector()
    expected = 2.0 * op.h @ (np.outer(w.real, w.real) + np.outer(w.imag, w.imag)) @ op.h / 40.0
    _, plan = repair_operator(op, 1e-3)
    unit = plan.s_prime / plan.epsilons[0]
    assert np.max(np.abs(unit - expected)) <= 1e-14


def test_s_prime_on_a_two_dimensional_eigenspace():
    # an explicit H-orthonormal basis Q of span{e_1..e_4}: any such basis
    # has Q Q^T = P = diag(1/2, 1/2, 1/3, 1/3, 0, 0), and S' = H P H
    h = np.diag([2.0, 2.0, 3.0, 3.0, 1.0, 1.0])
    q = np.eye(6)[:, :4] / np.sqrt(np.diagonal(h)[:4])
    s_prime, _ = build_s_prime(h, q, 1.0)
    p = np.diag([0.5, 0.5, 1 / 3, 1 / 3, 0.0, 0.0])
    assert np.max(np.abs(s_prime - h @ p @ h)) <= 1e-14


def test_s_prime_of_one_vector_is_rank_one():
    # One eps for any number of H-orthonormal vectors: S' = eps (Hv)(Hv)^T.
    op = build_counterexample()
    v = _basis(op)[:, 0]
    s_prime, _ = build_s_prime(op.h, v[:, None], 0.5)
    assert svd_rank(s_prime)[0] == 1
    np.testing.assert_allclose(s_prime, 0.5 * np.outer(op.h @ v, op.h @ v), rtol=0, atol=1e-15)


def _assert_the_checks_basis_is_h_orthonormal(op, pairs):
    # build_s_prime takes Q as it is, with no Gram check: S' = eps H Q Q^T H
    # is the dissipation of the paper only for an H-orthonormal Q.
    q = check_eigenvalue_property(op).basis
    assert q.shape == (op.n + 1, 2 * pairs)
    assert max_abs(q.T @ op.h @ q - np.eye(2 * pairs)) <= rank_threshold(1.0, op.n + 1)


def test_the_checks_basis_is_h_orthonormal_on_the_counterexample():
    _assert_the_checks_basis_is_h_orthonormal(build_counterexample(), 1)


@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("seed", [7, 947])
def test_the_checks_basis_is_h_orthonormal_on_the_benchmark_inputs(monkeypatch, seed, slot):
    # The repair_planted inputs: 1, 3 or 6 planted pairs, plain (diagonal H)
    # in slots 0, 2, 4 and under a congruence (dense H) in slots 1, 3, 5.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    worker = importlib.import_module("worker")
    pair = gen.repair_input(seed, slot)[0]
    op = worker.to_op(pair)
    assert _is_diagonal(op.h) == (slot % 2 == 0)
    _assert_the_checks_basis_is_h_orthonormal(op, gen.REPAIR_SLOTS[slot][1])


# ---------------------------------------------------------------------------
# shift of the imaginary eigenvalues


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


@pytest.mark.parametrize("norm_choice", list(NormChoice), ids=lambda c: c.value)
def test_a_norm_choice_given_by_its_value_measures_that_norm(norm_choice):
    op = build_counterexample()
    repaired, plan = repair_operator(op, 1e-3, norm_choice.value)
    expected, _ = repair_operator(op, 1e-3, norm_choice)
    np.testing.assert_array_equal(repaired.d_plus, expected.d_plus)
    assert plan.norm_choice is norm_choice
    assert plan.to_document()["norm_choice"] == norm_choice.value
    with pytest.raises(ParameterError, match="bogus"):
        repair_operator(op, 1e-3, "bogus")


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
    assert plan.m == 0
    assert plan.norm_bound == 0.0


def test_repair_returns_conforming_operator_unchanged():
    op = build_two_point()
    repaired, plan = repair_operator(op, 1e-3)
    assert repaired is op
    assert plan.m == 0


def test_the_repair_leaves_an_identity_the_input_misses_missed():
    # D_minus moves by -1/2 H^-1 S' and keeps the D identity's defect.
    op = build_counterexample()
    d_minus = np.array(op.d_minus)
    d_minus[2, 3] += 1e-3
    off = op.with_fields(d_minus=d_minus)
    before = {r.property: r for r in verify_all(off).residuals}[Property.D_IDENTITY]
    repaired, _ = repair_operator(off, 1e-6)
    after = {r.property: r for r in verify_all(repaired).residuals}[Property.D_IDENTITY]
    assert not before.passed and not after.passed
    assert after.residual == pytest.approx(before.residual, rel=1e-6)
    assert after.residual == pytest.approx(1e-3, rel=1e-6)
    assert np.max(np.abs(repaired.d_minus - off.d_minus)) <= 1e-6


def test_repair_requires_nullspace_consistency():
    op = build_counterexample()
    d = np.array(op.d_plus)
    d[2] = 0.0
    d[3] = 0.0
    crippled = op.with_fields(d_plus=d, d_minus=d)
    with pytest.raises(RepairImpossibleError):
        repair_operator(crippled, 1e-3)


def test_a_basis_of_n_of_odd_dimension_is_refused(monkeypatch):
    # One value and one column of the counterexample's N dropped: half of a
    # conjugate pair, which the repair would otherwise act on as m = 0 pairs.
    analyse = spectral.orthogonalize_imaginary

    def halved(op):
        check = analyse(op)
        return dataclasses.replace(check, offending=check.offending[1:], basis=check.basis[:, 1:])

    monkeypatch.setattr(spectral, "orthogonalize_imaginary", halved)
    with pytest.raises(InternalInconsistencyError, match=r"odd number of columns \(1\)"):
        repair_operator(build_counterexample(), 1e-3)


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


def test_repair_rejects_an_infinite_target():
    # An infinite budget would scale S' to inf and D_plus' to nan.
    with pytest.raises(ParameterError, match="finite"):
        repair_operator(build_counterexample(), float("inf"))


@pytest.mark.parametrize("target", [1e200, 1e-200])
def test_a_budget_whose_frobenius_norm_is_not_finite_and_positive_is_refused(target):
    # 1e200 scales the update's squares past the largest double and 1e-200
    # below the smallest, so its Frobenius norm reads inf or 0: the plan
    # cannot report what it achieved.  No numpy warning escapes (the suite
    # turns warnings into errors).
    with pytest.raises(ParameterError, match=r"^target_eps .* frobenius norm"):
        repair_operator(build_counterexample(), target)


@pytest.mark.parametrize("target", [1e200, 1e-200])
def test_the_spectral_norm_of_an_extreme_budget_is_read_from_the_core(target):
    repaired, plan = repair_operator(build_counterexample(), target, NormChoice.SPECTRAL)
    assert plan.norm_bound == pytest.approx(target, rel=1e-13)
    assert np.all(np.isfinite(repaired.d_plus)) and np.all(np.isfinite(plan.s_prime))


@pytest.mark.parametrize("slot", range(6))
def test_the_spectral_norm_from_the_core_is_the_norm_of_the_update(monkeypatch, slot):
    # The 2m x 2m core R1 R2^T of Q (H Q)^T has its spectral norm.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    worker = importlib.import_module("worker")
    op = worker.to_op(gen.repair_input(7, slot)[0])
    repaired, plan = repair_operator(op, 1e-3, NormChoice.SPECTRAL)
    achieved = np.linalg.norm(repaired.d_plus - op.d_plus, 2)
    assert achieved == pytest.approx(1e-3, rel=1e-11)
    assert plan.norm_bound == pytest.approx(1e-3, rel=1e-14)


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
    with pytest.raises(ValueError, match="read-only"):
        doc["s_prime"][0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        plan.s_prime[0, 0] = 7.0


def test_repaired_spectrum_is_clean():
    repaired, plan = repair_operator(build_counterexample(), 1e-6)
    check = check_eigenvalue_property(repaired)
    assert check.has_property
    min_real_part = spectral_report(repaired).eigenvalues[0].real
    assert min_real_part == pytest.approx(0.5 * plan.epsilons[0], rel=1e-6)


# ---------------------------------------------------------------------------
# planted imaginary subspace


def _congruence(op, rng, rank=3, size=0.5):
    """Map ``op`` by ``T = I + U V^T`` with ``V^T x^j = 0`` for j <= q + 1 and
    ``||U V^T||_2 = size``: ``D -> T^-1 D T``, ``H -> T^T H T``,
    ``S -> T^T S T``, ``p -> T^T p``.  T keeps the grid polynomials, so the
    result is an operator of the same order with a dense H and the same
    penalized spectrum.  Returns it and ``T^-1``."""
    n1 = op.n + 1
    poly, _ = np.linalg.qr(np.vander(op.x, op.q + 2, increasing=True))
    v = rng.standard_normal((n1, rank))
    v -= poly @ (poly.T @ v)
    v /= np.linalg.norm(v, axis=0)
    u = rng.standard_normal((n1, rank))
    u *= size / np.linalg.norm(u @ v.T, 2)
    t = np.eye(n1) + u @ v.T
    t_inv = np.linalg.inv(t)
    h = t.T @ op.h @ t
    return op.with_fields(d_plus=t_inv @ op.d_plus @ t, d_minus=t_inv @ op.d_minus @ t,
                          h=0.5 * (h + h.T), s=t.T @ op.s @ t, p0=t.T @ op.p0,
                          pn=t.T @ op.pn), t_inv


def _plant(op, omegas, rng, congruent):
    """Plant +-i*omega_k into ``op`` (S = 0) as ``perfbench/gen.py:plant_pairs``
    does: ``D' = (I - P) D (I - P) + sum_k omega_k (v_k u_k^T - u_k v_k^T) H``
    with ``Z = [u_1, v_1, ...]`` H-orthonormal, annihilated by p0 and pn and
    H-orthogonal to x^0..x^q, and ``P = Z Z^T H``.  With ``congruent`` the
    result is mapped by :func:`_congruence`, which gives a dense H.  Returns
    the operator and its planted Z."""
    size = op.n + 1
    h = op.h
    c = np.vstack([op.p0, op.pn, (h @ np.vander(op.x, op.q + 1, increasing=True)).T])
    rows, _ = np.linalg.qr(c.T)
    z = rng.standard_normal((size, 2 * len(omegas)))
    z -= rows @ (rows.T @ z)
    z = np.linalg.solve(np.linalg.cholesky(z.T @ h @ z), z.T).T
    rot = np.zeros((size, size))
    for k, omega in enumerate(omegas):
        u, v = z[:, 2 * k], z[:, 2 * k + 1]
        rot += omega * (np.outer(v, u) - np.outer(u, v))
    proj = np.eye(size) - z @ z.T @ h
    d = proj @ op.d_plus @ proj + rot @ h
    planted = op.with_fields(d_plus=d, d_minus=d)
    if not congruent:
        return planted, z
    mapped, t_inv = _congruence(planted, rng)
    return mapped, t_inv @ z


@pytest.mark.parametrize("congruent", [False, True], ids=["plain", "congruent"])
@pytest.mark.parametrize("omegas", [(3.0,), (9.0, 9.0, 17.0)], ids=["3", "9_9_17"])
def test_repair_is_the_projector_onto_the_planted_subspace(omegas, congruent):
    op, z = _plant(build_classical_fd(40, Interval(0.0, 1.0)), omegas,
                   np.random.default_rng(40), congruent)
    m = len(omegas)
    assert orthogonalize_imaginary(op).basis.shape == (op.n + 1, 2 * m)

    repaired, plan = repair_operator(op, 1e-3)
    eps = plan.epsilons[0]
    expected = op.h @ z @ z.T @ op.h
    assert np.max(np.abs(plan.s_prime / eps - expected)) <= 1e-12 * np.max(np.abs(expected))

    # the planted +-i*omega_k move to eps/2 +- i*omega_k, the rest stays
    before = _sorted_eigs(build_d_tilde(op))
    planted = np.concatenate([1j * np.array(omegas), -1j * np.array(omegas)])
    near = np.min(np.abs(before[:, None] - planted[None, :]), axis=1) <= 1e-9
    assert np.count_nonzero(near) == 2 * m
    after = list(_sorted_eigs(build_d_tilde(repaired)))
    for lam in np.where(near, before + 0.5 * eps, before):
        k = int(np.argmin(np.abs(np.array(after) - lam)))
        assert abs(after.pop(k) - lam) <= 1e-9


@pytest.mark.parametrize("congruent", [False, True], ids=["plain", "congruent"])
@pytest.mark.parametrize("omegas", [(3.0,), (9.0, 9.0, 17.0),
                                    (3.0, 7.0, 9.0, 9.0, 17.0, 25.0)], ids=["1", "3", "6"])
def test_hautus_and_band_find_the_planted_subspace(omegas, congruent):
    op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), omegas,
                   np.random.default_rng(40), congruent)
    report = spectral_report(op)
    offending = check_eigenvalue_property(op).offending
    # exact i mu values come from the Hautus test, not from the band's eig
    assert all(value.real == 0.0 for value in offending)
    q = orthogonalize_imaginary(op).basis
    assert len(offending) == q.shape[1] == 2 * report.m
    assert not np.iscomplexobj(q)
    assert np.max(np.abs(q.T @ op.h @ q - np.eye(q.shape[1]))) <= 1e-12
    assert report.m == len(omegas)
    planted = np.concatenate([-np.array(omegas), omegas])
    np.testing.assert_allclose(sorted(v.imag for v in offending), np.sort(planted),
                               rtol=1e-10)


@pytest.mark.parametrize("congruent", [False, True], ids=["plain", "congruent"])
@pytest.mark.parametrize("omegas", [(3.0,), (9.0, 9.0, 17.0),
                                    (3.0, 7.0, 9.0, 9.0, 17.0, 25.0)], ids=["1", "3", "6"])
def test_the_repair_acts_on_the_checks_basis_of_the_planted_subspace(omegas, congruent):
    op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), omegas,
                   np.random.default_rng(40), congruent)
    check = check_eigenvalue_property(op)
    q = orthogonalize_imaginary(op).basis
    assert check.basis.shape == q.shape == (op.n + 1, 2 * len(omegas))
    assert check.basis.tobytes() == q.tobytes()
    assert not verify_all(op).eigenvalue_property
    repaired, plan = repair_operator(op, 1e-3)
    assert repaired is not op and plan.m == len(omegas)
    expected, _ = build_s_prime(op.h, check.basis, plan.epsilons[0])
    np.testing.assert_allclose(plan.s_prime, expected, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(expected)))


def _repairs():
    """(op, repaired, plan) for the counterexample and the planted operators."""
    op = build_counterexample()
    for eps in (1e-2, 1e-6, 1e-11):
        for norm in NormChoice:
            yield op, *repair_operator(op, eps, norm)
    for omegas in ((3.0,), (9.0, 9.0, 17.0), (3.0, 7.0, 9.0, 9.0, 17.0, 25.0)):
        for congruent in (False, True):
            op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), omegas,
                           np.random.default_rng(40), congruent)
            yield op, *repair_operator(op, 1e-3)


def test_the_repair_moves_d_minus_opposite_to_d_plus():
    # D_plus' - D_plus = 1/2 H^-1 S' = D_minus - D_minus', to the rounding of
    # the sums with D_plus and D_minus.
    cases = list(_repairs())
    assert len(cases) == 12
    for op, repaired, plan in cases:
        assert plan.m > 0
        step_plus = repaired.d_plus - op.d_plus
        step_minus = repaired.d_minus - op.d_minus
        rounding = 4 * np.finfo(float).eps * max(np.max(np.abs(op.d_plus)),
                                                 np.max(np.abs(op.d_minus)))
        assert np.max(np.abs(step_minus + step_plus)) <= rounding
        np.testing.assert_allclose(step_plus, 0.5 * np.linalg.solve(op.h, plan.s_prime),
                                   rtol=0.0, atol=rounding + 1e-12 * np.max(np.abs(step_plus)))


def test_the_repair_makes_no_solve_of_its_own(monkeypatch):
    # With a dense H, the solves of a repair are the Hautus test's two: one
    # into H coordinates, one mapping N's basis back.  The update
    # (eps/2) Q (H Q)^T needs none, and no D_tilde is built.
    op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), (9.0, 9.0, 17.0),
                   np.random.default_rng(40), congruent=True)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    check_eigenvalue_property(op)
    analysis = len(solves)
    _, plan = repair_operator(op, 1e-3)
    assert plan.m == 3
    assert len(solves) - analysis == analysis == 2


def _planted(omegas, congruent, repaired=False):
    op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), omegas,
                   np.random.default_rng(40), congruent)
    return repair_operator(op, 1e-3)[0] if repaired else op


#: Each builder with whether its H is diagonal and whether its S is nonzero.
H_COORDINATE_FIXTURES = {
    "counterexample": (build_counterexample, True, False),
    "repaired_counterexample":
        (lambda: repair_operator(build_counterexample(), 1e-3)[0], True, True),
    "repaired_planted_plain": (lambda: _planted((9.0, 9.0, 17.0), False, True), True, True),
    "planted_congruent": (lambda: _planted((9.0, 9.0, 17.0), True), False, False),
    "repaired_planted_congruent":
        (lambda: _planted((9.0, 9.0, 17.0), True, True), False, True),
}


@pytest.mark.parametrize("build, diagonal, dissipative", H_COORDINATE_FIXTURES.values(),
                         ids=H_COORDINATE_FIXTURES.keys())
def test_h_coordinates_from_d_plus_are_those_of_the_assembled_d_tilde(
        build, diagonal, dissipative):
    # A = L^T D_plus L^-T + b0 b0^T against L^T D_tilde L^-T, with diagonal
    # and dense H, with S = 0 and with the S' of a repair.
    op = build()
    assert bool(_is_diagonal(op.h)) is diagonal
    assert bool(np.any(op.s)) is dissipative
    a, b, factor = spectral._h_coordinates(op)
    ref_a, ref_b, ref_factor = d_tilde_h_coordinates(op)
    assert factor.ndim == (1 if diagonal else 2)
    np.testing.assert_array_equal(factor, ref_factor)
    assert max_abs(a - ref_a) <= rank_threshold(max_abs(ref_a), op.n + 1)
    assert max_abs(b - ref_b) <= rank_threshold(max_abs(ref_b), op.n + 1)


@pytest.mark.parametrize("congruent", [False, True], ids=["plain", "congruent"])
@pytest.mark.parametrize("omegas", [(3.0,), (9.0, 9.0, 17.0),
                                    (3.0, 7.0, 9.0, 9.0, 17.0, 25.0)], ids=["1", "3", "6"])
@pytest.mark.parametrize("repaired", [False, True], ids=["before", "after"])
def test_the_verdict_is_that_of_the_assembled_d_tilde_on_planted_inputs(
        omegas, congruent, repaired):
    op = _planted(omegas, congruent, repaired)
    check = check_eigenvalue_property(op)
    reference = reference_eigenvalue_check(op)
    assert verdict_of(check) == verdict_of(reference)
    assert verdict_of(check) == (repaired, False, 0 if repaired else 2 * len(omegas), False)
    np.testing.assert_allclose(check.offending, reference.offending, rtol=0.0, atol=1e-12)


def test_a_congruence_keeps_the_eigenvalue_verdict():
    # T = I + U V^T with V^T x^j = 0 maps D_tilde to T^-1 D_tilde T: the
    # spectrum, and so the verdict and the offending values, stay.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bases = {
        "counterexample": build_counterexample(),
        "classical_fd_16": build_classical_fd(16, Interval(-0.5, 1.5)),
        "planted_9_9_17": _plant(build_classical_fd(40, Interval(0.0, 1.0)), (9.0, 9.0, 17.0),
                                 np.random.default_rng(40), congruent=False)[0],
        "repaired_counterexample": repair_operator(build_counterexample(), 1e-3)[0],
    }
    verdicts = {name: check_eigenvalue_property(op)
                for name, op in bases.items()}
    assert [len(v.offending) for v in verdicts.values()] == [2, 0, 6, 0]

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(sorted(bases)), st.integers(0, 2**32 - 1),
                      st.integers(1, 3), st.floats(0.05, 0.9))
    def check(name, seed, rank, size):
        mapped, _ = _congruence(bases[name], np.random.default_rng(seed), rank, size)
        d_tilde = build_d_tilde(mapped)
        after = check_eigenvalue_property(mapped)
        before = verdicts[name]
        assert after.has_property is before.has_property
        assert len(after.offending) == len(before.offending)
        assert all(value.real == 0.0 for value in after.offending)
        scale = np.linalg.norm(d_tilde, "fro")
        np.testing.assert_allclose(after.offending, before.offending, rtol=0.0,
                                   atol=1e-10 * scale)

    check()


def test_the_certificate_agrees_with_the_complex_route_on_planted_operators(monkeypatch):
    # Random planted operators, m = 1-4 pairs in n = 16-64, plain and
    # congruent.  Where the certificate decides, the complex route (the same
    # check with the certificate deciding nothing) must give the same number
    # of offending values, the same values to 1e-12 ||K||_2, the same
    # `singular` and the same N: the largest principal angle is at most
    # sqrt(2) ||(r_k + rank_threshold(||K||_2)) / apart_k||_2 over the pairs
    # (the residual form of the sin theta theorem for the certificate's
    # planes, whose residuals are r_k, and for the complex eigh's vectors).
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    decided = []

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(1, 4), st.integers(16, 64), st.booleans(),
                      st.integers(0, 2**32 - 1))
    def check(m, n, congruent, seed):
        rng = np.random.default_rng(seed)
        omegas = 1.0 + 4.0 * np.arange(m) + rng.uniform(0.0, 3.5, m)
        op, _ = _plant(build_classical_fd(n, Interval(0.0, 1.0)), omegas, rng, congruent)
        found = check_eigenvalue_property(op)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_certified", lambda *args: None)
            reference = check_eigenvalue_property(op)
        assert reference.route == "hautus" and len(reference.offending) == 2 * m
        if found.route != "certificate":
            assert found == reference
            return
        decided.append((m, n, congruent))
        a, b, factor = spectral._h_coordinates(op)
        k = 0.5 * (a - a.T)
        mu = np.linalg.eigvalsh(-1j * k)
        k_norm = np.max(np.abs(mu))
        assert len(found.offending) == len(reference.offending)
        assert found.singular == reference.singular
        np.testing.assert_allclose(found.offending, reference.offending, rtol=0.0,
                                   atol=1e-12 * k_norm)
        # The certificate's planes in H coordinates, their residuals and the
        # distance of each pair's frequency to the rest of K's spectrum.
        nu, w = spectral._certified(a, b, np.linalg.norm(b, 2))
        planes = w.reshape(op.n + 1, -1, 2).transpose(1, 0, 2)
        r = np.array([np.linalg.norm(k @ p - p @ (p.T @ k @ p)) for p in planes])
        others = np.abs(np.abs(mu)[None, :] - nu[:, None])
        others[others <= 1e-9 * k_norm] = np.inf
        apart = np.minimum(np.min(others, axis=1), 2.0 * nu)
        bound = np.sqrt(2.0) * np.linalg.norm(
            (r + rank_threshold(k_norm, op.n + 1)) / apart)
        rest = reference.basis - found.basis @ (found.basis.T @ op.h @ reference.basis)
        sine = np.sqrt(max(np.linalg.eigvalsh(rest.T @ op.h @ rest)[-1], 0.0))
        assert sine <= bound

    check()
    assert len(decided) >= 30, decided


def test_boundary_residuals_do_not_depend_on_the_eigenvector_layout(monkeypatch):
    # the congruent plant has a dense p0, so |p0.w| sums many products
    op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), (9.0, 9.0, 17.0),
                   np.random.default_rng(40), congruent=True)
    report = spectral_report(op)
    rows = report.eigenvectors[report.imaginary]
    assert rows.shape == (6, op.n + 1)
    table = report.boundary_residuals
    assert table[:, 0].tobytes() == np.abs(rows @ op.p0).tobytes()
    assert table[:, 1].tobytes() == np.abs(rows @ op.pn).tobytes()

    decompose = spectral.eigen_decompose

    def fortran_rows(a, h):
        lam, w, h_norms = decompose(a, h)
        return lam, np.asfortranarray(w), h_norms

    monkeypatch.setattr(spectral, "eigen_decompose", fortran_rows)
    assert spectral_report(op).boundary_residuals.tobytes() == table.tobytes()


def test_any_budget_repairs_a_planted_operator():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    planted = {}
    for omegas in ((3.0,), (9.0, 9.0, 17.0)):
        for congruent in (False, True):
            op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), omegas,
                           np.random.default_rng(40), congruent)
            planted[omegas, congruent] = op, verify_all(op).observed_order

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(
        st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e),
        st.sampled_from(list(NormChoice)),
        st.sampled_from(sorted(planted)),
    )
    def check(budget, norm, case):
        op, order = planted[case]
        repaired, plan = repair_operator(op, budget, norm)
        report = verify_all(repaired)
        assert report.all_passed() and report.eigenvalue_property
        assert report.observed_order == order
        assert plan.m == len(case[0])
        assert plan.norm_bound == pytest.approx(budget, rel=1e-12, abs=0.0)
        assert repair_operator(repaired, budget, norm)[1].m == 0

    check()


def test_a_band_pair_without_an_unobservable_subspace_needs_no_repair():
    # After a repair by 1e-11 the moved pair still lies in the band
    # 1e-10 * ||D_tilde||_F, but S' makes it observable: N = {0}, so the
    # operator has the property and a second repair returns it unchanged.
    once, _ = repair_operator(build_counterexample(), 1e-11)
    assert spectral_report(once).m == 1
    assert verify_all(once).eigenvalue_property
    again, plan = repair_operator(once, 1e-3)
    assert again is once
    assert plan.m == 0 and plan.norm_bound == 0.0
