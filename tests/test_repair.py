import numpy as np
import pytest

from sbpkit import (
    Interval,
    NormChoice,
    Property,
    build_classical_fd,
    build_counterexample,
    build_d_tilde,
    build_s_prime,
    build_two_point,
    check_eigenvalue_property,
    orthogonalize_imaginary,
    repair_operator,
    spectral,
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


def _paper_style_eigenvector():
    # closed-form eigenvector of the counterexample for i/sqrt(5); ||w||_H^2 = 40
    return np.array([0, 1, -3, 3, -1, 0], dtype=float) + 1j * np.sqrt(5.0) * np.array(
        [0, 1, -1, -1, 1, 0], dtype=float
    )


def _ortho_vectors(op):
    return list(orthogonalize_imaginary(op, build_d_tilde(op))[1].T)


def _sorted_eigs(matrix):
    lam = np.linalg.eigvals(matrix)
    return lam[np.lexsort((lam.imag, lam.real))]


# ---------------------------------------------------------------------------
# build_s_prime


def test_s_prime_counterexample_structure():
    op = build_counterexample()
    s_prime = build_s_prime(op.h, _ortho_vectors(op), 1.0)
    rank, _ = svd_rank(s_prime)
    assert rank == 2
    assert np.max(np.abs(s_prime - s_prime.T)) < 1e-15
    assert np.max(np.abs(s_prime @ np.ones(6))) < 1e-14
    assert np.max(np.abs(s_prime @ op.x)) < 1e-14
    assert np.min(np.linalg.eigvalsh(s_prime)) > -1e-14


def test_s_prime_empty_input_is_zero():
    op = build_two_point()
    np.testing.assert_array_equal(build_s_prime(op.h, [], 1.0), np.zeros((2, 2)))


def test_s_prime_is_linear_in_eps():
    op = build_counterexample()
    vectors = _ortho_vectors(op)
    one = build_s_prime(op.h, vectors, 1.0)
    two = build_s_prime(op.h, vectors, 2.0)
    np.testing.assert_array_equal(two, 2.0 * one)


def test_s_prime_rejects_unnormalized_vectors():
    op = build_counterexample()
    vectors = [2.0 * v for v in _ortho_vectors(op)]
    with pytest.raises(ContractError, match="orthonormal"):
        build_s_prime(op.h, vectors, 1.0)


def test_s_prime_rejects_complex_vectors():
    op = build_counterexample()
    w = _paper_style_eigenvector() / np.sqrt(40.0)
    with pytest.raises(ContractError, match="real"):
        build_s_prime(op.h, [w, np.conj(w)], 1.0)
    with pytest.raises(ContractError, match="real"):
        build_s_prime(op.h, [v.astype(complex) for v in _ortho_vectors(op)], 1.0)


def test_s_prime_rejects_mismatched_lengths():
    op = build_counterexample()
    vectors = [np.append(v, 0.0) for v in _ortho_vectors(op)]
    with pytest.raises(ShapeError):
        build_s_prime(op.h, vectors, 1.0)


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
    vectors = [np.eye(6)[k] / np.sqrt(h[k, k]) for k in range(4)]
    s_prime = build_s_prime(h, vectors, 1.0)
    p = np.diag([0.5, 0.5, 1 / 3, 1 / 3, 0.0, 0.0])
    assert np.max(np.abs(s_prime - h @ p @ h)) <= 1e-14


def test_s_prime_rejects_nonpositive_eps():
    op = build_counterexample()
    for eps in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            build_s_prime(op.h, _ortho_vectors(op), eps)


def test_s_prime_of_one_vector_is_rank_one():
    # One eps for any number of H-orthonormal vectors: S' = eps (Hv)(Hv)^T.
    op = build_counterexample()
    v = _ortho_vectors(op)[0]
    s_prime = build_s_prime(op.h, [v], 0.5)
    assert svd_rank(s_prime)[0] == 1
    np.testing.assert_allclose(s_prime, 0.5 * np.outer(op.h @ v, op.h @ v), rtol=0, atol=1e-15)


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
    check = check_eigenvalue_property(repaired, build_d_tilde(repaired))
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
    assert orthogonalize_imaginary(op, build_d_tilde(op))[1].shape == (op.n + 1, 2 * m)

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
    d_tilde = build_d_tilde(op)
    offending = check_eigenvalue_property(op, d_tilde).offending
    # exact i mu values come from the Hautus test, not from the band's eig
    assert all(value.real == 0.0 for value in offending)
    q = orthogonalize_imaginary(op, d_tilde)[1]
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
    d_tilde = build_d_tilde(op)
    check = check_eigenvalue_property(op, d_tilde)
    q = orthogonalize_imaginary(op, d_tilde)[1]
    assert check.basis.shape == q.shape == (op.n + 1, 2 * len(omegas))
    assert check.basis.tobytes() == q.tobytes()
    assert not verify_all(op).eigenvalue_property
    repaired, plan = repair_operator(op, 1e-3)
    assert repaired is not op and plan.m == len(omegas)
    expected = build_s_prime(op.h, list(check.basis.T), plan.epsilons[0])
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
    # With a dense H, the solves of a repair are those of D_tilde and of the
    # Hautus test; the update (eps/2) Q (H Q)^T needs none.
    op, _ = _plant(build_classical_fd(40, Interval(0.0, 1.0)), (9.0, 9.0, 17.0),
                   np.random.default_rng(40), congruent=True)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    check_eigenvalue_property(op, build_d_tilde(op))
    analysis = len(solves)
    _, plan = repair_operator(op, 1e-3)
    assert plan.m == 3
    assert len(solves) - analysis == analysis == 3


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
    verdicts = {name: check_eigenvalue_property(op, build_d_tilde(op))
                for name, op in bases.items()}
    assert [len(v.offending) for v in verdicts.values()] == [2, 0, 6, 0]

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(sorted(bases)), st.integers(0, 2**32 - 1),
                      st.integers(1, 3), st.floats(0.05, 0.9))
    def check(name, seed, rank, size):
        mapped, _ = _congruence(bases[name], np.random.default_rng(seed), rank, size)
        d_tilde = build_d_tilde(mapped)
        after = check_eigenvalue_property(mapped, d_tilde)
        before = verdicts[name]
        assert after.has_property is before.has_property
        assert len(after.offending) == len(before.offending)
        assert all(value.real == 0.0 for value in after.offending)
        scale = np.linalg.norm(d_tilde, "fro")
        np.testing.assert_allclose(after.offending, before.offending, rtol=0.0,
                                   atol=1e-10 * scale)

    check()


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
