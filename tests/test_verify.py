import re

import numpy as np
import pytest

from sbpkit import (
    Interval,
    NodeFamily,
    Property,
    build_classical_fd,
    build_counterexample,
    build_d_tilde,
    build_pseudospectral_operator,
    build_two_point,
    certify_families,
    check_accuracy,
    check_eigenvalue_property,
    check_nullspace_consistency,
    check_s_conditions,
    check_sbp_identities,
    check_spd,
    derive_d_minus,
    jsonio,
    load_operator,
    operator_to_document,
    repair_operator,
    spectral_report,
    verify_all,
)
from sbpkit.errors import (InternalInconsistencyError, InvariantError, ParameterError,
                           RepairImpossibleError)
from sbpkit.linalg import rank_threshold
from sbpkit.spectral import orthogonalize_imaginary

from oracles import planted_kernel_fd


def _residuals(report):
    return {r.property: r for r in report.residuals}


def _eigenvalue_check(op):
    return check_eigenvalue_property(op)


def _nullspace(op):
    return check_nullspace_consistency(op, _eigenvalue_check(op))


def _zero_rows(op, rows):
    d = np.array(op.d_plus)
    d[list(rows)] = 0.0
    return op.with_fields(d_plus=d, d_minus=d)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_counterexample_order_one():
    residuals, observed_order = check_accuracy(build_counterexample(), j_max=1)
    assert observed_order == 1
    assert all(r.residual < 1e-12 for r in residuals)
    assert all(r.passed for r in residuals)


def test_accuracy_counterexample_fails_degree_two():
    op = build_counterexample()
    residuals, observed_order = check_accuracy(op, j_max=2)
    assert observed_order == 1
    # independent evaluation of the degree-2 defect on P_2(t) = (3t^2 - 1)/2,
    # t = x / r: D P_2 - P_2' = 3/(2 r^2) (D x^2 - 2x), and D x^2 - 2x is exact
    r = 2.5
    t = op.x / r
    p2, dp2 = 1.5 * t**2 - 0.5, 3.0 * t / r
    defect = 3.0 / (2.0 * r**2) * np.array([1.0, 0.2, -0.6, 0.6, -0.2, -1.0])
    size = np.abs(op.d_plus) @ np.abs(p2) + np.abs(dp2)
    expected = np.max(np.abs(defect) / size)
    assert expected > 0.2
    # degree 2 passes just above the defect and fails just below it
    assert check_accuracy(op, j_max=2, tolerance=expected * (1 + 1e-12))[1] == 2
    assert check_accuracy(op, j_max=2, tolerance=expected * (1 - 1e-12))[1] == 1
    # the aggregated verdicts only cover degrees the operator claims (q = 1)
    assert all(r.passed for r in residuals)


def test_accuracy_two_point_constant_is_exact():
    residuals, observed_order = check_accuracy(build_two_point(), j_max=0)
    d_plus = residuals[0]
    assert d_plus.property is Property.A_DPLUS and d_plus.residual == 0.0
    assert observed_order == 0


def test_accuracy_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        check_accuracy(build_two_point(), j_max=-1)
    with pytest.raises(ParameterError):
        check_accuracy(build_two_point(), j_max=1, tolerance=0.0)


def test_a_matrix_given_for_the_tolerance_is_refused():
    # The eigenvalue check reads the operator alone; a D_tilde passed as
    # its second argument lands on the tolerance.
    op = build_counterexample()
    with pytest.raises(ParameterError, match=r"tolerance must be a number, got an array "
                                             r"of shape \(6, 6\)"):
        check_eigenvalue_property(op, build_d_tilde(op))


# Each public entry point that takes a tolerance or a budget, with its name.
SCALAR_CALLS = {
    "verify_all": ("tolerance", lambda value: verify_all(build_counterexample(), value)),
    "spectral_report": ("tolerance", lambda value: spectral_report(build_counterexample(), value)),
    "repair_operator": ("target_eps",
                        lambda value: repair_operator(build_counterexample(), target_eps=value)),
    "certify_families": ("tau_eig", lambda value: certify_families(
        [NodeFamily.legendre_gauss_lobatto(4, Interval(-1.0, 1.0))], value)),
}


@pytest.mark.parametrize("value", ["1e-3", None, True], ids=["string", "none", "bool"])
@pytest.mark.parametrize("entry", SCALAR_CALLS)
def test_a_scalar_that_is_not_a_number_is_refused(entry, value):
    # A bool is an int to Python, so True would otherwise run at tolerance 1.0.
    name, call = SCALAR_CALLS[entry]
    with pytest.raises(ParameterError, match=re.escape(f"{name} must be a real number, "
                                                       f"got {value!r}")):
        call(value)


@pytest.mark.parametrize("entry", SCALAR_CALLS)
def test_a_ragged_scalar_is_refused(entry):
    # numpy gives a ragged sequence no shape; it raised an untyped ValueError.
    name, call = SCALAR_CALLS[entry]
    with pytest.raises(ParameterError, match=re.escape(f"{name} must be a number, "
                                                       "got [0.001, [1]]")):
        call([1e-3, [1]])


# ---------------------------------------------------------------------------
# SPD check


def test_spd_accepts_the_counterexample_norm():
    assert check_spd(np.diag([0.5, 1, 1, 1, 1, 0.5])).passed


def test_spd_rejects_indefinite_diagonal():
    result = check_spd(np.diag([1.0, -1.0]))
    assert not result.passed
    assert result.residual == pytest.approx(1.0)


def test_spd_rejects_asymmetric():
    result = check_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert not result.passed
    assert result.residual == pytest.approx(2.0)


@pytest.mark.parametrize("h", [
    np.diag([1.0, np.nan, 2.0]), np.diag([1.0, np.inf, 2.0]), np.diag([1.0, -np.inf, 2.0]),
    np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
    np.array([[1.0, 0.0, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 2.0]]),
], ids=["nan_diagonal", "inf_diagonal", "minus_inf_diagonal", "nan_off_diagonal",
        "inf_off_diagonal"])
def test_spd_of_a_non_finite_norm_is_refused_before_any_decomposition(h, monkeypatch):
    # Unchecked, LAPACK's eigvalsh fails to converge with an untyped
    # LinAlgError, and h - h.T warns of an invalid value first for an inf.
    def no_eigvalsh(*args):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    with pytest.raises(InvariantError, match="non-finite"):
        check_spd(h)


# ---------------------------------------------------------------------------
# SBP identities


def test_identities_counterexample():
    res_c, res_d = check_sbp_identities(build_counterexample())
    assert res_c.residual < 1e-12 and res_c.passed
    assert res_d.residual < 1e-12 and res_d.passed


def test_identities_two_point_exact():
    res_c, _ = check_sbp_identities(build_two_point())
    assert res_c.residual == 0.0


def test_identity_fails_with_negated_dissipation():
    repaired, _ = repair_operator(build_counterexample(), 1e-2)
    flipped = repaired.with_fields(s=-repaired.s)
    res_c, _ = check_sbp_identities(flipped)
    assert res_c.residual > 0.0
    assert not res_c.passed


# ---------------------------------------------------------------------------
# S conditions


def test_s_conditions_zero_matrix():
    results = check_s_conditions(build_counterexample())
    assert all(r.residual == 0.0 and r.passed for r in results)


def test_s_conditions_after_repair():
    repaired, _ = repair_operator(build_counterexample(), 1e-3)
    assert all(r.passed for r in check_s_conditions(repaired))


@pytest.mark.parametrize("factor, passed", [(2.0, False), (0.5, True)])
def test_s_psd_follows_the_rank_rule(factor, passed):
    # S >= 0 up to rank_threshold of its largest eigenvalue, as H > 0 is decided
    op = build_two_point()
    s = np.diag([1.0, -factor * rank_threshold(1.0, 2)])
    psd = check_s_conditions(op.with_fields(s=s))[1]
    assert psd.passed is passed
    assert psd.residual == factor * rank_threshold(1.0, 2)


def test_s_annihilation_fails_for_boundary_projector():
    op = build_two_point()
    bad = op.with_fields(s=np.outer(op.p0, op.p0))
    sym, psd, ann = check_s_conditions(bad)
    assert sym.passed and psd.passed
    assert not ann.passed
    assert ann.residual == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# nullspace consistency


def test_nullspace_counterexample():
    diag = _nullspace(build_counterexample())
    assert diag.consistent
    assert diag.rank == 5


def test_nullspace_two_point():
    diag = _nullspace(build_two_point())
    assert diag.consistent
    # sigma_n of D_plus = [[-1, 1], [-1, 1]], whose other singular value is 0
    assert diag.sigma_min == diag.sigma_max == pytest.approx(2.0)


def test_nullspace_engineered_kernel():
    # two zeroed rows leave the constants in the kernel but drop the rank,
    # so the kernel has dimension >= 2 and both routes agree on "no"
    crippled = _zero_rows(build_counterexample(), (2, 3))
    diag = _nullspace(crippled)
    assert not diag.consistent
    assert diag.rank < crippled.n


def test_nullspace_routes_disagree_on_non_sbp_input():
    # zeroing a single interior row keeps rank n and the constants in the
    # kernel, yet makes the penalized matrix singular; the equivalence the
    # two routes rely on only holds for true operator pairs
    crippled = _zero_rows(build_counterexample(), (2,))
    with pytest.raises(InternalInconsistencyError):
        _nullspace(crippled)


def test_a_planted_kernel_vector_is_found_on_the_hautus_route():
    # Every residual passes and the Hautus test applies, yet D_plus w = 0 for
    # a w that is not constant: the check finds the eigenvalue 0 of D_tilde
    # on w, and the kernel route finds rank n - 1.
    op, w = planted_kernel_fd(16)
    assert not np.any(op.d_plus @ w)
    report = verify_all(op)
    assert report.all_passed()
    check = report.eigenvalue_check
    assert check.singular and not check.has_property
    assert len(check.offending) == 1 and abs(check.offending[0]) <= 1e-12
    assert check.basis.shape == (17, 1)
    assert np.linalg.matrix_rank(np.column_stack([check.basis, w]), tol=1e-10) == 1
    assert not report.nullspace_consistent
    assert report.nullspace.rank == 15
    assert report.nullspace.sigma_min <= rank_threshold(report.nullspace.sigma_max, 17)
    with pytest.raises(RepairImpossibleError):
        repair_operator(op, 1e-3)


@pytest.mark.parametrize("build, tolerance", [
    (lambda: build_classical_fd(256, Interval(0.0, 1.0)), 1e-2),
    (build_counterexample, 0.5),
], ids=["classical_fd_256", "counterexample"])
def test_a_loose_tolerance_does_not_split_the_nullspace_routes(build, tolerance):
    # sigma_min / sigma_max of D_tilde is below the tolerance, so a ratio test
    # at the tolerance would call D_tilde singular while D_plus has rank n.
    op = build()
    sv = np.linalg.svd(build_d_tilde(op), compute_uv=False)
    assert sv[-1] < tolerance * sv[0]
    assert verify_all(op, tolerance).nullspace_consistent


# ---------------------------------------------------------------------------
# eigenvalue property


def test_eigenvalue_property_counterexample():
    check = _eigenvalue_check(build_counterexample())
    assert not check.has_property
    offending = sorted(check.offending, key=lambda v: v.imag)
    assert len(offending) == 2
    assert offending[1] == pytest.approx(1j * 0.4472135954999579, abs=1e-10)
    assert offending[0] == pytest.approx(-1j * 0.4472135954999579, abs=1e-10)


def test_eigenvalue_property_two_point():
    check = _eigenvalue_check(build_two_point())
    assert check.has_property and check.offending == ()
    assert spectral_report(build_two_point()).eigenvalues[0].real == pytest.approx(1.0)


def test_eigenvalue_property_after_repair():
    repaired, _ = repair_operator(build_counterexample(), 1e-3)
    assert _eigenvalue_check(repaired).has_property


@pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-14])
def test_a_repair_inside_the_band_has_the_eigenvalue_property(eps):
    # The moved pair's real part eps/2 lies inside the band
    # 1e-10 * ||D_tilde||_F, so the spectral report still classifies it
    # imaginary; the Hautus test sees that no direction is unobservable.
    repaired, _ = repair_operator(build_counterexample(), eps)
    report = verify_all(repaired)
    assert report.all_passed() and report.eigenvalue_property
    assert report.eigenvalue_check.offending == ()
    assert spectral_report(repaired).m == 1


def test_offending_values_are_exactly_imaginary():
    check = _eigenvalue_check(build_counterexample())
    assert [v.real for v in check.offending] == [0.0, 0.0]
    assert check.offending[0].imag == pytest.approx(-check.offending[1].imag, rel=1e-14)


# ---------------------------------------------------------------------------
# diagonal-norm fast path


def _dense_residuals(op):
    """check_spd, check_sbp_identities and the S_psd residual by dense
    products and eigvalsh, whatever the structure of H and S."""
    h, s = op.h, op.s
    lam = np.linalg.eigvalsh(0.5 * (h + h.T))
    spd = max(float(np.max(np.abs(h - h.T))), max(0.0, -float(lam[0])))
    boundary = -np.outer(op.p0, op.p0) + np.outer(op.pn, op.pn)
    hd = h @ op.d_plus
    res_c = float(np.max(np.abs(hd + op.d_plus.T @ h - boundary - s)))
    res_d = float(np.max(np.abs(hd + op.d_minus.T @ h - boundary)))
    psd = max(0.0, -float(np.linalg.eigvalsh(0.5 * (s + s.T))[0]))
    return spd, res_c, res_d, psd


def _residuals_of_the_checks(op):
    c, d = check_sbp_identities(op)
    return check_spd(op.h).residual, c.residual, d.residual, check_s_conditions(op)[1].residual


@pytest.mark.parametrize("build", [
    lambda: build_classical_fd(64, Interval(-0.3, 0.7)),
    lambda: build_pseudospectral_operator(
        NodeFamily.legendre_gauss_lobatto(16, Interval(100.0, 101.0))),
    lambda: repair_operator(build_counterexample(), 1e-3)[0],  # dense S
    lambda: build_classical_fd(8, Interval(0.0, 1.0)).with_fields(
        s=np.diag(np.linspace(-1e-3, 1e-3, 9))),  # indefinite diagonal S
], ids=["classical_fd_64", "lgl_16_far", "repaired_counterexample", "diagonal_s"])
def test_a_diagonal_norm_gives_the_residuals_of_the_dense_products(build, monkeypatch):
    op = build()
    assert np.count_nonzero(op.h - np.diag(np.diagonal(op.h))) == 0
    np.testing.assert_array_equal(np.sort(np.diagonal(op.h)),
                                  np.linalg.eigvalsh(0.5 * (op.h + op.h.T)))
    expected = _dense_residuals(op)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert _residuals_of_the_checks(op) == expected
    dense_s = np.count_nonzero(op.s - np.diag(np.diagonal(op.s))) > 0
    assert len(calls) == int(dense_s)


def test_a_dense_norm_gives_the_residuals_of_the_dense_products():
    op = build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(16, Interval(0.0, 10.0)))
    assert np.count_nonzero(op.h - np.diag(np.diagonal(op.h))) > 0
    assert _residuals_of_the_checks(op) == _dense_residuals(op)
    assert max(_dense_residuals(op)[1:3]) > 0.0


# ---------------------------------------------------------------------------
# aggregation


def test_verify_all_counterexample():
    report = verify_all(build_counterexample(), 1e-10)
    assert report.all_passed()
    assert report.nullspace_consistent
    assert not report.eigenvalue_property
    assert report.observed_order == 1
    assert report.tolerance == 1e-10


def test_verify_all_two_point():
    report = verify_all(build_two_point(), 1e-10)
    assert report.all_passed()
    assert report.eigenvalue_property


def test_verify_all_flags_corrupted_norm(tmp_path):
    doc = operator_to_document(build_counterexample())
    h = np.array(doc["H"]).reshape(6, 6)
    h[0, 0] = -0.5
    doc["H"] = h.ravel()
    path = tmp_path / "corrupt.json"
    path.write_text(jsonio.dumps(doc))
    report = verify_all(load_operator(path))
    assert not _residuals(report)[Property.B_SPD].passed
    assert not report.all_passed()


def test_report_keeps_the_diagnostics_behind_its_verdicts():
    op = build_counterexample()
    report = verify_all(op)
    assert report.nullspace == _nullspace(op)
    assert report.eigenvalue_check == _eigenvalue_check(op)
    assert np.array_equal(report.eigenvalue_check.basis, _eigenvalue_check(op).basis)
    assert report.nullspace_consistent is report.nullspace.consistent
    assert report.eigenvalue_property is report.eigenvalue_check.has_property


def test_report_document_shape():
    doc = verify_all(build_two_point()).to_document()
    assert set(doc) == {
        "tolerance",
        "observed_order",
        "nullspace_consistent",
        "eigenvalue_property",
        "residuals",
    }
    assert len(doc["residuals"]) == 10
    assert all(set(r) == {"property", "residual", "passed"} for r in doc["residuals"])


# ---------------------------------------------------------------------------
# cross-cutting invariants


TOLERANCE_LADDER = (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2,
                    0.1, 0.5)


def _fixtures():
    return [
        build_counterexample(),
        build_two_point(),
        build_classical_fd(16, Interval(0.0, 1.0)),
        repair_operator(build_counterexample(), 1e-3)[0],
    ]


def test_loosening_tolerance_never_flips_pass_to_fail():
    for op in _fixtures():
        previous = None
        for tol in TOLERANCE_LADDER:
            passed = {
                r.property: r.passed for r in verify_all(op, tol).residuals
            }
            if previous is not None:
                for prop, ok in previous.items():
                    assert not (ok and not passed[prop]), (op.name, prop, tol)
            previous = passed


def test_counterexample_verdict_stable_across_tolerances():
    for tol in TOLERANCE_LADDER:
        report = verify_all(build_counterexample(), tol)
        assert report.nullspace_consistent
        assert not report.eigenvalue_property


def test_stored_d_minus_matches_derivation():
    for op in _fixtures():
        report = verify_all(op)
        if all(
            _residuals(report)[p].passed
            for p in (Property.C_IDENTITY, Property.D_IDENTITY, Property.S_SYMMETRY)
        ):
            derived = derive_d_minus(op.d_plus, op.h, op.s)
            assert np.max(np.abs(derived - op.d_minus)) <= 10 * report.tolerance


def test_eigenvalue_property_implies_nullspace_consistency():
    for op in _fixtures():
        report = verify_all(op)
        if report.eigenvalue_property:
            assert report.nullspace_consistent


AFFINE_MAPS = [(0.0, 1.0), (100.0, 1.0), (0.0, 1e-3), (0.0, 1e3), (1e3, 1e2), (-50.0, 1e-2)]

AFFINE_FIXTURES = {
    "counterexample": build_counterexample,
    "repaired": lambda: repair_operator(build_counterexample(), 1e-3)[0],
    "classical_fd_16": lambda: build_classical_fd(16, Interval(0.0, 1.0)),
    "lgl_8": lambda: build_pseudospectral_operator(
        NodeFamily.legendre_gauss_lobatto(8, Interval(-1.0, 1.0))
    ),
    "cgl_12": lambda: build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(12, Interval(-1.0, 1.0))
    ),
}


def _affine_image(op, c, s):
    """``op`` under x -> c + s x: D -> D / s and H -> s H; S, p0, pn stay."""
    return op.with_fields(
        d_plus=op.d_plus / s,
        d_minus=op.d_minus / s,
        h=s * op.h,
        x=c + s * op.x,
        interval=Interval(c + s * op.interval.a, c + s * op.interval.b),
    )


def _verdicts(op):
    report = verify_all(op)
    return (
        {r.property: r.passed for r in report.residuals},
        report.observed_order,
        report.nullspace_consistent,
        report.eigenvalue_property,
    )


@pytest.mark.parametrize("c, s", AFFINE_MAPS)
@pytest.mark.parametrize("name", list(AFFINE_FIXTURES))
def test_verdicts_do_not_depend_on_where_the_interval_sits(name, c, s):
    op = AFFINE_FIXTURES[name]()
    assert _verdicts(_affine_image(op, c, s)) == _verdicts(op)


# ---------------------------------------------------------------------------
# exact oracle


def _exact(sp, a):
    m = sp.Matrix(np.atleast_2d(a)).applyfunc(lambda v: sp.nsimplify(v, rational=True))
    # the rationals are the fixture: they round back to its doubles
    assert np.array_equal(np.array(m, dtype=float), np.atleast_2d(a))
    return m


def test_counterexample_facts_hold_over_the_rationals():
    sp = pytest.importorskip("sympy")
    op = build_counterexample()
    d, dm, h, s = (_exact(sp, a) for a in (op.d_plus, op.d_minus, op.h, op.s))
    p0, pn, x = (_exact(sp, a).T for a in (op.p0, op.pn, op.x))
    a, b = sp.Rational(-5, 2), sp.Rational(5, 2)
    boundary = -p0 * p0.T + pn * pn.T
    assert h * d + d.T * h - boundary - s == sp.zeros(6, 6)
    assert h * d + dm.T * h - boundary == sp.zeros(6, 6)

    powers = [x.applyfunc(lambda v, j=j: v**j) for j in range(3)]
    for j in (0, 1):
        target = j * powers[j - 1] if j else sp.zeros(6, 1)
        assert d * powers[j] == target and dm * powers[j] == target
        assert (p0.T * powers[j])[0] == a**j and (pn.T * powers[j])[0] == b**j
    defect = d * powers[2] - 2 * powers[1]
    assert list(defect) == [1, sp.Rational(1, 5), sp.Rational(-3, 5),
                            sp.Rational(3, 5), sp.Rational(-1, 5), -1]

    lam = sp.Symbol("lambda")
    d_tilde = d + h.inv() * p0 * p0.T
    expected = (5 * lam**2 + 1) * (25 * lam**4 - 50 * lam**3 + 55 * lam**2
                                   - 34 * lam + 10) / 125
    assert sp.expand(d_tilde.charpoly(lam).as_expr() - expected) == 0


def test_counterexample_unobservable_subspace_over_the_rationals():
    # S = 0, so C = [p0^T; pn^T]; the kernel of [C; C D~; ...; C D~^5] is the
    # unobservable subspace, the plane of Re w and Im w / sqrt(5) of the
    # paper's eigenvector w = (0, 1, -3, 3, -1, 0) + i sqrt(5) (0, 1, -1, -1, 1, 0)
    sp = pytest.importorskip("sympy")
    op = build_counterexample()
    assert not np.any(op.s)
    d, h, p0, pn = (_exact(sp, a) for a in (op.d_plus, op.h, op.p0, op.pn))
    d_tilde = d + h.inv() * p0.T * p0
    blocks = [p0.col_join(pn)]
    for _ in range(5):
        blocks.append(blocks[-1] * d_tilde)
    observability = sp.Matrix.vstack(*blocks)
    assert observability.rank() == 4
    kernel = sp.Matrix.hstack(*observability.nullspace())
    plane = sp.Matrix([[0, 1, -2, 1, 0, 0], [0, 2, -3, 0, 1, 0]]).T
    assert sp.Matrix.hstack(kernel, plane).rank() == 2
    paper = sp.Matrix([[0, 1, -3, 3, -1, 0], [0, 1, -1, -1, 1, 0]]).T
    assert sp.Matrix.hstack(plane, paper).rank() == 2

    basis, _ = np.linalg.qr(orthogonalize_imaginary(op)[1])
    exact, _ = np.linalg.qr(np.array(plane, dtype=float))
    sines = np.linalg.svd(exact - basis @ (basis.T @ exact), compute_uv=False)
    assert np.max(sines) <= 1e-13
