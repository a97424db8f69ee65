import numpy as np
import pytest

from sbpkit import (
    Family,
    Interval,
    NodeFamily,
    build_d_tilde,
    build_interpolatory_h,
    build_pseudospectral_d,
    build_pseudospectral_operator,
    certify_families,
    legendre_gauss_lobatto,
    load_operator,
    save_operator,
    spectral_report,
    verify_all,
)
from sbpkit.errors import IndefiniteNormError, InvariantError, ParameterError
from sbpkit.linalg import svd_rank
from sbpkit.pseudospectral import (_barycentric_weights, build_modal_h,
                                   chebyshev_gauss_lobatto_nodes)
from sbpkit.spectral import orthogonalize_imaginary
from sbpkit.verify import EigenvalueCheck

from oracles import loop_pseudospectral_d, vandermonde_d

REFERENCE = Interval(-1.0, 1.0)

# derived by solving the 3x3 transposed Vandermonde systems on (-1, 0, 1)
D3 = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])


# ---------------------------------------------------------------------------
# differentiation matrices


def test_two_node_matrix():
    np.testing.assert_array_equal(
        build_pseudospectral_d([0.0, 1.0]), np.array([[-1.0, 1.0], [-1.0, 1.0]])
    )


def test_three_node_matrix_against_vandermonde_oracle():
    nodes = [-1.0, 0.0, 1.0]
    d = build_pseudospectral_d(nodes)
    np.testing.assert_allclose(d, D3, atol=1e-14)
    np.testing.assert_allclose(vandermonde_d(nodes), D3, atol=1e-13)


@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 10.0), (100.0, 101.0)])
@pytest.mark.parametrize("make", [NodeFamily.legendre_gauss_lobatto,
                                  NodeFamily.chebyshev_gauss_lobatto, NodeFamily.uniform])
def test_matrix_equals_the_entrywise_loop_bit_for_bit(make, interval):
    for n in range(1, 33):
        nodes = make(n, Interval(*interval)).nodes
        assert build_pseudospectral_d(nodes).tobytes() == loop_pseudospectral_d(nodes).tobytes()


def test_matrix_equals_the_entrywise_loop_on_random_nodes():
    rng = np.random.default_rng(1729)
    for _ in range(200):
        nodes = rng.uniform(-3.0, 3.0, rng.integers(2, 34)) * 10.0 ** rng.uniform(-2, 2)
        assert build_pseudospectral_d(nodes).tobytes() == loop_pseudospectral_d(nodes).tobytes()


def test_duplicate_nodes_rejected():
    with pytest.raises(InvariantError):
        build_pseudospectral_d([0.0, 0.0, 1.0])


def test_single_node_rejected():
    with pytest.raises(ParameterError):
        build_pseudospectral_d([0.5])


NON_FINITE = {"nan": np.nan, "inf": np.inf, "minus_inf": -np.inf}


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("helper", [
    build_pseudospectral_d,
    lambda nodes: build_interpolatory_h(nodes, Interval(0.0, 1.0)),
    lambda nodes: build_modal_h(nodes, Interval(0.0, 1.0)),
], ids=["pseudospectral_d", "interpolatory_h", "modal_h"])
def test_a_non_finite_node_is_refused_before_any_arithmetic(helper, bad):
    # A nan passes the distinctness comparison, so only an explicit check
    # keeps it from giving an all-nan D or H.
    with pytest.raises(InvariantError, match=r"nodes must be finite, got nodes\[1\]"):
        helper([0.0, bad, 1.0])


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("maker", [
    lambda n: legendre_gauss_lobatto(n)[0],
    chebyshev_gauss_lobatto_nodes,
    lambda n: np.linspace(-1.0, 1.0, n + 1),
])
def test_barycentric_agrees_with_vandermonde(n, maker):
    nodes = maker(n)
    d_bary = build_pseudospectral_d(nodes)
    d_vand = vandermonde_d(nodes)
    scale = np.max(np.abs(d_bary))
    assert np.max(np.abs(d_bary - d_vand)) <= 1e-8 * scale


@pytest.mark.parametrize("n", range(1, 11))
def test_exactness_on_lobatto_nodes(n):
    nodes, _ = legendre_gauss_lobatto(n)
    d = build_pseudospectral_d(nodes)
    budget = 1e-8
    for j in range(n + 1):
        xj = nodes**j if j else np.ones(n + 1)
        target = j * nodes ** (j - 1) if j else np.zeros(n + 1)
        assert np.max(np.abs(d @ xj - target)) <= budget


def test_constants_in_kernel():
    for n in range(1, 13):
        nodes, _ = legendre_gauss_lobatto(n)
        d = build_pseudospectral_d(nodes)
        assert np.max(np.abs(d @ np.ones(n + 1))) <= 1e-13


# ---------------------------------------------------------------------------
# quadrature


def test_gauss_lobatto_reference_weights():
    _, w2 = legendre_gauss_lobatto(2)
    np.testing.assert_allclose(w2, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)
    _, w3 = legendre_gauss_lobatto(3)
    np.testing.assert_allclose(w3, [1 / 6, 5 / 6, 5 / 6, 1 / 6], atol=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_lobatto_exactness_degree(n):
    # independent oracle: a Lobatto rule with n + 1 points integrates
    # degree 2n - 1 exactly on [-1, 1]
    nodes, weights = legendre_gauss_lobatto(n)
    for k in range(2 * n):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert weights @ nodes**k == pytest.approx(exact, abs=1e-13)


def test_simpson_weights():
    h, p0, pn = build_interpolatory_h([-1.0, 0.0, 1.0], REFERENCE)
    np.testing.assert_allclose(np.diagonal(h), [1 / 3, 4 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_array_equal(p0, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(pn, [0.0, 0.0, 1.0])


def test_trapezoid_weights():
    h, _, _ = build_interpolatory_h([0.0, 1.0], Interval(0.0, 1.0))
    np.testing.assert_allclose(np.diagonal(h), [0.5, 0.5], atol=1e-16)


def test_nine_point_equispaced_weights_go_negative():
    with pytest.raises(IndefiniteNormError) as excinfo:
        build_interpolatory_h(np.linspace(-1.0, 1.0, 9), REFERENCE)
    assert excinfo.value.weights is not None
    assert np.min(excinfo.value.weights) < 0.0


@pytest.mark.parametrize("interval", [REFERENCE, Interval(0.0, 2.7)])
@pytest.mark.parametrize("n", range(1, 9))
def test_interpolatory_moments_match(n, interval):
    family = NodeFamily.chebyshev_gauss_lobatto(n, interval)
    h, _, _ = build_interpolatory_h(family.nodes, interval)
    w = np.diagonal(h)
    a, b = interval.a, interval.b
    for j in range(n + 1):
        exact = (b ** (j + 1) - a ** (j + 1)) / (j + 1)
        assert abs(w @ family.nodes**j - exact) <= 1e-10 * max(1.0, abs(exact))


def test_cardinal_values_off_the_grid():
    # interior Gauss-Legendre nodes: boundary vectors are genuine
    # interpolation weights, exact for the polynomials the grid carries
    nodes = np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
    h, p0, pn = build_interpolatory_h(nodes, REFERENCE)
    np.testing.assert_allclose(np.diagonal(h), [5 / 9, 8 / 9, 5 / 9], atol=1e-14)
    for j in range(3):
        assert p0 @ nodes**j == pytest.approx((-1.0) ** j, abs=1e-13)
        assert pn @ nodes**j == pytest.approx(1.0, abs=1e-13)


def test_modal_norm_is_exact_for_products():
    nodes = chebyshev_gauss_lobatto_nodes(5)
    h = build_modal_h(nodes, REFERENCE)
    assert np.max(np.abs(h - h.T)) == 0.0
    assert np.min(np.linalg.eigvalsh(h)) > 0.0
    for i in range(6):
        for j in range(6):
            k = i + j
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            value = nodes**i @ h @ nodes**j
            assert value == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# node families


def test_node_family_validation():
    with pytest.raises(InvariantError):
        NodeFamily(Family.EXPLICIT, 2, REFERENCE, np.array([0.0, -0.5, 1.0]))
    with pytest.raises(InvariantError):
        NodeFamily(Family.EXPLICIT, 2, REFERENCE, np.array([-2.0, 0.0, 1.0]))
    with pytest.raises(InvariantError):
        NodeFamily(Family.CHEBYSHEV_GAUSS_LOBATTO, 2, REFERENCE,
                   np.array([-0.9, 0.0, 1.0]))
    with pytest.raises(InvariantError, match="n >= 1"):
        NodeFamily.explicit([0.5], REFERENCE)
    with pytest.raises(InvariantError, match="expected 4 nodes, got 3"):
        NodeFamily(Family.EXPLICIT, 3, REFERENCE, np.array([-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_a_node_family_refuses_a_non_finite_node(bad):
    # A nan makes both the ordering and the interval comparison false, so
    # neither of them refuses it.
    with pytest.raises(InvariantError, match="nodes must be finite"):
        NodeFamily.explicit([0.0, bad, 1.0], Interval(0.0, 1.0))


def test_a_family_given_by_its_value_builds_the_same_operator():
    family = NodeFamily.legendre_gauss_lobatto(4, REFERENCE)
    by_value = NodeFamily(family.tag.value, family.n, family.interval, family.nodes)
    assert by_value.tag is Family.LEGENDRE_GAUSS_LOBATTO
    np.testing.assert_array_equal(build_pseudospectral_operator(by_value).h,
                                  build_pseudospectral_operator(family).h)
    with pytest.raises(ParameterError, match="bogus"):
        NodeFamily("bogus", family.n, family.interval, family.nodes)


def test_lobatto_families_pin_endpoints():
    interval = Interval(0.1, 0.3)
    for maker in (NodeFamily.legendre_gauss_lobatto,
                  NodeFamily.chebyshev_gauss_lobatto):
        family = maker(5, interval)
        assert family.nodes[0] == interval.a
        assert family.nodes[-1] == interval.b


# ---------------------------------------------------------------------------
# bundles


def test_lgl2_bundle_is_the_simpson_bundle():
    op = build_pseudospectral_operator(NodeFamily.legendre_gauss_lobatto(2, REFERENCE))
    np.testing.assert_allclose(op.d_plus, D3, atol=1e-12)
    np.testing.assert_allclose(np.diagonal(op.h), [1 / 3, 4 / 3, 1 / 3], atol=1e-12)
    assert op.q == 2
    report = verify_all(op)
    assert report.all_passed()
    assert report.observed_order == 2


def test_cgl4_bundle_on_stretched_interval():
    op = build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(4, Interval(0.0, 2.0))
    )
    report = verify_all(op, tolerance=1e-8)
    assert report.all_passed()
    assert report.eigenvalue_property
    lam = np.linalg.eigvals(op.d_plus + np.linalg.solve(op.h, np.outer(op.p0, op.p0)))
    assert np.min(lam.real) > 0.0


def test_uniform_bundle_refused_at_n8():
    with pytest.raises(IndefiniteNormError):
        build_pseudospectral_operator(NodeFamily.uniform(8, REFERENCE))


def test_gauss_interior_bundle_keeps_diagonal_norm():
    nodes = np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
    op = build_pseudospectral_operator(NodeFamily.explicit(nodes, REFERENCE))
    assert np.count_nonzero(op.h - np.diag(np.diagonal(op.h))) == 0
    assert verify_all(op).all_passed()


def test_cgl_bundle_uses_dense_norm_when_needed():
    op = build_pseudospectral_operator(NodeFamily.chebyshev_gauss_lobatto(4, REFERENCE))
    assert np.count_nonzero(op.h - np.diag(np.diagonal(op.h))) > 0
    assert verify_all(op, tolerance=1e-8).all_passed()


@pytest.mark.parametrize(
    "interval",
    [REFERENCE, Interval(0.0, 10.0), Interval(100.0, 101.0)],
    ids=["-1_1", "0_10", "100_101"],
)
@pytest.mark.parametrize(
    "tag, degrees, diagonal_through, identity_rtol",
    [
        (Family.LEGENDRE_GAUSS_LOBATTO, range(1, 33), 32, 1e-10),
        (Family.CHEBYSHEV_GAUSS_LOBATTO, range(1, 33), 2, 1e-12),
        (Family.UNIFORM, range(1, 8), 2, 1e-12),
    ],
    ids=["legendre", "chebyshev", "uniform"],
)
def test_diagonal_norm_only_where_exact_on_shifted_intervals(
    interval, tag, degrees, diagonal_through, identity_rtol, tmp_path
):
    # Interpolatory weights on Chebyshev and uniform nodes integrate degree
    # 2n - 1 only for n <= 2; a diagonal norm kept beyond that breaks the SBP
    # identity by a relative 0.4.  Gauss-Lobatto weights are exact for every
    # n; on [100, 101] their identity defect reaches 7.4e-12 at n = 31, from
    # nodes stored to eps * |x| next to spacings near 1e-3.  Every operator
    # built here must also verify after a save/load round trip, exactly of
    # order n, wherever the interval sits, and its unobservable subspace
    # must be {0} where the Hautus test applies.  On [100, 101] from n = 8
    # the identity defect mostly exceeds the test's gate, and the band of
    # verify_all decides.
    make = {
        Family.LEGENDRE_GAUSS_LOBATTO: NodeFamily.legendre_gauss_lobatto,
        Family.CHEBYSHEV_GAUSS_LOBATTO: NodeFamily.chebyshev_gauss_lobatto,
        Family.UNIFORM: NodeFamily.uniform,
    }[tag]
    path = tmp_path / "op.json"
    for n in degrees:
        op = build_pseudospectral_operator(make(n, interval))
        diagonal = np.count_nonzero(op.h - np.diag(np.diagonal(op.h))) == 0
        assert diagonal == (n <= diagonal_through), n
        hd = op.h @ op.d_plus
        defect = hd + hd.T + np.outer(op.p0, op.p0) - np.outer(op.pn, op.pn)
        assert np.max(np.abs(defect)) <= identity_rtol * np.max(np.abs(hd)), n
        save_operator(op, path)
        loaded = load_operator(path)
        report = verify_all(loaded)
        assert report.all_passed(), (n, report.to_document())
        assert report.observed_order == n
        assert report.nullspace_consistent and report.eigenvalue_property, n
        analysis = orthogonalize_imaginary(loaded)
        assert analysis is None or analysis.basis.shape == (n + 1, 0), n


@pytest.mark.parametrize("make", [NodeFamily.legendre_gauss_lobatto,
                                  NodeFamily.chebyshev_gauss_lobatto],
                         ids=["lgl", "cgl"])
def test_every_lobatto_operator_passes_its_own_verify_on_the_hautus_route(
        make, monkeypatch):
    # D and H of one node set, wherever the interval sits: both identities
    # hold to rounding, so the Hautus test decides both spectral verdicts
    # and neither eig nor eigvals runs.
    def no_eig(*args, **kwargs):
        raise AssertionError("eig or eigvals called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    monkeypatch.setattr(np.linalg, "eigvals", no_eig)
    intervals = [(-1.0, 1.0), (0.0, 10.0), (100.0, 101.0), (-1000.0, 1000.0),
                 (5e3, 5e3 + 1.0), (1e4, 1e4 + 1.0)]
    for a, b in intervals:
        for n in range(1, 33):
            op = build_pseudospectral_operator(make(n, Interval(a, b)))
            report = verify_all(op)
            verdicts = {r.property.value: r.passed for r in report.residuals}
            assert verdicts["C_identity"] and verdicts["D_identity"], (a, n)
            assert report.nullspace_consistent and report.eigenvalue_property, (a, n)
            assert report.eigenvalue_check.basis.shape == (n + 1, 0), (a, n)
            # nullspace route 1 as the check reads it, and by the SVD of D_tilde
            assert not report.eigenvalue_check.singular, (a, n)
            assert svd_rank(build_d_tilde(op))[0] == n + 1, (a, n)


def test_lgl_differentiates_on_the_reference_nodes_and_scales():
    family = NodeFamily.legendre_gauss_lobatto(12, Interval(100.0, 104.0))
    op = build_pseudospectral_operator(family)
    t, w = legendre_gauss_lobatto(12)
    assert op.d_plus.tobytes() == (build_pseudospectral_d(t) * 0.5).tobytes()
    assert np.diagonal(op.h).tobytes() == (2.0 * w).tobytes()
    assert op.x.tobytes() == family.nodes.tobytes()


def test_degree_33_builds_where_its_nodes_allow():
    # No degree cap: LGL builds and verifies past n = 32, while uniform
    # nodes are refused by their negative weights.
    report = verify_all(
        build_pseudospectral_operator(NodeFamily.legendre_gauss_lobatto(33, REFERENCE)))
    assert report.all_passed()
    assert report.nullspace_consistent and report.eigenvalue_property
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        with pytest.raises(IndefiniteNormError):
            build_pseudospectral_operator(NodeFamily.uniform(33, REFERENCE))


@pytest.mark.parametrize("interval, degrees", [((0.0, 1e-12), range(25, 33)),
                                               ((0.0, 1e12), range(27, 33))],
                         ids=["1e-12", "1e12"])
def test_cgl_on_tiny_and_huge_intervals_builds_and_verifies(interval, degrees):
    # Unscaled node differences make the barycentric products overflow here.
    for n in degrees:
        op = build_pseudospectral_operator(
            NodeFamily.chebyshev_gauss_lobatto(n, Interval(*interval)))
        report = verify_all(op)
        assert report.all_passed(), n
        assert report.nullspace_consistent and report.eigenvalue_property, n


def test_barycentric_scaling_keeps_the_bits_of_the_unscaled_weights():
    # The scale is a power of two, so it cancels exactly in the normalized
    # weights wherever the unscaled products are finite and normal.
    for a, b in [(-1.0, 1.0), (0.0, 10.0), (100.0, 101.0), (-1000.0, 1000.0)]:
        for n in range(1, 33):
            nodes = NodeFamily.chebyshev_gauss_lobatto(n, Interval(a, b)).nodes
            diff = nodes[:, None] - nodes[None, :]
            np.fill_diagonal(diff, 1.0)
            beta = 1.0 / np.prod(diff, axis=1)
            expected = beta / np.max(np.abs(beta))
            assert _barycentric_weights(nodes).tobytes() == expected.tobytes(), (a, n)


@pytest.mark.parametrize("make", [NodeFamily.legendre_gauss_lobatto,
                                  NodeFamily.chebyshev_gauss_lobatto],
                         ids=["lgl", "cgl"])
def test_high_degree_lobatto_operators_pass_verify_on_the_hautus_route(
        make, monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("eig or eigvals called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    monkeypatch.setattr(np.linalg, "eigvals", no_eig)
    for a, b in [(0.0, 1e-2), (100.0, 101.0), (-1000.0, 1000.0), (0.0, 1e6)]:
        for n in (48, 128):
            report = verify_all(build_pseudospectral_operator(make(n, Interval(a, b))))
            assert report.all_passed(), (a, n)
            assert report.nullspace_consistent and report.eigenvalue_property, (a, n)
            assert report.eigenvalue_check.basis.shape == (n + 1, 0), (a, n)


@pytest.mark.parametrize("make", [NodeFamily.legendre_gauss_lobatto,
                                  NodeFamily.chebyshev_gauss_lobatto],
                         ids=["lgl", "cgl"])
def test_certify_lobatto_sweep_past_degree_32(make):
    report = certify_families([make(n, Interval(100.0, 101.0)) for n in range(1, 65)])
    assert report.certified
    assert len(report.entries) == 64


def test_conditioning_warning_above_threshold():
    nodes = chebyshev_gauss_lobatto_nodes(13)
    family = NodeFamily.explicit(nodes, REFERENCE)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        build_pseudospectral_operator(family)


# ---------------------------------------------------------------------------
# certification


def test_certify_lobatto_sweep():
    families = [
        NodeFamily.legendre_gauss_lobatto(n, REFERENCE) for n in range(1, 9)
    ] + [
        NodeFamily.chebyshev_gauss_lobatto(n, REFERENCE) for n in range(1, 9)
    ]
    report = certify_families(families)
    assert report.certified
    assert len(report.entries) == 16
    assert all(e.passed for e in report.entries)
    assert all(e.moment_ok for e in report.entries)


def test_certify_two_node_reduces_to_two_point_spectrum():
    family = NodeFamily.explicit(np.array([0.0, 1.0]), Interval(0.0, 1.0))
    report = certify_families([family])
    assert report.certified
    op = build_pseudospectral_operator(family)
    lam = np.sort_complex(
        np.linalg.eigvals(op.d_plus + np.linalg.solve(op.h, np.outer(op.p0, op.p0)))
    )
    np.testing.assert_allclose(lam, [1.0 - 1.0j, 1.0 + 1.0j], atol=1e-14)


def test_certify_random_positive_weight_node_sets():
    rng = np.random.default_rng(42)
    interval = REFERENCE
    families = []
    while len(families) < 10:
        nodes = np.sort(rng.uniform(-1.0, 1.0, 4))
        if np.min(np.diff(nodes)) < 0.04:
            continue
        try:
            build_interpolatory_h(nodes, interval)
        except IndefiniteNormError:
            continue
        families.append(NodeFamily.explicit(nodes, interval))
    report = certify_families(families)
    assert report.certified


@pytest.mark.parametrize("interval", [REFERENCE, Interval(100.0, 101.0)],
                         ids=["-1_1", "100_101"])
def test_certified_min_real_part_is_the_spectrum_reports(interval):
    families = [maker(n, interval)
                for maker in (NodeFamily.legendre_gauss_lobatto,
                              NodeFamily.chebyshev_gauss_lobatto)
                for n in range(1, 17)]
    report = certify_families(families)
    for family, entry in zip(families, report.entries, strict=True):
        op = build_pseudospectral_operator(family)
        assert entry.min_real_part == spectral_report(op).eigenvalues[0].real


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_certify_rejects_a_nonpositive_band(tau):
    with pytest.raises(ParameterError):
        certify_families([NodeFamily.legendre_gauss_lobatto(3, REFERENCE)], tau_eig=tau)


@pytest.mark.parametrize("families", [[], (), iter([])], ids=["list", "tuple", "iterator"])
def test_certify_rejects_an_empty_sweep(families):
    with pytest.raises(ParameterError, match="no family"):
        certify_families(families)


def test_a_failed_eigenvalue_check_fails_the_certification(monkeypatch):
    offending = (1e-3 + 0.5j, 1e-3 - 0.5j)
    monkeypatch.setattr(
        "sbpkit.pseudospectral.check_eigenvalue_property",
        lambda *args: EigenvalueCheck(offending=offending, basis=None, route="band"))
    report = certify_families([NodeFamily.legendre_gauss_lobatto(2, REFERENCE)])
    assert not report.certified
    assert not report.entries[0].eigenvalue_ok and not report.entries[0].passed
    (failure,) = report.failures
    assert failure.startswith("legendre_gauss_lobatto(n=2, [-1, 1]):")
    assert f"offending eigenvalues {offending[0]}, {offending[1]}" in failure
    assert report.to_document()["failures"] == [failure]


def test_certification_document():
    report = certify_families([NodeFamily.legendre_gauss_lobatto(3, REFERENCE)])
    doc = report.to_document()
    assert doc["certified"] is True
    assert doc["entries"][0]["n"] == 3
    assert doc["failures"] == []
