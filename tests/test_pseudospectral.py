import numpy as np
import pytest

from sbpkit import (
    Family,
    Interval,
    NodeFamily,
    build_interpolatory_h,
    build_pseudospectral_d,
    build_pseudospectral_operator,
    certify_families,
    legendre_gauss_lobatto,
    verify_all,
)
from sbpkit.errors import IndefiniteNormError, InvariantError, ParameterError
from sbpkit.pseudospectral import build_modal_h, chebyshev_gauss_lobatto_nodes

from oracles import vandermonde_d

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


def test_duplicate_nodes_rejected():
    with pytest.raises(InvariantError):
        build_pseudospectral_d([0.0, 0.0, 1.0])


def test_single_node_rejected():
    with pytest.raises(ParameterError):
        build_pseudospectral_d([0.5])


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
    "tag, degrees",
    [(Family.CHEBYSHEV_GAUSS_LOBATTO, range(1, 33)), (Family.UNIFORM, range(1, 8))],
    ids=["chebyshev", "uniform"],
)
def test_diagonal_norm_only_where_exact_on_shifted_intervals(interval, tag, degrees):
    # Interpolatory weights on these nodes integrate degree 2n - 1 only for
    # n <= 2; a diagonal norm kept beyond that breaks the SBP identity.
    make = {
        Family.CHEBYSHEV_GAUSS_LOBATTO: NodeFamily.chebyshev_gauss_lobatto,
        Family.UNIFORM: NodeFamily.uniform,
    }[tag]
    for n in degrees:
        op = build_pseudospectral_operator(make(n, interval))
        diagonal = np.count_nonzero(op.h - np.diag(np.diagonal(op.h))) == 0
        assert diagonal == (n <= 2), n
        hd = op.h @ op.d_plus
        defect = hd + hd.T + np.outer(op.p0, op.p0) - np.outer(op.pn, op.pn)
        assert np.max(np.abs(defect)) <= 1e-12 * np.max(np.abs(hd)), n


def test_oversized_degree_rejected():
    with pytest.raises(ParameterError):
        build_pseudospectral_operator(NodeFamily.legendre_gauss_lobatto(33, REFERENCE))


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
    small = [e for e in report.entries if e.moment_sigma_min is not None]
    assert small and all(e.moment_ok for e in small)


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


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_certify_rejects_a_nonpositive_band(tau):
    with pytest.raises(ParameterError):
        certify_families([NodeFamily.legendre_gauss_lobatto(3, REFERENCE)], tau_eig=tau)


def test_certification_document():
    report = certify_families([NodeFamily.legendre_gauss_lobatto(3, REFERENCE)])
    doc = report.to_document()
    assert doc["certified"] is True
    assert doc["entries"][0]["n"] == 3
    assert doc["failures"] == []
