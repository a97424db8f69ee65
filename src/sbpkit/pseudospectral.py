"""Pseudospectral operators on arbitrary distinct nodes.

On n + 1 distinct nodes there is exactly one differentiation matrix that is
exact for all polynomials of degree <= n (each row solves a transposed
Vandermonde system).  It is built here with barycentric-Lagrange weights,
which is algebraically identical to the row-wise Vandermonde solve but
numerically stable.

The norm matrix must integrate products of degree-n polynomials exactly,
otherwise the summation-by-parts identity cannot close with S = 0 (both
derivative matrices coincide here, which forces S = 0).  Interpolatory
quadrature weights (the integrals of the Lagrange cardinal functions) only
reach that exactness on Gauss-type nodes and for n <= 2, so the bundle uses

* the diagonal interpolatory norm whenever its moments are exact through
  degree 2n - 1 (Gauss-Lobatto weights for the Legendre family), and
* the dense modal norm ``H = V^-T G V^-1`` otherwise, where V tabulates a
  mapped Legendre basis on the nodes and G is that basis's exact Gram
  matrix; this is the standard spectral-element mass matrix and is exact
  for all degree-2n products by construction.

Node sets whose interpolatory weights are not all positive are refused
outright.  Every constructible bundle is nullspace consistent and its
penalized matrix has spectrum strictly in the right half-plane, which
:func:`certify_families` checks empirically.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    IndefiniteNormError,
    InvariantError,
    ParameterError,
)
from .linalg import DEFAULT_TOLERANCE, check_positive, max_abs, rank_threshold
from .operators import Interval, SbpOperatorPair
from .verify import check_eigenvalue_property, check_nullspace_consistency

__all__ = [
    "Family",
    "NodeFamily",
    "legendre_gauss_lobatto",
    "chebyshev_gauss_lobatto_nodes",
    "build_pseudospectral_d",
    "lagrange_cardinal_values",
    "build_interpolatory_h",
    "build_modal_h",
    "build_pseudospectral_operator",
    "CertificationEntry",
    "CertificationReport",
    "certify_families",
]

#: Relative moment defect below which a diagonal norm is considered exact
#: through degree 2n - 1 and therefore usable in the bundle.
MOMENT_EXACTNESS_RTOL = 1e-10

#: Largest supported polynomial degree.
MAX_N = 32

#: Above this degree, non-Lobatto node sets get a conditioning warning.
CONDITIONING_WARNING_N = 12

#: sigma_min(V^T H) is only a meaningful double-precision statement for
#: small n; the certification computes it up to this degree.
MOMENT_CHECK_MAX_N = 6


class Family(enum.Enum):
    LEGENDRE_GAUSS_LOBATTO = "legendre_gauss_lobatto"
    CHEBYSHEV_GAUSS_LOBATTO = "chebyshev_gauss_lobatto"
    UNIFORM = "uniform"
    EXPLICIT = "explicit"


_LOBATTO = (Family.LEGENDRE_GAUSS_LOBATTO, Family.CHEBYSHEV_GAUSS_LOBATTO)


@dataclass(frozen=True)
class NodeFamily:
    """A named node set: strictly increasing nodes inside the interval.

    Lobatto-type families include both endpoints exactly.
    """

    tag: Family
    n: int
    interval: Interval
    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        if self.n < 1:
            raise InvariantError(f"node family needs n >= 1, got {self.n}")
        if nodes.size != self.n + 1:
            raise InvariantError(
                f"expected {self.n + 1} nodes, got {nodes.size}"
            )
        if np.any(np.diff(nodes) <= 0):
            raise InvariantError("nodes must be strictly increasing")
        a, b = self.interval.a, self.interval.b
        slack = 4 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
        if nodes[0] < a - slack or nodes[-1] > b + slack:
            raise InvariantError(
                f"nodes [{nodes[0]}, {nodes[-1]}] exceed the interval [{a}, {b}]"
            )
        if self.tag in _LOBATTO and (nodes[0] != a or nodes[-1] != b):
            raise InvariantError(
                "Lobatto-type node sets must include both interval endpoints"
            )

    @classmethod
    def legendre_gauss_lobatto(cls, n: int, interval: Interval) -> "NodeFamily":
        t, _ = legendre_gauss_lobatto(n)
        return cls(Family.LEGENDRE_GAUSS_LOBATTO, n, interval,
                   _map_to_interval(t, interval, pin_endpoints=True))

    @classmethod
    def chebyshev_gauss_lobatto(cls, n: int, interval: Interval) -> "NodeFamily":
        t = chebyshev_gauss_lobatto_nodes(n)
        return cls(Family.CHEBYSHEV_GAUSS_LOBATTO, n, interval,
                   _map_to_interval(t, interval, pin_endpoints=True))

    @classmethod
    def uniform(cls, n: int, interval: Interval) -> "NodeFamily":
        return cls(Family.UNIFORM, n, interval,
                   np.linspace(interval.a, interval.b, n + 1))

    @classmethod
    def explicit(cls, nodes, interval: Interval) -> "NodeFamily":
        nodes = np.asarray(nodes, dtype=float)
        return cls(Family.EXPLICIT, nodes.size - 1, interval, nodes)

    def label(self) -> str:
        return (
            f"{self.tag.value}(n={self.n}, "
            f"[{self.interval.a:g}, {self.interval.b:g}])"
        )


def _map_to_interval(
    t: np.ndarray, interval: Interval, pin_endpoints: bool
) -> np.ndarray:
    c = 0.5 * (interval.a + interval.b)
    r = 0.5 * interval.length
    x = c + r * t
    if pin_endpoints:
        x[0] = interval.a
        x[-1] = interval.b
    return x


def legendre_gauss_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes and quadrature weights on [-1, 1].

    Newton iteration on the stationarity condition of the degree-n Legendre
    polynomial, started from Chebyshev-Gauss-Lobatto nodes; converges to
    1e-14 within a handful of sweeps.
    """
    if n < 1:
        raise ParameterError(f"Gauss-Lobatto needs n >= 1, got {n}")
    if n == 1:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    m = n + 1
    t = np.cos(np.pi * np.arange(m) / n)
    p = np.zeros((m, m))
    t_old = 2.0 * np.ones(m)
    for _ in range(100):
        if max_abs(t - t_old) <= 1e-14:
            break
        t_old = t.copy()
        p[:, 0] = 1.0
        p[:, 1] = t
        for k in range(2, m):
            p[:, k] = ((2 * k - 1) * t * p[:, k - 1] - (k - 1) * p[:, k - 2]) / k
        t = t_old - (t * p[:, n] - p[:, n - 1]) / (m * p[:, n])
    else:
        raise DecompositionError(
            f"Gauss-Lobatto node iteration did not converge for n={n}"
        )
    w = 2.0 / (n * m * p[:, n] ** 2)
    order = np.argsort(t)
    t, w = t[order], w[order]
    t[0], t[-1] = -1.0, 1.0
    return t, w


def chebyshev_gauss_lobatto_nodes(n: int) -> np.ndarray:
    """Chebyshev extreme points on [-1, 1], increasing."""
    if n < 1:
        raise ParameterError(f"Gauss-Lobatto needs n >= 1, got {n}")
    return -np.cos(np.pi * np.arange(n + 1) / n)


def _check_nodes(nodes) -> np.ndarray:
    nodes = np.ravel(np.asarray(nodes, dtype=float))
    if nodes.size < 2:
        raise ParameterError(
            f"a differentiation matrix needs at least 2 nodes, got {nodes.size}"
        )
    xs = np.sort(nodes)
    if np.any(xs[1:] == xs[:-1]):
        raise InvariantError("nodes must be pairwise distinct")
    return nodes


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    beta = 1.0 / np.prod(diff, axis=1)
    return beta / max_abs(beta)


def build_pseudospectral_d(nodes) -> np.ndarray:
    """The unique degree-exact differentiation matrix on the given nodes.

    Off-diagonal entries are ``(beta_j / beta_i) / (x_i - x_j)`` with the
    barycentric weights beta; each diagonal entry is the negated row sum,
    which puts the constants in the kernel by construction.
    """
    nodes = _check_nodes(nodes)
    m = nodes.size
    beta = _barycentric_weights(nodes)
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                d[i, j] = (beta[j] / beta[i]) / (nodes[i] - nodes[j])
        d[i, i] = -np.sum(d[i])
    return d


def lagrange_cardinal_values(nodes, point: float) -> np.ndarray:
    """Values L_i(point) of the cardinal interpolation basis."""
    nodes = _check_nodes(nodes)
    point = float(point)
    exact = np.nonzero(nodes == point)[0]
    out = np.zeros(nodes.size)
    if exact.size:
        out[exact[0]] = 1.0
        return out
    beta = _barycentric_weights(nodes)
    terms = beta / (point - nodes)
    return terms / np.sum(terms)


def build_interpolatory_h(
    nodes, interval: Interval
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal norm from interpolatory quadrature, plus boundary vectors.

    The weights are the integrals of the cardinal functions over the
    interval, obtained from the dual (transposed) Vandermonde system for the
    monomial moments.  The solve runs in affine-standardized coordinates on
    [-1, 1], which leaves the weights unchanged in exact arithmetic but keeps
    the conditioning independent of where the interval sits.  Non-positive
    weights make the norm indefinite and are refused.
    """
    nodes = _check_nodes(nodes)
    m = nodes.size
    c = 0.5 * (interval.a + interval.b)
    r = 0.5 * interval.length
    t = (nodes - c) / r
    vt = np.vander(t, m, increasing=True).T
    moments = np.array(
        [(1.0 - (-1.0) ** (j + 1)) / (j + 1) for j in range(m)]
    )
    weights = r * np.linalg.solve(vt, moments)
    bad = np.nonzero(weights <= 0.0)[0]
    if bad.size:
        listing = ", ".join(f"w[{i}]={weights[i]:.6g}" for i in bad)
        raise IndefiniteNormError(
            f"interpolatory quadrature weights are not all positive: {listing}",
            weights=weights,
        )
    p0 = lagrange_cardinal_values(nodes, interval.a)
    pn = lagrange_cardinal_values(nodes, interval.b)
    return np.diag(weights), p0, pn


def _mapped_legendre_vandermonde(
    nodes: np.ndarray, interval: Interval, degree: int | None = None
) -> np.ndarray:
    """V[l, k] = P_k(t(x_l)) for the Legendre basis mapped to the interval.

    Columns run over k = 0..degree; the default degree is (number of nodes) - 1,
    which makes V square.
    """
    c = 0.5 * (interval.a + interval.b)
    r = 0.5 * interval.length
    t = (np.asarray(nodes, dtype=float) - c) / r
    cols = t.size if degree is None else degree + 1
    v = np.empty((t.size, cols))
    v[:, 0] = 1.0
    if cols > 1:
        v[:, 1] = t
    for k in range(2, cols):
        v[:, k] = ((2 * k - 1) * t * v[:, k - 1] - (k - 1) * v[:, k - 2]) / k
    return v


def build_modal_h(nodes, interval: Interval) -> np.ndarray:
    """Dense norm from the exact Gram matrix of a mapped Legendre basis.

    ``f^T H g`` equals the exact integral of the interpolants' product for
    all polynomials of degree <= n, which is what the summation-by-parts
    identity needs; positive definite by congruence with a positive diagonal.
    """
    nodes = _check_nodes(nodes)
    m = nodes.size
    v = _mapped_legendre_vandermonde(nodes, interval)
    gram = np.diag(interval.length / (2.0 * np.arange(m) + 1.0))
    v_inv = np.linalg.inv(v)
    h = v_inv.T @ gram @ v_inv
    return 0.5 * (h + h.T)


def _moments_exact_through(
    nodes: np.ndarray, interval: Interval, weights: np.ndarray, degree: int
) -> bool:
    """Whether the diagonal rule integrates all polynomials of the given degree.

    The moments are taken of the Legendre polynomials P_k(t(x)) in the affine
    coordinate t = (x - c) / r, k = 0..degree, whose exact integrals are the
    interval length for k = 0 and zero otherwise.  Raw monomials would not
    do: away from the origin their moments are huge and nearly equal, so the
    defect of a rule that is not exact drowns in the scale of the moment.
    """
    v = _mapped_legendre_vandermonde(nodes, interval, degree)
    defect = weights @ v
    defect[0] -= interval.length
    return max_abs(defect) <= MOMENT_EXACTNESS_RTOL * interval.length


def build_pseudospectral_operator(family: NodeFamily) -> SbpOperatorPair:
    """Assemble the full bundle for a node family, with q = n and S = 0.

    Gauss-Lobatto weights are used directly for the Legendre family.  Every
    other family first computes interpolatory weights and refuses the node
    set if any weight is non-positive; the diagonal norm is kept when its
    moments are exact through degree 2n - 1 (Gauss-type nodes, n <= 2) and
    replaced by the dense modal norm otherwise.
    """
    n = family.n
    if n > MAX_N:
        raise ParameterError(f"n={n} exceeds the supported maximum {MAX_N}")
    if n > CONDITIONING_WARNING_N and family.tag not in _LOBATTO:
        warnings.warn(
            f"interpolatory weights on {family.tag.value} nodes are "
            f"ill-conditioned for n={n} > {CONDITIONING_WARNING_N}",
            RuntimeWarning,
            stacklevel=2,
        )
    d = build_pseudospectral_d(family.nodes)
    if family.tag is Family.LEGENDRE_GAUSS_LOBATTO:
        _, w = legendre_gauss_lobatto(n)
        h = np.diag(0.5 * family.interval.length * w)
        p0 = np.zeros(n + 1)
        p0[0] = 1.0
        pn = np.zeros(n + 1)
        pn[-1] = 1.0
    else:
        h, p0, pn = build_interpolatory_h(family.nodes, family.interval)
        diag = np.diagonal(h)
        if not _moments_exact_through(
            family.nodes, family.interval, diag, 2 * n - 1
        ):
            h = build_modal_h(family.nodes, family.interval)
    return SbpOperatorPair(
        d_plus=d,
        d_minus=d,
        h=h,
        s=np.zeros((n + 1, n + 1)),
        p0=p0,
        pn=pn,
        x=family.nodes,
        q=n,
        interval=family.interval,
        name=f"{family.tag.value}_n{n}",
    )


@dataclass(frozen=True)
class CertificationEntry:
    """Per-family outcome of the pseudospectral certification."""

    label: str
    n: int
    kernel_residual: float
    rank: int
    nullspace_ok: bool
    min_real_part: float
    eigenvalue_ok: bool
    moment_sigma_min: float | None
    moment_ok: bool | None

    @property
    def passed(self) -> bool:
        return (
            self.nullspace_ok
            and self.eigenvalue_ok
            and (self.moment_ok is not False)
        )


@dataclass(frozen=True)
class CertificationReport:
    entries: tuple[CertificationEntry, ...]
    failures: tuple[str, ...]
    tau_eig: float

    @property
    def certified(self) -> bool:
        return not self.failures

    def to_document(self) -> dict:
        return {
            "certified": self.certified,
            "tau_eig": self.tau_eig,
            "entries": [
                {
                    "label": e.label,
                    "n": e.n,
                    "kernel_residual": e.kernel_residual,
                    "rank": e.rank,
                    "nullspace_ok": e.nullspace_ok,
                    "min_real_part": e.min_real_part,
                    "eigenvalue_ok": e.eigenvalue_ok,
                    "moment_sigma_min": e.moment_sigma_min,
                    "moment_ok": e.moment_ok,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
            "failures": list(self.failures),
        }


def certify_families(
    families, tau_eig: float = DEFAULT_TOLERANCE
) -> CertificationReport:
    """Check nullspace consistency and strict right-half-plane spectra.

    For each constructible family, the checks of :mod:`sbpkit.verify` decide
    both verdicts at tolerance ``tau_eig``: the constants must be annihilated
    by the differentiation matrix, its rank must be n, and every eigenvalue
    of the penalized matrix must clear the tau band.  For small n the
    uniqueness mechanism is probed directly: sigma_min(V^T H) must be
    positive, i.e. no nonzero vector is H-orthogonal to all grid polynomials.
    V tabulates the Legendre basis mapped to the interval; raw monomials
    would lose every digit of sigma_min on an interval such as [100, 101].
    """
    tau_eig = check_positive(tau_eig, "tau_eig")
    entries: list[CertificationEntry] = []
    failures: list[str] = []
    for family in families:
        op = build_pseudospectral_operator(family)
        nullspace = check_nullspace_consistency(op, tau_eig)
        eig = check_eigenvalue_property(op, tau_eig)

        moment_sigma_min: float | None = None
        moment_ok: bool | None = None
        if family.n <= MOMENT_CHECK_MAX_N:
            v = _mapped_legendre_vandermonde(op.x, op.interval)
            msv = np.linalg.svd(v.T @ op.h, compute_uv=False)
            moment_sigma_min = float(msv[-1])
            moment_ok = moment_sigma_min > rank_threshold(float(msv[0]), v.shape[0])

        entry = CertificationEntry(
            label=family.label(),
            n=family.n,
            kernel_residual=nullspace.kernel_residual,
            rank=nullspace.rank,
            nullspace_ok=nullspace.consistent,
            min_real_part=eig.min_real_part,
            eigenvalue_ok=eig.has_property,
            moment_sigma_min=moment_sigma_min,
            moment_ok=moment_ok,
        )
        entries.append(entry)
        if not entry.passed:
            offenders = ", ".join(str(v) for v in eig.offending) or "none"
            failures.append(
                f"{family.label()}: nullspace_ok={nullspace.consistent}, "
                f"min Re(lambda)={eig.min_real_part:.6e} "
                f"(offending eigenvalues {offenders}), moment_ok={moment_ok}"
            )
    return CertificationReport(
        entries=tuple(entries), failures=tuple(failures), tau_eig=tau_eig
    )
