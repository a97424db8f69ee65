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
  degree 2n - 1 (Gauss-Lobatto weights for the Legendre family, whose D and
  H are both built on the reference nodes of [-1, 1] and then scaled to the
  interval, so that rounded mapped nodes cannot put them out of step), and
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

from . import spectral
from .errors import (
    DecompositionError,
    IndefiniteNormError,
    InvariantError,
    ParameterError,
)
from .linalg import DEFAULT_TOLERANCE, check_positive, legendre_basis, max_abs, svd_rank
from .operators import Interval, SbpOperatorPair, _builder_pair
from .verify import check_eigenvalue_property, check_nullspace_consistency

__all__ = [
    "Family",
    "NodeFamily",
    "legendre_gauss_lobatto",
    "chebyshev_gauss_lobatto_nodes",
    "build_pseudospectral_d",
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

#: Above this degree, non-Lobatto node sets get a conditioning warning.
CONDITIONING_WARNING_N = 12


class Family(enum.Enum):
    LEGENDRE_GAUSS_LOBATTO = "legendre_gauss_lobatto"
    CHEBYSHEV_GAUSS_LOBATTO = "chebyshev_gauss_lobatto"
    UNIFORM = "uniform"
    EXPLICIT = "explicit"


_LOBATTO = (Family.LEGENDRE_GAUSS_LOBATTO, Family.CHEBYSHEV_GAUSS_LOBATTO)


@dataclass(frozen=True)
class NodeFamily:
    """A named node set: strictly increasing nodes inside the interval.

    ``tag`` is a :class:`Family` or its value.  Lobatto-type families include
    both endpoints exactly.
    """

    tag: Family
    n: int
    interval: Interval
    nodes: np.ndarray

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "tag", Family(self.tag))
        except ValueError:
            raise ParameterError(f"unknown node family {self.tag!r}") from None
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
                   _map_to_interval(t, interval))

    @classmethod
    def chebyshev_gauss_lobatto(cls, n: int, interval: Interval) -> "NodeFamily":
        t = chebyshev_gauss_lobatto_nodes(n)
        return cls(Family.CHEBYSHEV_GAUSS_LOBATTO, n, interval,
                   _map_to_interval(t, interval))

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


def _map_to_interval(t: np.ndarray, interval: Interval) -> np.ndarray:
    """Lobatto nodes ``t`` on [-1, 1] mapped to ``interval``, endpoints exact."""
    x = 0.5 * (interval.a + interval.b) + 0.5 * interval.length * t
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
    t_old = 2.0 * np.ones(m)
    for _ in range(100):
        if max_abs(t - t_old) <= 1e-14:
            break
        t_old = t.copy()
        p, _ = legendre_basis(t, Interval(-1.0, 1.0), n)
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
    """Barycentric weights scaled to max 1.  The node differences are first
    scaled by the power of two nearest 4 / (max - min) (Berrut & Trefethen
    2004), so products stay finite; a power of two scales them exactly."""
    scale = 2.0 ** np.round(np.log2(4.0 / (np.max(nodes) - np.min(nodes))))
    diff = (nodes[:, None] - nodes[None, :]) * scale
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
    beta = _barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (beta[None, :] / beta[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def _lagrange_cardinal_values(nodes, point: float) -> np.ndarray:
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
    interval: they solve ``V^T w = (length, 0, ..., 0)``, where V tabulates
    the mapped Legendre basis on the nodes and the right-hand side holds the
    basis's exact integrals.  Non-positive weights make the norm indefinite
    and are refused.
    """
    nodes = _check_nodes(nodes)
    m = nodes.size
    v, _ = legendre_basis(nodes, interval, m - 1)
    moments = np.zeros(m)
    moments[0] = interval.length
    weights = np.linalg.solve(v.T, moments)
    bad = np.nonzero(weights <= 0.0)[0]
    if bad.size:
        listing = ", ".join(f"w[{i}]={weights[i]:.6g}" for i in bad)
        raise IndefiniteNormError(
            f"interpolatory quadrature weights are not all positive: {listing}",
            weights=weights,
        )
    p0 = _lagrange_cardinal_values(nodes, interval.a)
    pn = _lagrange_cardinal_values(nodes, interval.b)
    return np.diag(weights), p0, pn


def build_modal_h(nodes, interval: Interval) -> np.ndarray:
    """Dense norm from the exact Gram matrix of a mapped Legendre basis.

    ``f^T H g`` equals the exact integral of the interpolants' product for
    all polynomials of degree <= n, which is what the summation-by-parts
    identity needs; positive definite by congruence with a positive diagonal.
    """
    nodes = _check_nodes(nodes)
    m = nodes.size
    v, _ = legendre_basis(nodes, interval, m - 1)
    gram = np.diag(interval.length / (2.0 * np.arange(m) + 1.0))
    v_inv = np.linalg.inv(v)
    h = v_inv.T @ gram @ v_inv
    return 0.5 * (h + h.T)


def _moments_exact_through(
    nodes: np.ndarray, interval: Interval, weights: np.ndarray, degree: int
) -> bool:
    """Whether the diagonal rule integrates all polynomials of the given degree.

    The moments are taken of the mapped Legendre polynomials P_k, k =
    0..degree, whose exact integrals are the interval length for k = 0 and
    zero otherwise.
    """
    v, _ = legendre_basis(nodes, interval, degree)
    defect = weights @ v
    defect[0] -= interval.length
    return max_abs(defect) <= MOMENT_EXACTNESS_RTOL * interval.length


def build_pseudospectral_operator(family: NodeFamily) -> SbpOperatorPair:
    """Assemble the full bundle for a node family, with q = n and S = 0.

    For the Legendre family, D is built on the reference Gauss-Lobatto nodes
    of [-1, 1] and scaled by 2/L, and H holds their weights scaled by L/2,
    where L is the interval length; x keeps the mapped nodes.  Every
    other family first computes interpolatory weights and refuses the node
    set if any weight is non-positive; the diagonal norm is kept when its
    moments are exact through degree 2n - 1 (Gauss-type nodes, n <= 2) and
    replaced by the dense modal norm otherwise.  No degree cap applies.
    """
    n = family.n
    if n > CONDITIONING_WARNING_N and family.tag not in _LOBATTO:
        warnings.warn(
            f"interpolatory weights on {family.tag.value} nodes are "
            f"ill-conditioned for n={n} > {CONDITIONING_WARNING_N}",
            RuntimeWarning,
            stacklevel=2,
        )
    if family.tag is Family.LEGENDRE_GAUSS_LOBATTO:
        t, w = legendre_gauss_lobatto(n)
        d = build_pseudospectral_d(t) * (2.0 / family.interval.length)
        h = np.diag(0.5 * family.interval.length * w)
        p0 = np.zeros(n + 1)
        p0[0] = 1.0
        pn = np.zeros(n + 1)
        pn[-1] = 1.0
    else:
        d = build_pseudospectral_d(family.nodes)
        h, p0, pn = build_interpolatory_h(family.nodes, family.interval)
        diag = np.diagonal(h)
        if not _moments_exact_through(
            family.nodes, family.interval, diag, 2 * n - 1
        ):
            h = build_modal_h(family.nodes, family.interval)
    return _builder_pair(
        d=d,
        h=h,
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
    moment_sigma_min: float
    moment_ok: bool

    @property
    def passed(self) -> bool:
        return self.nullspace_ok and self.eigenvalue_ok and self.moment_ok


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
    by the differentiation matrix, its rank must be n, and the penalized
    matrix must have the eigenvalue property (the Hautus test, or the tau
    band where that test does not apply).  The entry's minimum real part
    explains the verdict: the smallest real part of one ``eigvals`` of the
    penalized matrix, which is built once per family.  The uniqueness
    mechanism is also probed directly: V^T H must have full ``svd_rank``,
    i.e. no nonzero vector is H-orthogonal to all grid polynomials; V
    tabulates the Legendre basis mapped to the interval.
    ``tau_eig`` scales the band ``tau_eig * ||D_tilde||_F`` and the kernel
    residual's bound ``tau_eig * sigma_max(D_plus)``.  An empty sweep raises
    ``ParameterError``.
    """
    tau_eig = check_positive(tau_eig, "tau_eig")
    families = list(families)
    if not families:
        raise ParameterError("no family to certify")
    entries: list[CertificationEntry] = []
    failures: list[str] = []
    for family in families:
        op = build_pseudospectral_operator(family)
        d_tilde = spectral.build_d_tilde(op)
        eig = check_eigenvalue_property(op, d_tilde, tau_eig)
        nullspace = check_nullspace_consistency(op, eig, tau_eig)
        min_real_part = float(np.min(np.linalg.eigvals(d_tilde).real))

        v, _ = legendre_basis(op.x, op.interval, op.n)
        rank, msv = svd_rank(v.T @ op.h)
        moment_sigma_min = float(msv[-1])
        moment_ok = rank == v.shape[1]

        entry = CertificationEntry(
            label=family.label(),
            n=family.n,
            kernel_residual=nullspace.kernel_residual,
            rank=nullspace.rank,
            nullspace_ok=nullspace.consistent,
            min_real_part=min_real_part,
            eigenvalue_ok=eig.has_property,
            moment_sigma_min=moment_sigma_min,
            moment_ok=moment_ok,
        )
        entries.append(entry)
        if not entry.passed:
            offenders = ", ".join(str(v) for v in eig.offending) or "none"
            failures.append(
                f"{family.label()}: nullspace_ok={nullspace.consistent}, "
                f"min Re(lambda)={min_real_part:.6e} "
                f"(offending eigenvalues {offenders}), moment_ok={moment_ok}"
            )
    return CertificationReport(
        entries=tuple(entries), failures=tuple(failures), tau_eig=tau_eig
    )
