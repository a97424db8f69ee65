"""Algebraic verification of SBP operator pairs.

Every defining condition is evaluated as a residual in the max norm and
compared against a tolerance (default 1e-10): the accuracy conditions for
j = 0..q, symmetric positive definiteness of H, the two summation-by-parts
identities and the three conditions on the dissipation matrix S.
Polynomial conditions (accuracy, S x^j = 0) are tested on the Legendre
polynomials mapped to the interval, as relative residuals
``|A V - T| / (|A||V| + |T|)`` (0/0 = 0); identity and symmetry residuals
are absolute.  Definiteness of H and of S and every rank follow the
package's one rank rule (:func:`sbpkit.linalg.rank_threshold`), whatever
the tolerance.

Two spectral verdicts follow from one check of the penalized matrix
``D_tilde = D_plus + H^{-1} p0 p0^T``, :func:`check_eigenvalue_property`,
the one place that picks its route: the eigenvalue property, and the first
route of nullspace consistency, since D_tilde is invertible exactly where
that check finds no eigenvalue at 0.  The second route proves the rank of
D_plus by a verified Cholesky factor, and takes an SVD of it only where
that proof fails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import InternalInconsistencyError, ParameterError
from .linalg import (DEFAULT_TOLERANCE, check_positive, legendre_basis, max_abs,
                     rank_threshold, relative_residual, svd_rank)
from .operators import SbpOperatorPair, _check_finite_norm, _is_diagonal
from .spectral import EigenvalueCheck

__all__ = [
    "Property",
    "PropertyResidual",
    "NullspaceDiagnostics",
    "EigenvalueCheck",
    "VerificationReport",
    "check_accuracy",
    "check_spd",
    "check_sbp_identities",
    "check_s_conditions",
    "check_nullspace_consistency",
    "check_eigenvalue_property",
    "verify_all",
]

class Property(enum.Enum):
    """Identifiers for the individually verified operator conditions."""

    A_DPLUS = "A_dplus"
    A_DMINUS = "A_dminus"
    A_P0 = "A_p0"
    A_PN = "A_pn"
    B_SPD = "B_spd"
    C_IDENTITY = "C_identity"
    D_IDENTITY = "D_identity"
    S_SYMMETRY = "S_symmetry"
    S_PSD = "S_psd"
    S_ANNIHILATION = "S_annihilation"


@dataclass(frozen=True)
class PropertyResidual:
    """Max-norm defect of one property and the verdict at the run tolerance."""

    property: Property
    residual: float
    passed: bool


@dataclass(frozen=True)
class NullspaceDiagnostics:
    """Outcome of the two independent nullspace-consistency routes.

    ``rank`` (of D_plus) and ``kernel_residual`` (``max|D_plus 1|``) are what
    the kernel route decides from.  The other route reads the eigenvalue
    check and adds no number.
    """

    consistent: bool
    kernel_residual: float
    rank: int


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated verdicts for one operator at one tolerance.

    ``nullspace`` and ``eigenvalue_check`` are the diagnostics the two
    spectral verdicts were decided from.
    """

    residuals: tuple[PropertyResidual, ...]
    observed_order: int
    nullspace: NullspaceDiagnostics
    eigenvalue_check: EigenvalueCheck
    tolerance: float

    @property
    def nullspace_consistent(self) -> bool:
        return self.nullspace.consistent

    @property
    def eigenvalue_property(self) -> bool:
        return self.eigenvalue_check.has_property

    def all_passed(self) -> bool:
        return all(r.passed for r in self.residuals)

    def to_document(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "observed_order": self.observed_order,
            "nullspace_consistent": self.nullspace_consistent,
            "eigenvalue_property": self.eigenvalue_property,
            "residuals": [
                {
                    "property": r.property.value,
                    "residual": r.residual,
                    "passed": r.passed,
                }
                for r in self.residuals
            ],
        }


def _exactness(a: np.ndarray, v: np.ndarray, target) -> np.ndarray:
    """Entrywise relative residual of the condition ``A V = T``."""
    return relative_residual(a @ v - target, np.abs(a) @ np.abs(v) + np.abs(target))


def check_accuracy(
    op: SbpOperatorPair, j_max: int, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[tuple[PropertyResidual, ...], int]:
    """Relative residuals of ``D_pm P_j = P_j'``, ``p0.P_j = P_j(a)`` and
    ``pn.P_j = P_j(b)`` for the mapped Legendre polynomials j = 0..j_max.

    Returns ``(residuals, observed_order)``: ``residuals`` aggregates each of
    the four conditions over j <= min(j_max, q), the degrees the operator
    claims; ``observed_order`` is the largest j such that all four pass at
    every degree up to j (or -1).
    """
    tolerance = check_positive(tolerance)
    if j_max < 0:
        raise ParameterError(f"j_max must be >= 0, got {j_max}")
    interval = op.interval
    v, dv = legendre_basis(op.x, interval, j_max)
    ends, _ = legendre_basis(np.array([interval.a, interval.b]), interval, j_max)
    by_j = np.array([
        np.max(_exactness(op.d_plus, v, dv), axis=0),
        np.max(_exactness(op.d_minus, v, dv), axis=0),
        _exactness(op.p0, v, ends[0]),
        _exactness(op.pn, v, ends[1]),
    ])
    failing = np.flatnonzero(~(np.max(by_j, axis=0) <= tolerance))
    observed = int(failing[0]) - 1 if failing.size else j_max

    j_claim = min(j_max, op.q)
    agg = np.max(by_j[:, : j_claim + 1], axis=1)
    props = (Property.A_DPLUS, Property.A_DMINUS, Property.A_P0, Property.A_PN)
    residuals = tuple(
        PropertyResidual(p, float(r), bool(r <= tolerance)) for p, r in zip(props, agg)
    )
    return residuals, observed


def _proved_definite(sym: np.ndarray) -> bool:
    """Whether a Cholesky factor of ``sym - c I`` exists in floating point,
    which proves that the smallest eigenvalue of the symmetric ``sym`` is
    above ``rank_threshold(lambda_max, n + 1)``.

    ``c`` is that threshold taken of ``||sym||_inf >= lambda_max`` plus
    ``2 (n + 2) eps trace(sym)``, which bounds the rounding of the
    factorization (Demmel 1989) and of the shift (Rump 2006, BIT 46).
    """
    size = sym.shape[0]
    eps = np.finfo(float).eps
    shift = (rank_threshold(np.linalg.norm(sym, np.inf), size)
             + 2.0 * (size + 1) * eps * np.sum(np.abs(np.diagonal(sym))))
    try:
        np.linalg.cholesky(sym - shift * np.eye(size))
    except np.linalg.LinAlgError:
        return False
    return True


def check_spd(h: np.ndarray, tolerance: float = DEFAULT_TOLERANCE) -> PropertyResidual:
    """Check H = H^T > 0.

    The residual combines the symmetry defect with the negative part of the
    smallest eigenvalue of the symmetrized matrix.  The tolerance bounds the
    symmetry defect only; definiteness is decided by the package's one rank
    rule, the smallest eigenvalue clearing ``rank_threshold`` of the largest.
    For a dense H a verified Cholesky factor proves that, and the residual is
    the symmetry defect; ``eigvalsh`` runs only where the proof fails.  An H
    with a non-finite entry raises ``InvariantError``.
    """
    tolerance = check_positive(tolerance)
    h = np.asarray(h, dtype=float)
    _check_finite_norm(h)
    sym_defect = max_abs(h - h.T)
    if _is_diagonal(h):
        lam = np.sort(np.diagonal(h))
    else:
        sym = 0.5 * (h + h.T)
        if _proved_definite(sym):
            return PropertyResidual(Property.B_SPD, sym_defect, sym_defect <= tolerance)
        lam = np.linalg.eigvalsh(sym)
    lam_min = float(lam[0])
    residual = max(sym_defect, max(0.0, -lam_min))
    passed = sym_defect <= tolerance and lam_min > rank_threshold(lam[-1], h.shape[0])
    return PropertyResidual(Property.B_SPD, residual, passed)


def check_sbp_identities(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[PropertyResidual, PropertyResidual]:
    """Residuals of the two summation-by-parts identities."""
    tolerance = check_positive(tolerance)
    boundary = -np.outer(op.p0, op.p0) + np.outer(op.pn, op.pn)
    if _is_diagonal(op.h):
        # Scaling rows by diag(H) rounds each entry as the dense product does.
        d = np.diagonal(op.h)[:, None]
        hd = d * op.d_plus
        res_c = max_abs(hd + hd.T - boundary - op.s)
        hd_minus = hd if op.d_minus is op.d_plus else d * op.d_minus
        res_d = max_abs(hd + hd_minus.T - boundary)
    else:
        hd = op.h @ op.d_plus
        dh = op.d_plus.T @ op.h
        res_c = max_abs(hd + dh - boundary - op.s)
        if op.d_minus is not op.d_plus:
            dh = op.d_minus.T @ op.h
        res_d = max_abs(hd + dh - boundary)
    return (
        PropertyResidual(Property.C_IDENTITY, res_c, res_c <= tolerance),
        PropertyResidual(Property.D_IDENTITY, res_d, res_d <= tolerance),
    )


def check_s_conditions(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[PropertyResidual, PropertyResidual, PropertyResidual]:
    """Check S = S^T >= 0 and S P_j = 0 for j = 0..q (relative to |S||P_j|).

    Semi-definiteness follows the package's one rank rule, as in
    :func:`check_spd`: the smallest eigenvalue of the symmetrized S may fall
    below zero by at most ``rank_threshold`` of the largest magnitude.
    """
    tolerance = check_positive(tolerance)
    s = op.s
    sym_defect = max_abs(s - s.T)
    lam = np.diagonal(s) if _is_diagonal(s) else np.linalg.eigvalsh(0.5 * (s + s.T))
    psd_defect = max(0.0, -float(np.min(lam)))
    psd_pass = psd_defect <= rank_threshold(max_abs(lam), s.shape[0])
    v, _ = legendre_basis(op.x, op.interval, op.q)
    ann = max_abs(_exactness(s, v, 0.0))
    return (
        PropertyResidual(Property.S_SYMMETRY, sym_defect, sym_defect <= tolerance),
        PropertyResidual(Property.S_PSD, psd_defect, psd_pass),
        PropertyResidual(Property.S_ANNIHILATION, ann, ann <= tolerance),
    )


def _proved_rank_n(d: np.ndarray, d_ones: np.ndarray) -> tuple[float, float] | None:
    """Bounds ``(lo, hi)`` on sigma_1 of the square ``d`` where a verified
    Cholesky factor proves that the rank rule gives it rank n = size - 1;
    None where the proof fails.  ``d_ones`` is ``d @ 1``.

    One Householder vector reflects the constants onto e_0, so the other
    columns of the reflector span ``1^perp`` and ``Z`` below is ``d`` on
    that subspace.  A Cholesky factor of ``G - c I`` with ``G = Z^T Z``
    proves sigma_n(d) >= sigma_min(Z) above ``rank_threshold(hi, size)``:
    ``c`` is that threshold squared plus ``3 (size + 6) eps`` times
    ``trace(G) + t^2``, which bounds the rounding of forming Z and G and of
    factoring (Demmel 1989; Rump 2006, BIT 46).  ``t = ||d 1|| / sqrt(size)``
    bounds sigma_{n+1}, which must not clear ``rank_threshold(lo, size)``.
    """
    size = d.shape[0]
    eps = np.finfo(float).eps
    # d P for the reflector P = I - 2 v v^T / v^T v, v = 1 + sqrt(size) e_0,
    # which maps the constants onto -sqrt(size) e_0; v^T v = 2 (size +
    # sqrt(size)), and v is 1 in the columns that span 1^perp.
    root = np.sqrt(size)
    z = d[:, 1:] - ((d_ones + root * d[:, 0]) / (size + root))[:, None]
    g = z.T @ z
    tail = float(np.linalg.norm(d_ones)) / np.sqrt(size)
    # sigma_1 is at least each column norm of Z and ||d 1|| / sqrt(size), and
    # at most ||Z||_2 + that, with ||Z||_2^2 <= ||G||_inf.
    lo = float(np.sqrt(max(np.max(np.diagonal(g), initial=0.0), tail * tail)))
    hi = float(np.sqrt(np.linalg.norm(g, np.inf))) + tail
    if not tail <= rank_threshold(lo, size):
        return None
    shift = (rank_threshold(hi, size) ** 2
             + 3.0 * (size + 6) * eps * (np.trace(g) + tail * tail))
    g[np.diag_indices_from(g)] -= shift
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    return lo, hi


def check_nullspace_consistency(
    op: SbpOperatorPair, check: EigenvalueCheck, tolerance: float = DEFAULT_TOLERANCE
) -> NullspaceDiagnostics:
    """Decide whether the kernel of D_plus is exactly the constants.

    Two independent routes must agree.  The first is invertibility of the
    penalized matrix, read from ``check``, the :class:`EigenvalueCheck` of
    ``op``: D_tilde is invertible where the check found no eigenvalue at 0.
    The second is a direct kernel test on D_plus: rank n by the package's
    one rank rule, whatever the tolerance, and ``max|D_plus 1| <= tolerance
    * sigma_1``.  A verified Cholesky factor proves rank n with bounds on
    sigma_1 (:func:`_proved_rank_n`); ``svd_rank`` decides wherever that
    proof fails or the bounds straddle the kernel comparison.  Disagreement
    raises ``InternalInconsistencyError``, signalling a borderline operator.
    """
    tolerance = check_positive(tolerance)
    via_penalized = not check.singular

    d_ones = op.d_plus @ np.ones(op.n + 1)
    kernel_residual = max_abs(d_ones)
    bounds = _proved_rank_n(op.d_plus, d_ones)
    if bounds is not None and (kernel_residual <= tolerance * bounds[0]
                               or kernel_residual > tolerance * bounds[1]):
        rank, via_kernel = op.n, kernel_residual <= tolerance * bounds[0]
    else:
        rank, sv = svd_rank(op.d_plus)
        via_kernel = rank == op.n and kernel_residual <= tolerance * sv[0]

    if via_penalized != via_kernel:
        raise InternalInconsistencyError(
            "nullspace routes disagree: penalized-matrix test says "
            f"{via_penalized} (eigenvalue 0 of D_tilde: {check.singular}) but "
            f"kernel test says {via_kernel} (rank={rank}, expected {op.n}, "
            f"||D_plus 1||={kernel_residual:.3e})"
        )
    return NullspaceDiagnostics(
        consistent=via_penalized, kernel_residual=kernel_residual, rank=rank)


def check_eigenvalue_property(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> EigenvalueCheck:
    """Decide whether every eigenvalue of the penalized matrix D_tilde of
    ``op`` has a positive real part.

    Decided by the Hautus test of
    :func:`sbpkit.spectral.orthogonalize_imaginary`, which reads the
    operator alone, builds no D_tilde, does not read the tolerance and gives
    the basis of N.  Where that test does not apply, D_tilde is built and
    one ``eigvals`` of it decides instead: every eigenvalue must lie right
    of the band ``tolerance * ||D_tilde||_F``, there is no basis, and
    D_tilde is singular where an eigenvalue lies within
    ``rank_threshold(||D_tilde||_F, n + 1)`` of 0.
    """
    tolerance = check_positive(tolerance)
    check = spectral.orthogonalize_imaginary(op)
    if check is not None:
        return check
    d_tilde = spectral.build_d_tilde(op)
    lam = np.sort_complex(np.linalg.eigvals(d_tilde))
    scale = float(np.linalg.norm(d_tilde, "fro"))
    return EigenvalueCheck(
        offending=tuple(lam[lam.real <= tolerance * scale].tolist()), basis=None, route="band",
        singular=bool(np.any(np.abs(lam) <= rank_threshold(scale, op.n + 1))))


def verify_all(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> VerificationReport:
    """Run every check and aggregate the report.

    Accuracy is swept one degree past q so the report can distinguish an
    operator that is exactly of its claimed order from a better one.  The
    penalized matrix is analysed once, by the eigenvalue check, whose
    verdict on its invertibility is the first nullspace route; it is built
    only where the band decides.
    """
    tolerance = check_positive(tolerance)
    accuracy, observed_order = check_accuracy(op, j_max=op.q + 1, tolerance=tolerance)
    spd = check_spd(op.h, tolerance)
    res_c, res_d = check_sbp_identities(op, tolerance)
    s_sym, s_psd, s_ann = check_s_conditions(op, tolerance)
    check = check_eigenvalue_property(op, tolerance)
    return VerificationReport(
        residuals=(*accuracy, spd, res_c, res_d, s_sym, s_psd, s_ann),
        observed_order=observed_order,
        nullspace=check_nullspace_consistency(op, check, tolerance),
        eigenvalue_check=check,
        tolerance=tolerance,
    )
