"""Algebraic verification of SBP operator pairs.

Every defining condition is evaluated as a residual in the max norm and
compared against a tolerance: the accuracy conditions for j = 0..q, symmetric
positive definiteness of H, the two summation-by-parts identities, the three
conditions on the dissipation matrix S, nullspace consistency of D_plus and
the sign of the spectrum of the penalized matrix D_plus + H^{-1} p0 p0^T.

Default tolerance is 1e-10: absolute for residuals of the exactly
representable fixtures, scaled by the Frobenius norm for spectral decisions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import DecompositionError, InternalInconsistencyError, ParameterError
from .linalg import DEFAULT_TOLERANCE, max_abs, svd_rank
from .operators import SbpOperatorPair

__all__ = [
    "DEFAULT_TOLERANCE",
    "Property",
    "PropertyResidual",
    "AccuracyReport",
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

#: Relative floor for the smallest eigenvalue of the symmetrized S.
PSD_FLOOR = 1e-12


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
class AccuracyReport:
    """Accuracy residuals swept over polynomial degrees j = 0..j_max.

    ``residuals`` aggregates each accuracy condition over j <= min(j_max, q),
    the range the operator actually claims.  ``observed_order`` is the largest
    j such that all four conditions pass at every degree up to j (or -1).
    """

    residuals: tuple[PropertyResidual, ...]
    observed_order: int
    j_values: tuple[int, ...]
    d_plus_by_j: tuple[float, ...]
    d_minus_by_j: tuple[float, ...]
    p0_by_j: tuple[float, ...]
    pn_by_j: tuple[float, ...]


@dataclass(frozen=True)
class NullspaceDiagnostics:
    """Outcome of the two independent nullspace-consistency routes."""

    consistent: bool
    sigma_min: float
    sigma_max: float
    kernel_residual: float
    rank: int
    expected_rank: int


@dataclass(frozen=True)
class EigenvalueCheck:
    """Spectrum-sign verdict for the penalized matrix."""

    has_property: bool
    min_real_part: float
    scale: float
    offending: tuple[complex, ...]


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated verdicts for one operator at one tolerance."""

    residuals: tuple[PropertyResidual, ...]
    observed_order: int
    nullspace_consistent: bool
    eigenvalue_property: bool
    tolerance: float

    def all_passed(self) -> bool:
        return all(r.passed for r in self.residuals)

    def residual(self, prop: Property) -> PropertyResidual:
        for r in self.residuals:
            if r.property is prop:
                return r
        raise KeyError(prop)

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


def _check_tolerance(tolerance: float) -> float:
    if not tolerance > 0.0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    return float(tolerance)


def check_accuracy(
    op: SbpOperatorPair, j_max: int, tolerance: float = DEFAULT_TOLERANCE
) -> AccuracyReport:
    """Residuals of the polynomial accuracy conditions for j = 0..j_max."""
    tolerance = _check_tolerance(tolerance)
    if j_max < 0:
        raise ParameterError(f"j_max must be >= 0, got {j_max}")
    a, b = op.interval.a, op.interval.b
    dp, dm, p0, pn = [], [], [], []
    xj = np.ones_like(op.x)
    xjm1 = np.zeros_like(op.x)
    for j in range(j_max + 1):
        target = j * xjm1
        dp.append(max_abs(op.d_plus @ xj - target))
        dm.append(max_abs(op.d_minus @ xj - target))
        p0.append(abs(float(op.p0 @ xj) - a**j))
        pn.append(abs(float(op.pn @ xj) - b**j))
        xjm1 = xj
        xj = xj * op.x

    observed = -1
    for j in range(j_max + 1):
        if max(dp[j], dm[j], p0[j], pn[j]) <= tolerance:
            observed = j
        else:
            break

    j_claim = min(j_max, op.q)
    agg = [max(col[: j_claim + 1]) for col in (dp, dm, p0, pn)]
    props = (Property.A_DPLUS, Property.A_DMINUS, Property.A_P0, Property.A_PN)
    residuals = tuple(
        PropertyResidual(p, r, r <= tolerance) for p, r in zip(props, agg)
    )
    return AccuracyReport(
        residuals=residuals,
        observed_order=observed,
        j_values=tuple(range(j_max + 1)),
        d_plus_by_j=tuple(dp),
        d_minus_by_j=tuple(dm),
        p0_by_j=tuple(p0),
        pn_by_j=tuple(pn),
    )


def check_spd(h: np.ndarray, tolerance: float = DEFAULT_TOLERANCE) -> PropertyResidual:
    """Check H = H^T > 0.

    The residual combines the symmetry defect with the negative part of the
    smallest eigenvalue of the symmetrized matrix; definiteness additionally
    requires that eigenvalue to clear tolerance * ||H||_F.
    """
    tolerance = _check_tolerance(tolerance)
    h = np.asarray(h, dtype=float)
    sym_defect = max_abs(h - h.T)
    lam_min = float(np.linalg.eigvalsh(0.5 * (h + h.T))[0])
    residual = max(sym_defect, max(0.0, -lam_min))
    scale = float(np.linalg.norm(h, "fro"))
    passed = sym_defect <= tolerance and lam_min > tolerance * scale
    return PropertyResidual(Property.B_SPD, residual, passed)


def check_sbp_identities(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[PropertyResidual, PropertyResidual]:
    """Residuals of the two summation-by-parts identities."""
    tolerance = _check_tolerance(tolerance)
    boundary = -np.outer(op.p0, op.p0) + np.outer(op.pn, op.pn)
    res_c = max_abs(op.h @ op.d_plus + op.d_plus.T @ op.h - boundary - op.s)
    res_d = max_abs(op.h @ op.d_plus + op.d_minus.T @ op.h - boundary)
    return (
        PropertyResidual(Property.C_IDENTITY, res_c, res_c <= tolerance),
        PropertyResidual(Property.D_IDENTITY, res_d, res_d <= tolerance),
    )


def check_s_conditions(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[PropertyResidual, PropertyResidual, PropertyResidual]:
    """Check S = S^T >= 0 and S x^j = 0 for j = 0..q."""
    tolerance = _check_tolerance(tolerance)
    s = op.s
    sym_defect = max_abs(s - s.T)
    lam_min = float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])
    psd_defect = max(0.0, -lam_min)
    # Roundoff floor scaled to the matrix itself (rank-one sums in repaired
    # operators are slightly indefinite at machine precision).
    psd_pass = psd_defect <= PSD_FLOOR * float(np.linalg.norm(s, "fro"))
    ann = 0.0
    xj = np.ones_like(op.x)
    for _ in range(op.q + 1):
        ann = max(ann, max_abs(s @ xj))
        xj = xj * op.x
    return (
        PropertyResidual(Property.S_SYMMETRY, sym_defect, sym_defect <= tolerance),
        PropertyResidual(Property.S_PSD, psd_defect, psd_pass),
        PropertyResidual(Property.S_ANNIHILATION, ann, ann <= tolerance),
    )


def check_nullspace_consistency(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> NullspaceDiagnostics:
    """Decide whether the kernel of D_plus is exactly the constants.

    Two independent routes must agree: invertibility of the penalized matrix
    (singular value ratio) and a direct kernel test on D_plus (constants
    annihilated, rank equal to n).  Disagreement raises
    ``InternalInconsistencyError``, signalling a borderline operator.
    """
    tolerance = _check_tolerance(tolerance)
    d_tilde = spectral.build_d_tilde(op)
    sv = np.linalg.svd(d_tilde, compute_uv=False)
    sigma_max, sigma_min = float(sv[0]), float(sv[-1])
    via_penalized = sigma_min > tolerance * sigma_max

    rank, sv_d = svd_rank(op.d_plus)
    kernel_residual = max_abs(op.d_plus @ np.ones(op.n + 1))
    via_kernel = rank == op.n and kernel_residual <= tolerance * float(sv_d[0])

    if via_penalized != via_kernel:
        raise InternalInconsistencyError(
            "nullspace routes disagree: penalized-matrix test says "
            f"{via_penalized} (sigma_min={sigma_min:.3e}) but kernel test says "
            f"{via_kernel} (rank={rank}, expected {op.n}, "
            f"||D_plus 1||={kernel_residual:.3e})"
        )
    return NullspaceDiagnostics(
        consistent=via_penalized,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        kernel_residual=kernel_residual,
        rank=rank,
        expected_rank=op.n,
    )


def check_eigenvalue_property(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> EigenvalueCheck:
    """True iff every eigenvalue of the penalized matrix has real part
    above tolerance * ||D_tilde||_F."""
    tolerance = _check_tolerance(tolerance)
    d_tilde = spectral.build_d_tilde(op)
    scale = float(np.linalg.norm(d_tilde, "fro"))
    try:
        lam = np.linalg.eigvals(d_tilde)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    min_re = float(np.min(lam.real))
    offending = tuple(complex(v) for v in lam[lam.real <= tolerance * scale])
    return EigenvalueCheck(
        has_property=min_re > tolerance * scale,
        min_real_part=min_re,
        scale=scale,
        offending=offending,
    )


def verify_all(
    op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE
) -> VerificationReport:
    """Run every check and aggregate the report.

    Accuracy is swept one degree past q so the report can distinguish an
    operator that is exactly of its claimed order from a better one.
    """
    tolerance = _check_tolerance(tolerance)
    acc = check_accuracy(op, j_max=op.q + 1, tolerance=tolerance)
    spd = check_spd(op.h, tolerance)
    res_c, res_d = check_sbp_identities(op, tolerance)
    s_sym, s_psd, s_ann = check_s_conditions(op, tolerance)
    nullspace = check_nullspace_consistency(op, tolerance)
    eig = check_eigenvalue_property(op, tolerance)
    return VerificationReport(
        residuals=(*acc.residuals, spd, res_c, res_d, s_sym, s_psd, s_ann),
        observed_order=acc.observed_order,
        nullspace_consistent=nullspace.consistent,
        eigenvalue_property=eig.has_property,
        tolerance=tolerance,
    )
