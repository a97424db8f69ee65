"""Dissipation perturbation that restores the positive-spectrum property.

Given a nullspace consistent operator whose penalized matrix has imaginary
eigenvalues, an arbitrarily small symmetric positive semi-definite matrix

    S' = H Q E Q^T H

is assembled in real arithmetic.  The columns of Q are a real H-orthonormal
basis of the invariant subspace of the imaginary eigenvalues, two per
conjugate pair (see :func:`orthogonalize_imaginary`), and E repeats each
eps_k twice; for unit-H-norm eigenvectors w_k this equals
``sum_k eps_k [ (H w_k)(H w_k)* + (H conj(w_k))(H conj(w_k))* ]``.  Because
the subspace is H-orthogonal to x^j for j = 0..q, S' annihilates the grid
polynomials, so ``D_plus' = D_plus + 1/2 H^{-1} S'`` is again an
operator of the same order with S replaced by S + S'.  Each imaginary
eigenvalue moves right by ``eps_k / 2`` (per unit-H-norm eigenvector) while
every other eigenpair is untouched, and the perturbation size
``||D_plus' - D_plus||`` is set exactly by linear scaling of the eps_k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    InternalInconsistencyError,
    ParameterError,
    RepairImpossibleError,
    ShapeError,
)
from .linalg import DEFAULT_TOLERANCE, check_positive, max_abs
from .operators import SbpOperatorPair, derive_d_minus, solve_against_norm
from .spectral import (
    EigenvalueClass,
    HEigenPair,
    orthogonalize_imaginary,
    spectral_report,
)
from .verify import check_nullspace_consistency

__all__ = [
    "NormChoice",
    "PerturbationPlan",
    "build_s_prime",
    "repair_operator",
    "predicted_shift",
    "matrix_norm",
]

#: Gram-matrix defect above which the input vectors are rejected.
ORTHONORMALITY_TOLERANCE = 1e-8


class NormChoice(enum.Enum):
    FROBENIUS = "frobenius"
    SPECTRAL = "spectral"


def matrix_norm(a: np.ndarray, choice: NormChoice) -> float:
    if choice is NormChoice.FROBENIUS:
        return float(np.linalg.norm(a, "fro"))
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class PerturbationPlan:
    """Everything needed to reproduce one repair.

    ``imaginary_pairs`` holds the 2m real H-orthonormal basis vectors of the
    imaginary invariant subspace, two per conjugate pair (the columns of Q
    in ``S' = H Q E Q^T H``); ``epsilons`` the m positive coefficients;
    ``norm_bound`` the achieved ``||1/2 H^{-1} S'||`` in ``norm_choice``.
    """

    imaginary_pairs: tuple[np.ndarray, ...]
    epsilons: tuple[float, ...]
    s_prime: np.ndarray
    norm_bound: float
    norm_choice: NormChoice

    @property
    def m(self) -> int:
        return len(self.epsilons)

    def is_empty(self) -> bool:
        return self.m == 0

    def to_document(self) -> dict:
        return {
            "m": self.m,
            "epsilons": list(self.epsilons),
            "norm_choice": self.norm_choice.value,
            "norm_bound": self.norm_bound,
            "s_prime": self.s_prime.ravel().tolist(),
        }


def build_s_prime(
    h: np.ndarray,
    ortho_vectors: list[np.ndarray] | tuple[np.ndarray, ...],
    epsilons: list[float] | tuple[float, ...],
) -> np.ndarray:
    """Assemble the dissipation perturbation ``S' = H Q E Q^T H``.

    ``ortho_vectors`` are the 2m real H-orthonormal columns of Q, two per
    eps (one conjugate pair's plane, as :func:`orthogonalize_imaginary`
    returns them); E repeats each eps twice.
    """
    h = np.asarray(h, dtype=float)
    m2 = len(ortho_vectors)
    if m2 == 0:
        if len(epsilons) != 0:
            raise ContractError("epsilons given but no vectors")
        return np.zeros_like(h)
    if m2 % 2 != 0:
        raise ContractError(f"expected two vectors per epsilon (even count), got {m2}")
    m = m2 // 2
    if len(epsilons) != m:
        raise ContractError(f"expected {m} epsilons for {m2} vectors, got {len(epsilons)}")
    eps = np.array([float(e) for e in epsilons])
    if not np.all(eps > 0.0):
        raise ParameterError(f"all epsilons must be positive, got {eps.tolist()}")
    vectors = [np.ravel(np.asarray(v)) for v in ortho_vectors]
    if any(np.iscomplexobj(v) for v in vectors):
        raise ContractError("expected real vectors, got complex ones")
    n = h.shape[0] if h.ndim == 2 else -1
    if h.shape != (n, n) or any(v.size != n for v in vectors):
        raise ShapeError(f"vectors do not match the norm matrix of shape {h.shape}")

    q = np.column_stack(vectors).astype(float)
    u = h @ q
    defect = max_abs(q.T @ u - np.eye(m2))
    if defect > ORTHONORMALITY_TOLERANCE:
        raise ContractError(
            f"input vectors are not H-orthonormal (Gram defect {defect:.3e})"
        )
    return (u * np.repeat(eps, 2)) @ u.T


def predicted_shift(pair: HEigenPair, eps_k: float) -> float:
    """Real part acquired by an imaginary eigenvalue: (eps_k / 2) ||w||_H^2."""
    if pair.classification is not EigenvalueClass.IMAGINARY:
        raise ContractError(
            f"eigenvalue {pair.lam} is classified {pair.classification.value}; "
            "the shift formula applies to imaginary eigenpairs"
        )
    return 0.5 * float(eps_k) * pair.h_norm**2


def _empty_plan(op: SbpOperatorPair, norm_choice: NormChoice) -> PerturbationPlan:
    return PerturbationPlan(
        imaginary_pairs=(),
        epsilons=(),
        s_prime=np.zeros_like(op.h),
        norm_bound=0.0,
        norm_choice=norm_choice,
    )


def repair_operator(
    op: SbpOperatorPair,
    target_eps: float,
    norm_choice: NormChoice = NormChoice.FROBENIUS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[SbpOperatorPair, PerturbationPlan]:
    """Return an operator with the positive-spectrum property and the plan.

    An operator that already has the property is returned unchanged with an
    empty plan, which makes the repair idempotent.  All eps_k are equal:
    built at 1 on unit-H-norm eigenvectors, then scaled linearly so that
    ``||D_plus' - D_plus|| == target_eps`` in the chosen norm.
    """
    check_positive(target_eps, "target_eps")
    diagnostics = check_nullspace_consistency(op, tolerance)
    if not diagnostics.consistent:
        raise RepairImpossibleError(
            "operator is not nullspace consistent (rank "
            f"{diagnostics.rank} of expected {diagnostics.expected_rank}); "
            "a zero eigenvalue cannot be moved by the dissipation construction"
        )
    report = spectral_report(op, tau_eig=tolerance)
    negative = [
        p for p in report.pairs
        if p.classification is EigenvalueClass.NEGATIVE_REAL_PART
    ]
    if negative:
        raise ContractError(
            "penalized matrix has eigenvalues with negative real part "
            f"({[p.lam for p in negative]}); the operator does not satisfy "
            "the dissipation structure and cannot be repaired"
        )
    if report.m == 0:
        return op, _empty_plan(op, norm_choice)

    vectors = orthogonalize_imaginary(report, op.h)
    m = len(vectors) // 2
    unit = build_s_prime(op.h, vectors, [1.0] * m)
    half_unit = 0.5 * solve_against_norm(op.h, unit)
    delta = matrix_norm(half_unit, norm_choice)
    if delta <= 0.0:
        raise InternalInconsistencyError("perturbation with unit weights is zero")
    eps_k = float(target_eps) / delta
    s_prime = eps_k * unit

    half_update = eps_k * half_unit
    d_plus = op.d_plus + half_update
    s_total = op.s + s_prime
    repaired = op.with_fields(
        d_plus=d_plus,
        d_minus=derive_d_minus(d_plus, op.h, s_total),
        s=s_total,
        name=f"{op.name}+dissipation" if op.name else None,
    )
    plan = PerturbationPlan(
        imaginary_pairs=tuple(vectors),
        epsilons=(eps_k,) * m,
        s_prime=s_prime,
        norm_bound=matrix_norm(half_update, norm_choice),
        norm_choice=norm_choice,
    )
    return repaired, plan
