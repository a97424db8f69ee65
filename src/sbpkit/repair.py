"""Dissipation perturbation that restores the positive-spectrum property.

Given a nullspace consistent operator whose penalized matrix has imaginary
eigenvalues, the symmetric positive semi-definite matrix

    S' = eps H Q Q^T H

is assembled in real arithmetic.  The columns of Q are the ``basis`` of the
unobservable subspace N that :func:`sbpkit.verify.check_eigenvalue_property`
returns, so the repair acts on exactly the values that verdict finds.
Because N is H-orthogonal to x^j for j = 0..q, S' annihilates the grid
polynomials, so ``D_plus' = D_plus + 1/2 H^{-1} S'`` and
``D_minus' = D_minus - 1/2 H^{-1} S'`` are an operator pair of the same
order with S replaced by S + S'.  N and its H-orthogonal complement are
both invariant under the penalized matrix, so each imaginary eigenvalue
moves right by exactly eps/2 while every other eigenpair is untouched.
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
)
from .linalg import DEFAULT_TOLERANCE, check_positive
from .operators import SbpOperatorPair, _read_only
from .verify import check_eigenvalue_property, check_nullspace_consistency

__all__ = [
    "NormChoice",
    "PerturbationPlan",
    "repair_operator",
]


class NormChoice(enum.Enum):
    FROBENIUS = "frobenius"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class PerturbationPlan:
    """Everything needed to reproduce one repair.

    ``epsilons`` holds eps once per imaginary pair, ``s_prime`` the
    perturbation ``S' = eps H Q Q^T H`` and ``norm_bound`` the achieved
    ``||1/2 H^{-1} S'||`` in ``norm_choice``.

    ``s_prime`` is read-only.  :meth:`to_document` holds it as a float64
    array (a read-only view), so the document is written with
    :func:`sbpkit.jsonio.dumps`; ``json.dumps`` does not accept it.
    """

    epsilons: tuple[float, ...]
    s_prime: np.ndarray
    norm_bound: float
    norm_choice: NormChoice

    def __post_init__(self) -> None:
        self.s_prime.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.epsilons)

    def to_document(self) -> dict:
        return {
            "m": self.m,
            "epsilons": list(self.epsilons),
            "norm_choice": self.norm_choice.value,
            "norm_bound": self.norm_bound,
            "s_prime": self.s_prime.ravel(),
        }


def build_s_prime(
    h: np.ndarray, q: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """The dissipation perturbation ``S' = eps U U^T`` and ``U = H Q``.

    The columns of ``q`` are a real H-orthonormal basis, the ``basis`` of
    :func:`sbpkit.verify.check_eigenvalue_property`; none gives ``S' = 0``.
    Nothing is checked: the repair is the one caller.
    """
    u = h @ q
    return (u * eps) @ u.T, u


def repair_operator(
    op: SbpOperatorPair,
    target_eps: float,
    norm_choice: NormChoice = NormChoice.FROBENIUS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[SbpOperatorPair, PerturbationPlan]:
    """Return an operator with the positive-spectrum property and the plan.

    One analysis of D_tilde, by
    :func:`sbpkit.verify.check_eigenvalue_property` on ``op`` alone, serves
    the nullspace verdict and the eigenvalue verdict, which the repair takes
    as it is; D_tilde is built only where the band decides.  Where the
    property holds, ``op`` is returned unchanged with an empty plan, which
    makes the repair idempotent.  Where it fails on the band route, which
    has no basis of N, ``ContractError`` is raised, and
    ``InternalInconsistencyError`` where the basis of N has an odd number of
    columns.  Otherwise S' is built with eps = 1 on the check's basis of N
    (m = dim N / 2 pairs), then scaled linearly so that
    ``||D_plus' - D_plus|| == target_eps`` in the chosen norm, a
    :class:`NormChoice` or its value; the spectral norm is read from the
    2m x 2m core of the update.  A ``target_eps`` whose achieved norm is not
    finite and positive in floating point (inf or 0 from the Frobenius
    norm's squares) raises ``ParameterError``.
    ``D_minus' = D_minus - 1/2 H^{-1} S'``, so an identity ``op`` misses
    stays missed by as much.
    """
    check_positive(target_eps, "target_eps")
    try:
        norm_choice = NormChoice(norm_choice)
    except ValueError:
        raise ParameterError(f"unknown norm choice {norm_choice!r}") from None
    check = check_eigenvalue_property(op, tolerance)
    diagnostics = check_nullspace_consistency(op, check, tolerance)
    if not diagnostics.consistent:
        raise RepairImpossibleError(
            "operator is not nullspace consistent (rank "
            f"{diagnostics.rank} of expected {op.n}); "
            "a zero eigenvalue cannot be moved by the dissipation construction"
        )
    if check.has_property:
        return op, PerturbationPlan(epsilons=(), s_prime=np.zeros_like(op.h),
                                    norm_bound=0.0, norm_choice=norm_choice)
    if check.basis is None:
        raise ContractError(
            "the SBP identity does not hold to rounding and the penalized "
            "matrix has eigenvalues with zero or negative real part "
            f"({list(check.offending)}); the operator cannot be repaired"
        )
    if check.basis.shape[1] % 2:
        raise InternalInconsistencyError(
            f"the basis of N has an odd number of columns ({check.basis.shape[1]}), "
            "which cannot span whole conjugate pairs"
        )

    unit, u = build_s_prime(op.h, check.basis, 1.0)
    half_unit = 0.5 * check.basis @ u.T
    if norm_choice is NormChoice.FROBENIUS:
        delta = float(np.linalg.norm(half_unit, "fro"))
    else:
        # Q (H Q)^T = Q1 (R1 R2^T) Q2^T from thin QRs of Q and H Q, so its
        # spectral norm is that of the 2m x 2m core R1 R2^T.
        core = np.linalg.qr(check.basis, "r") @ np.linalg.qr(u, "r").T
        delta = 0.5 * float(np.linalg.norm(core, 2))
    if delta <= 0.0:
        raise InternalInconsistencyError("perturbation with unit weights is zero")
    with np.errstate(all="ignore"):
        eps_k = float(target_eps) / delta
        s_prime = eps_k * unit
        half_update = eps_k * half_unit
        if norm_choice is NormChoice.FROBENIUS:
            norm_bound = float(np.linalg.norm(half_update, "fro"))
        else:
            norm_bound = eps_k * delta
    if not 0.0 < norm_bound < np.inf:
        raise ParameterError(
            f"target_eps {target_eps!r} gives ||D_plus' - D_plus|| = {norm_bound} in the "
            f"{norm_choice.value} norm, which is not finite and positive")
    repaired = op.with_fields(
        d_plus=_read_only(op.d_plus + half_update),
        d_minus=_read_only(op.d_minus - half_update),
        s=_read_only(op.s + s_prime),
        name=f"{op.name}+dissipation" if op.name else None,
    )
    plan = PerturbationPlan(
        epsilons=(eps_k,) * (check.basis.shape[1] // 2),
        s_prime=s_prime,
        norm_bound=norm_bound,
        norm_choice=norm_choice,
    )
    return repaired, plan
