"""Boundary-penalized solves of the model problem u' = f, u(a) = u0.

The forward discretization is ``D_plus u = f + sigma H^{-1} p0 (u0 - p0.u)``
with sigma = 1; collecting the solution terms on the left gives the
penalized matrix ``D_plus + H^{-1} p0 p0^T``.  Reversed flow uses D_minus,
imposes the datum at b through pn, and takes sigma = -1; the same collection
yields ``D_minus + sigma H^{-1} pn pn^T``.  :func:`assemble` returns that
system as ``(matrix, rhs)``; :func:`solve` assembles it, solves it and checks
the residual.  The reversed assembly is validated by the mirror-symmetry
property: reflecting the data reflects the solution.

Also provides grid-refinement convergence studies in the discrete H norm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, SingularSystemError
from .linalg import max_abs
from .operators import SbpOperatorPair, _real, solve_against_norm

__all__ = [
    "FlowDirection",
    "SatProblem",
    "assemble",
    "solve",
    "ConvergenceStudy",
    "convergence_study",
]

#: Relative residual bound every successful solve must satisfy.
SOLVE_RESIDUAL_BOUND = 1e-12

#: H-norm errors below this (times the solution scale) are roundoff, not
#: discretization error; convergence orders are then meaningless.
SATURATION_FLOOR = 1e-13


class FlowDirection(enum.Enum):
    FORWARD = "forward"
    REVERSED = "reversed"


@dataclass(frozen=True)
class SatProblem:
    """Right-hand side samples, boundary datum and flow direction.

    The penalty parameter is tied to the direction: sigma = 1 for forward
    flow (datum at a), sigma = -1 for reversed flow (datum at b).  The
    samples and the datum must be finite integers or floats, and the
    direction a :class:`FlowDirection` or its value (else ``ParameterError``).
    """

    f_samples: np.ndarray
    u0: float
    direction: FlowDirection = FlowDirection.FORWARD

    def __post_init__(self) -> None:
        try:
            samples = np.ravel(self.f_samples)
        except ValueError:  # a ragged sequence has no shape
            raise ParameterError(
                f"f_samples must be real numbers, got {self.f_samples!r}") from None
        if samples.dtype.kind not in "iuf":
            raise ParameterError(
                f"f_samples must be real numbers, got an array of dtype {samples.dtype}")
        samples = samples.astype(float)
        u0 = _real(self.u0, "u0", ParameterError)
        if not np.isfinite(samples).all():
            raise ParameterError("f_samples must be finite")
        if not np.isfinite(u0):
            raise ParameterError(f"u0 must be finite, got {u0}")
        try:
            direction = FlowDirection(self.direction)
        except ValueError:
            raise ParameterError(f"unknown flow direction {self.direction!r}") from None
        samples.flags.writeable = False
        object.__setattr__(self, "f_samples", samples)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "direction", direction)

    @property
    def sigma(self) -> float:
        return 1.0 if self.direction is FlowDirection.FORWARD else -1.0


def assemble(op: SbpOperatorPair, problem: SatProblem) -> tuple[np.ndarray, np.ndarray]:
    """Collect the solution-dependent penalty terms: ``(matrix, rhs)``."""
    m = op.n + 1
    if problem.f_samples.size != m:
        raise ShapeError(
            f"f has {problem.f_samples.size} samples, operator has {m} nodes"
        )
    sigma = problem.sigma
    if problem.direction is FlowDirection.FORWARD:
        d, boundary = op.d_plus, op.p0
    else:
        d, boundary = op.d_minus, op.pn
    penalty = solve_against_norm(op.h, boundary)
    # The one array of the system's size.  sigma is +-1, so scaling the
    # penalty first is exact, and adding d last gives d + sigma * outer's bits.
    matrix = np.outer(sigma * penalty, boundary)
    matrix += d
    return matrix, problem.f_samples + sigma * penalty * problem.u0


def solve(op: SbpOperatorPair, problem: SatProblem) -> np.ndarray:
    """Assemble, solve by dense LU with partial pivoting and verify the
    residual; ``SingularSystemError`` if the system is (numerically) singular."""
    a, rhs = assemble(op, problem)
    ref = op.name if op.name else f"operator(n={op.n}, q={op.q})"
    try:
        u = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"system for {ref} is singular (the operator is not "
            f"nullspace consistent): {exc}"
        ) from exc
    residual = float(np.linalg.norm(a @ u - rhs))
    bound = SOLVE_RESIDUAL_BOUND * (
        float(np.linalg.norm(a, "fro")) * float(np.linalg.norm(u))
        + float(np.linalg.norm(rhs))
    )
    if not residual <= bound:
        raise SingularSystemError(
            f"system for {ref} is numerically singular: residual "
            f"{residual:.3e} exceeds {bound:.3e}"
        )
    return u


@dataclass(frozen=True)
class ConvergenceStudy:
    """Errors and observed orders over a sequence of resolutions.

    ``fitted_order`` is the least-squares slope of log(error) against
    log(spacing) over all grids; ``pairwise_orders`` are the per-step
    diagnostics.  ``saturated`` flags error levels at roundoff, where the
    orders stop meaning anything.
    """

    ns: tuple[int, ...]
    spacings: tuple[float, ...]
    errors_h: tuple[float, ...]
    errors_max: tuple[float, ...]
    pairwise_orders: tuple[float, ...]
    fitted_order: float
    saturated: bool

    def to_document(self) -> dict:
        return {
            "ns": list(self.ns),
            "spacings": list(self.spacings),
            "errors_h": list(self.errors_h),
            "errors_max": list(self.errors_max),
            "pairwise_orders": list(self.pairwise_orders),
            "fitted_order": self.fitted_order,
            "saturated": self.saturated,
        }


def convergence_study(
    build: Callable[[int], SbpOperatorPair],
    f: Callable[[np.ndarray], np.ndarray],
    exact_u: Callable[[np.ndarray], np.ndarray],
    ns: Sequence[int],
) -> ConvergenceStudy:
    """Forward solves across resolutions with H-norm error measurement."""
    ns = [int(n) for n in ns]
    if len(ns) < 3:
        raise ParameterError(
            f"a convergence study needs at least 3 resolutions, got {len(ns)}"
        )
    if sorted(set(ns)) != ns:
        raise ParameterError("resolutions must be strictly increasing")
    spacings: list[float] = []
    errors_h: list[float] = []
    errors_max: list[float] = []
    solution_scale = 1.0
    for n in ns:
        op = build(n)
        exact = np.asarray(exact_u(op.x), dtype=float)
        problem = SatProblem(
            f_samples=np.asarray(f(op.x), dtype=float),
            u0=float(exact_u(op.interval.a)),
        )
        u = solve(op, problem)
        err = u - exact
        spacings.append(op.interval.length / n)
        errors_h.append(float(np.sqrt(max(err @ (op.h @ err), 0.0))))
        errors_max.append(max_abs(err))
        solution_scale = max(solution_scale, max_abs(exact))

    floor = SATURATION_FLOOR * solution_scale
    saturated = all(e <= floor for e in errors_h)
    safe = [max(e, np.finfo(float).tiny) for e in errors_h]
    pairwise = tuple(
        float(np.log(safe[k] / safe[k + 1]) / np.log(ns[k + 1] / ns[k]))
        for k in range(len(ns) - 1)
    )
    slope, _ = np.polyfit(np.log(spacings), np.log(safe), 1)
    return ConvergenceStudy(
        ns=tuple(ns),
        spacings=tuple(spacings),
        errors_h=tuple(errors_h),
        errors_max=tuple(errors_max),
        pairwise_orders=pairwise,
        fitted_order=float(slope),
        saturated=saturated,
    )
