"""Small shared numerical helpers, and the package's one polynomial basis."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .operators import Interval

__all__ = ["DEFAULT_TOLERANCE", "check_positive", "rank_threshold", "svd_rank",
           "max_abs", "legendre_basis", "relative_residual"]

#: Shared default for verification tolerances and spectral classification
#: bands.  Polynomial conditions (accuracy, ``S P_k = 0``) are relative
#: residuals in the mapped Legendre basis, ``|A V - T| / (|A||V| + |T|)``;
#: identity and symmetry residuals are absolute; moment residuals are
#: ``|<P_k, w>_H| / (||P_k||_H ||w||_H)``; spectral decisions are scaled by
#: the Frobenius norm.
DEFAULT_TOLERANCE = 1e-10

#: Multiplier on (matrix size) * (unit roundoff) * sigma_max used for every
#: rank decision in the package.
RANK_SAFETY = 64.0


def check_positive(value: float, name: str = "tolerance") -> float:
    """``value`` as a float; ``ParameterError`` unless it is finite and
    positive (nan and inf are not)."""
    if not 0.0 < value < np.inf:
        raise ParameterError(f"{name} must be finite and positive, got {value}")
    return float(value)


def rank_threshold(sigma_max: float, size: int) -> float:
    """Singular values at or below this are treated as zero."""
    return float(float(sigma_max) * size * np.finfo(float).eps * RANK_SAFETY)


def svd_rank(a: np.ndarray) -> tuple[int, np.ndarray]:
    """Numerical rank and the singular values it was decided from."""
    sv = np.linalg.svd(np.asarray(a), compute_uv=False)
    if sv.size == 0:
        return 0, sv
    thresh = rank_threshold(sv[0], max(a.shape))
    return int(np.count_nonzero(sv > thresh)), sv


def max_abs(a: np.ndarray) -> float:
    """Max-norm of an array (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def legendre_basis(
    x: np.ndarray, interval: Interval, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Values ``P_k(t)`` and x-derivatives ``P_k'(t) / r`` of the Legendre
    polynomials k = 0..degree at ``t = (x - c) / r``, with c the midpoint and
    r the half-length of the interval, from one three-term recurrence.

    Every polynomial condition, moment and quadrature solve uses this basis.
    """
    c = 0.5 * (interval.a + interval.b)
    r = 0.5 * interval.length
    t = (np.asarray(x, dtype=float) - c) / r
    v = np.zeros((t.size, degree + 1))
    dv = np.zeros_like(v)
    v[:, 0] = 1.0
    if degree >= 1:
        v[:, 1] = t
        dv[:, 1] = 1.0
    for k in range(2, degree + 1):
        v[:, k] = ((2 * k - 1) * t * v[:, k - 1] - (k - 1) * v[:, k - 2]) / k
        dv[:, k] = dv[:, k - 2] + (2 * k - 1) * v[:, k - 1]
    return v, dv / r


def relative_residual(defect: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``|defect| / size`` entrywise with 0/0 = 0, where ``size`` is the size
    of the terms compared (it bounds the defect)."""
    size = np.asarray(size, dtype=float)
    return np.abs(defect) / np.where(size > 0.0, size, 1.0)
