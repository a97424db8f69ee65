"""Small shared numerical helpers."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["DEFAULT_TOLERANCE", "check_positive", "rank_threshold", "svd_rank",
           "max_abs"]

#: Shared default for verification tolerances and spectral classification
#: bands; absolute for residuals, scaled by the Frobenius norm for spectra.
DEFAULT_TOLERANCE = 1e-10

#: Multiplier on (matrix size) * (unit roundoff) * sigma_max used for every
#: rank decision in the package.
RANK_SAFETY = 64.0


def check_positive(value: float, name: str = "tolerance") -> float:
    """``value`` as a float; ``ParameterError`` unless it is positive (nan is not)."""
    if not value > 0.0:
        raise ParameterError(f"{name} must be positive, got {value}")
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
