"""Reference constructions that the tests compare sbpkit against."""

import numpy as np


def vandermonde_d(nodes) -> np.ndarray:
    """Differentiation matrix by the literal row-wise Vandermonde solve.

    Exponentially ill-conditioned as n grows; the small-n oracle for
    ``build_pseudospectral_d``.
    """
    nodes = np.ravel(np.asarray(nodes, dtype=float))
    m = nodes.size
    vt = np.vander(nodes, m, increasing=True).T
    rhs = np.zeros((m, m))
    for k in range(1, m):
        rhs[k] = k * nodes ** (k - 1)
    return np.linalg.solve(vt, rhs).T


def h_norm(f, h) -> float:
    """The norm ``sqrt(f* H f)`` of a real or complex grid vector."""
    f = np.asarray(f)
    return float(np.sqrt(np.real(np.conj(f) @ (np.asarray(h) @ f))))
