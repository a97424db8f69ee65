"""Reference constructions that the tests compare sbpkit against, and the
memory measure its budgets are stated in."""

import json
import tracemalloc

import numpy as np

from sbpkit.errors import ParameterError
from sbpkit.linalg import legendre_basis, max_abs
from sbpkit.operators import Interval, build_classical_fd, solve_against_norm
from sbpkit.sat import FlowDirection, SatProblem, solve


#: Bytes of one 513 x 513 float64 array, the unit of the memory budgets.
N2_BYTES = 513 * 513 * 8


def peak_n2(fn) -> float:
    """Peak traced allocation while ``fn()`` runs, in 513 x 513 float64
    arrays; memory LAPACK allocates for itself is not traced."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / N2_BYTES
    finally:
        tracemalloc.stop()


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


def loop_pseudospectral_d(nodes) -> np.ndarray:
    """Differentiation matrix from the barycentric weights, entry by entry.

    The reference for the array expressions of ``build_pseudospectral_d``:
    off-diagonal ``(beta_j / beta_i) / (x_i - x_j)``, diagonal the negated
    row sum.
    """
    from sbpkit.pseudospectral import _barycentric_weights, _check_nodes

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


def planted_kernel_fd(n: int = 16):
    """Classical FD on [0, 1] with a second kernel vector w planted: ``(op, w)``.

    ``D' = D - H^{-1}(a b^T - b a^T)`` with ``a = H D w`` changes ``H D`` by
    a skew matrix, so both SBP identities keep holding, and ``D' w = 0``
    because ``w^T H D w = 0`` for ``w_0 = w_n = 0``.  With ``w`` H-orthogonal
    to 1 and ``b`` orthogonal to 1 and x, ``D'`` stays exact for 1 and x.
    Here ``w = e_1 - e_(n-1)`` and ``b = e_1 - 2 e_2 + e_3`` (``b.w = 1``): for
    n a power of two every entry is dyadic and every identity holds exactly.
    ``D_tilde w = 0`` with w unobservable, so the operator passes every
    residual and the Hautus test, yet is not nullspace consistent.
    """
    op = build_classical_fd(n, Interval(0.0, 1.0))
    eye = np.eye(n + 1)
    w = eye[1] - eye[n - 1]
    b = eye[1] - 2.0 * eye[2] + eye[3]
    a = op.h @ (op.d_plus @ w)
    d = op.d_plus - solve_against_norm(op.h, np.outer(a, b) - np.outer(b, a))
    return op.with_fields(d_plus=d, d_minus=d, name=f"planted_kernel_fd_{n}"), w


def polynomial_exactness_check(op, degree=None, trials=20, seed=1902) -> float:
    """Max relative error when reproducing random polynomials by the solve.

    Random polynomials p of the given degree (default: the operator's order
    q), with coefficients uniform in [-1, 1] in the mapped Legendre basis,
    are pushed through the forward solve with f = p' and u0 = p(a); for
    degree <= q the result must match p at the nodes to roundoff.  Assumes
    the operator verifies; errors from a singular system propagate.
    """
    if degree is None:
        degree = op.q
    if degree < 0:
        raise ParameterError(f"degree must be >= 0, got {degree}")
    v, dv = legendre_basis(op.x, op.interval, degree)
    start, _ = legendre_basis(np.array([op.interval.a]), op.interval, degree)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        exact = v @ coeffs
        problem = SatProblem(
            f_samples=dv @ coeffs,
            u0=float(start[0] @ coeffs),
            direction=FlowDirection.FORWARD,
        )
        u = solve(op, problem)
        scale = max(1.0, max_abs(exact))
        worst = max(worst, max_abs(u - exact) / scale)
    return worst


def h_norm(f, h) -> float:
    """The norm ``sqrt(f* H f)`` of a real or complex grid vector."""
    f = np.asarray(f)
    return float(np.sqrt(np.real(np.conj(f) @ (np.asarray(h) @ f))))


def eigenspace_basis(a, lam) -> list:
    """Orthonormal (Euclidean) basis of ker(A - lam I) from an SVD.

    The multiplicity oracle: the number of vectors is the geometric
    multiplicity of ``lam``, decided at the package rank threshold.
    """
    from sbpkit.linalg import rank_threshold

    a = np.asarray(a)
    m = a.shape[0]
    _, sv, vh = np.linalg.svd(a.astype(complex) - complex(lam) * np.eye(m))
    g = int(np.count_nonzero(sv <= rank_threshold(float(sv[0]), m)))
    return [np.conj(vh[k]) for k in range(m - g, m)]


def reference_dumps(obj, level=0) -> str:
    """The document format, element by element with ``format(v, ".17g")``.

    The oracle for ``jsonio.dumps``, which formats flat float lists in numpy
    chunks instead.  An array is written as its ``tolist()``.
    """
    pad, inner = "  " * level, "  " * (level + 1)
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {reference_dumps(v, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, bool, np.generic)) for v in obj):
            return "[" + ", ".join(reference_dumps(v) for v in obj) + "]"
        items = [inner + reference_dumps(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    return json.dumps(obj)
