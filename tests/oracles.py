"""Reference constructions that the tests compare sbpkit against."""

import json

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


def reference_dumps(obj, indent=2, level=0) -> str:
    """The document format, element by element with ``format(v, ".17g")``.

    The oracle for ``jsonio.dumps``, which formats flat float lists in numpy
    chunks instead.  An array is written as its ``tolist()``.
    """
    pad, inner = " " * indent * level, " " * indent * (level + 1)
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {reference_dumps(v, indent, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, bool, np.generic)) for v in obj):
            return "[" + ", ".join(reference_dumps(v) for v in obj) + "]"
        items = [inner + reference_dumps(v, indent, level + 1) for v in obj]
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
