"""Spectrum of the penalized matrix and its structure in the H geometry.

The penalized matrix ``D_tilde = D_plus + H^{-1} p0 p0^T`` governs
solvability of the boundary-penalized derivative problem.  For a conforming
operator its eigenvalues all have nonnegative real part; the ones with zero
real part come in conjugate pairs whose eigenvectors

* are annihilated by the boundary projections and by S,
* are H-orthogonal to ``x^j`` for j = 0..q and to every eigenvector of a
  different eigenvalue, and
* span complete eigenspaces (algebraic multiplicity = geometric).

All inner products here are ``<f, g> = f* H g``; Euclidean orthogonality has
no meaning for these operators and is never asserted.

:func:`analyze` builds and decomposes the penalized matrix once; verify,
:func:`spectral_report`, the repair and the certification all read its
classified eigenpairs, so they decide from the same eigenvalues and band.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DecompositionError,
    DegenerateEigenspaceError,
    InternalInconsistencyError,
    PairingError,
    ShapeError,
)
from .linalg import (DEFAULT_TOLERANCE, check_positive, legendre_basis, max_abs,
                     rank_threshold, relative_residual)
from .operators import SbpOperatorPair, solve_against_norm

__all__ = [
    "Analysis",
    "EigenvalueClass",
    "HEigenPair",
    "SpectralReport",
    "analyze",
    "build_d_tilde",
    "eigen_decompose",
    "classify_and_pair",
    "spectral_report",
    "h_inner",
    "orthogonalize_imaginary",
    "eigenspace_basis",
]

#: Eigenvalues closer than this (times the Frobenius norm of the matrix) are
#: treated as one eigenvalue for multiplicity and eigenspace purposes.
CLUSTER_FACTOR = 1e-8

#: Cholesky pivot, relative to the H-norm of its column (the sine of its
#: H-angle to the columns before it), below which the stacked imaginary
#: eigenvectors are rank deficient.  A pivot p leaves an H-orthonormality
#: defect near eps / p^2, and pivots below sqrt(eps) are not resolved at all.
DEGENERACY_FLOOR = 1e-3

#: H-skewness of the penalized matrix on its imaginary subspace is asserted,
#: not enforced, to this relative level.
ORTHOGONALITY_ASSERT = 1e-8


class EigenvalueClass(enum.Enum):
    POSITIVE_REAL_PART = "positive_real_part"
    IMAGINARY = "imaginary"
    NEGATIVE_REAL_PART = "negative_real_part"


@dataclass(frozen=True)
class HEigenPair:
    """One eigenvalue of the penalized matrix with its eigenvector.

    ``classification`` follows the band |Re| <= tau * scale around the
    imaginary axis; ``h_norm`` is the H-norm of the eigenvector.
    """

    lam: complex
    w: np.ndarray
    classification: EigenvalueClass
    h_norm: float


@dataclass(frozen=True)
class SpectralReport:
    """Classified spectrum of the penalized matrix of one operator.

    ``pairs`` is sorted by (Re, Im); imaginary eigenvalues appear as exact
    conjugate pairs (the negative-imaginary member is synthesized from its
    partner).  ``m`` counts the conjugate pairs.  The residual tables are
    aligned with :meth:`imaginary`, i.e. one row per imaginary member:
    ``boundary_residuals`` holds (|p0.w|, |pn.w|, max|S w|) and
    ``moment_residuals`` holds the relative moments
    ``|<P_k, w>_H| / (||P_k||_H ||w||_H)`` for k = 0..q, with P_k the
    Legendre polynomials mapped to the interval (which span the same space
    as x^j); all of them vanish for a conforming operator.
    """

    d_tilde: np.ndarray
    pairs: tuple[HEigenPair, ...]
    m: int
    boundary_residuals: tuple[tuple[float, float, float], ...]
    moment_residuals: tuple[tuple[float, ...], ...]
    tau_eig: float

    def imaginary(self) -> tuple[HEigenPair, ...]:
        return tuple(
            p for p in self.pairs if p.classification is EigenvalueClass.IMAGINARY
        )

    def to_document(self) -> dict:
        interleaved = []
        for p in self.pairs:
            flat = np.empty(2 * p.w.size)
            flat[0::2] = p.w.real
            flat[1::2] = p.w.imag
            interleaved.append(flat.tolist())
        return {
            "m": self.m,
            "tau_eig": self.tau_eig,
            "eigenvalues": [[p.lam.real, p.lam.imag] for p in self.pairs],
            "classifications": [p.classification.value for p in self.pairs],
            "h_norms": [p.h_norm for p in self.pairs],
            "eigenvectors": interleaved,
            "boundary_residuals": [list(r) for r in self.boundary_residuals],
            "moment_residuals": [list(r) for r in self.moment_residuals],
            "d_tilde": self.d_tilde.ravel().tolist(),
        }


@dataclass(frozen=True)
class Analysis:
    """One decomposition of the penalized matrix of one operator.

    ``d_tilde`` is built once and ``pairs`` come from one
    :func:`eigen_decompose` call: sorted by (Re, Im) and classified by the
    band |Re| <= tolerance * scale, where ``scale`` is the Frobenius norm of
    ``d_tilde``.  The pairs are not conjugate-paired.
    """

    op: SbpOperatorPair
    tolerance: float
    d_tilde: np.ndarray
    scale: float
    pairs: tuple[HEigenPair, ...]


def build_d_tilde(op: SbpOperatorPair) -> np.ndarray:
    """Assemble ``D_plus + H^{-1} p0 p0^T`` (rank-1 term via a solve)."""
    return op.d_plus + np.outer(solve_against_norm(op.h, op.p0), op.p0)


def h_inner(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> complex:
    """The inner product ``f* H g`` (conjugate-transpose on the left)."""
    f = np.ravel(np.asarray(f))
    g = np.ravel(np.asarray(g))
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"norm matrix must be square, got shape {h.shape}")
    if f.size != g.size or f.size != h.shape[0]:
        raise ShapeError(
            f"length mismatch: f has {f.size}, g has {g.size}, H is {h.shape[0]}"
        )
    return complex(np.conj(f) @ (h @ g))


def _classify(lam: complex, tau_eig: float, scale: float) -> EigenvalueClass:
    band = tau_eig * scale
    if lam.real > band:
        return EigenvalueClass.POSITIVE_REAL_PART
    if lam.real < -band:
        return EigenvalueClass.NEGATIVE_REAL_PART
    return EigenvalueClass.IMAGINARY


def eigenspace_basis(a: np.ndarray, lam: complex) -> list[np.ndarray]:
    """Orthonormal (Euclidean) basis of ker(A - lam I) from an SVD.

    More reliable than raw eigensolver output for clustered eigenvalues;
    the rank cut uses the package-wide singular value threshold.
    """
    a = np.asarray(a)
    m = a.shape[0]
    shifted = a.astype(complex) - complex(lam) * np.eye(m)
    try:
        _, sv, vh = np.linalg.svd(shifted)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"singular value iteration failed: {exc}") from exc
    thresh = rank_threshold(float(sv[0]), m)
    g = int(np.count_nonzero(sv <= thresh))
    return [np.conj(vh[k]) for k in range(m - g, m)]


def eigen_decompose(
    a: np.ndarray,
    h: np.ndarray | None = None,
    tau_eig: float = DEFAULT_TOLERANCE,
) -> tuple[HEigenPair, ...]:
    """Full eigendecomposition, sorted by (Re, Im).

    Eigenvalues within ``CLUSTER_FACTOR * ||A||_F`` of each other are treated
    as one: their eigenvectors are recomputed as an SVD nullspace basis of
    the shifted matrix, so repeated eigenvalues yield linearly independent
    vectors.  ``h`` (identity when omitted) only feeds the stored H-norms.
    """
    tau_eig = check_positive(tau_eig, "tau_eig")
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ContractError("expected a real matrix")
    a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    h = np.eye(m) if h is None else np.asarray(h, dtype=float)
    if h.shape != (m, m):
        raise ShapeError(
            f"norm matrix of shape {h.shape} does not match the {m}x{m} matrix"
        )
    try:
        lam, vec = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    vectors = [vec[:, k] for k in order]

    scale = float(np.linalg.norm(a, "fro"))
    ctol = CLUSTER_FACTOR * scale
    clusters: list[list[int]] = [[0]]
    for k in range(1, m):
        if abs(lam[k] - lam[k - 1]) <= ctol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        rep = complex(np.mean(lam[cluster]))
        basis = eigenspace_basis(a, rep)
        if len(basis) >= len(cluster):
            for member, vector in zip(cluster, basis):
                vectors[member] = vector
        # Defective cluster: fewer independent directions than roots; keep
        # the raw eigensolver vectors rather than inventing a basis.

    # All H-norms from one real product, one eigenvector per row: each sum
    # then runs along the contiguous axis, which numpy adds pairwise (a
    # column sum drifts by a few ulp from the per-vector w* H w).
    w = np.array(vectors)
    re, im = w.real, w.imag
    squares = np.sum(re * (re @ h.T) + im * (im @ h.T), axis=1)
    h_norms = np.sqrt(np.maximum(squares, 0.0))
    return tuple(
        HEigenPair(
            lam=complex(lam[k]),
            w=vectors[k],
            classification=_classify(complex(lam[k]), tau_eig, scale),
            h_norm=float(h_norms[k]),
        )
        for k in range(m)
    )


def classify_and_pair(
    pairs: tuple[HEigenPair, ...] | list[HEigenPair],
    scale: float,
) -> tuple[tuple[HEigenPair, ...], int]:
    """Enforce conjugate structure on pairs classified by :func:`eigen_decompose`.

    Each imaginary eigenvalue with positive imaginary part is matched to the
    closest candidate near its conjugate; the partner is then synthesized as
    the exact conjugate, which guarantees the even-count property.  ``scale``
    (the Frobenius norm of the matrix) sets the matching tolerance.  Returns
    the reordered pairs and the number m of conjugate pairs.
    """
    imaginary = [p for p in pairs if p.classification is EigenvalueClass.IMAGINARY]
    if len(imaginary) % 2 == 1:
        raise PairingError(
            f"odd number ({len(imaginary)}) of imaginary eigenvalues; "
            "conjugate pairing is impossible"
        )
    plus = sorted(
        (p for p in imaginary if p.lam.imag > 0),
        key=lambda p: (p.lam.real, p.lam.imag),
    )
    pool = [p for p in imaginary if p.lam.imag <= 0]
    match_tol = max(CLUSTER_FACTOR * scale, np.finfo(float).tiny)
    kept: list[HEigenPair] = [
        p for p in pairs if p.classification is not EigenvalueClass.IMAGINARY
    ]
    m = 0
    for p in plus:
        if not pool:
            raise PairingError(
                f"imaginary eigenvalue {p.lam} has no conjugate partner"
            )
        dist = [abs(c.lam - np.conj(p.lam)) for c in pool]
        k = int(np.argmin(dist))
        if dist[k] > match_tol:
            raise PairingError(
                f"imaginary eigenvalue {p.lam} has no conjugate partner within "
                f"{match_tol:.3e} (closest at distance {dist[k]:.3e})"
            )
        pool.pop(k)
        kept.append(p)
        kept.append(
            HEigenPair(
                lam=np.conj(p.lam).item(),
                w=np.conj(p.w),
                classification=EigenvalueClass.IMAGINARY,
                h_norm=p.h_norm,
            )
        )
        m += 1
    if pool:
        raise PairingError(
            "unmatched imaginary eigenvalues remain (a zero eigenvalue cannot "
            f"be conjugate-paired): {[c.lam for c in pool]}"
        )
    kept.sort(key=lambda p: (p.lam.real, p.lam.imag))
    return tuple(kept), m


def analyze(op: SbpOperatorPair, tolerance: float = DEFAULT_TOLERANCE) -> Analysis:
    """Build the penalized matrix of ``op`` once and decompose it once."""
    tolerance = check_positive(tolerance)
    d_tilde = build_d_tilde(op)
    return Analysis(
        op=op,
        tolerance=tolerance,
        d_tilde=d_tilde,
        scale=float(np.linalg.norm(d_tilde, "fro")),
        pairs=eigen_decompose(d_tilde, h=op.h, tau_eig=tolerance),
    )


def spectral_report(
    op: SbpOperatorPair, tau_eig: float = DEFAULT_TOLERANCE
) -> SpectralReport:
    """Decompose, classify and probe the penalized matrix of an operator."""
    analysis = analyze(op, tau_eig)
    pairs, m = classify_and_pair(analysis.pairs, analysis.scale)
    imaginary = [
        p for p in pairs if p.classification is EigenvalueClass.IMAGINARY
    ]
    # <P_k, w>_H for every degree and imaginary member from one product V^T H W.
    v, _ = legendre_basis(op.x, op.interval, op.q)
    vh = v.T @ op.h
    p_norms = np.sqrt(np.maximum(np.sum(vh * v.T, axis=1), 0.0))
    w = np.array([p.w for p in imaginary], dtype=complex).reshape(-1, op.n + 1)
    moments = relative_residual(
        w @ vh.T, np.outer([p.h_norm for p in imaginary], p_norms)
    )
    return SpectralReport(
        d_tilde=analysis.d_tilde,
        pairs=pairs,
        m=m,
        boundary_residuals=tuple(
            (abs(complex(op.p0 @ p.w)), abs(complex(op.pn @ p.w)), max_abs(op.s @ p.w))
            for p in imaginary
        ),
        moment_residuals=tuple(tuple(map(float, row)) for row in moments),
        tau_eig=analysis.tolerance,
    )


def orthogonalize_imaginary(
    source: SpectralReport | tuple[HEigenPair, ...] | list[HEigenPair],
    h: np.ndarray,
) -> list[np.ndarray]:
    """Real H-orthonormal basis of the imaginary invariant subspace.

    The eigenvectors w_k of the imaginary eigenvalues with positive imaginary
    part, sorted by (Re, Im), are stacked as
    ``X = [Re w_1, Im w_1, ..., Re w_m, Im w_m]``; with the Cholesky factor
    ``L L^T = X^T H X`` the 2m columns of ``Q = X L^-T`` are H-orthonormal
    and span the same real subspace as the w_k and their conjugates.  On it
    the penalized matrix acts as ``M = L^T A L^-T``, where A is block
    diagonal with ``[[a, b], [-b, a]]`` for each ``lambda_k = a + ib``; a
    conforming operator is H-skew there, which is asserted as ``M + M^T = 0``
    (it fails whenever eigenvectors of distinct eigenvalues are not
    H-orthogonal).  Returns the columns of Q.
    """
    pairs = source.pairs if isinstance(source, SpectralReport) else tuple(source)
    plus = sorted(
        (
            p
            for p in pairs
            if p.classification is EigenvalueClass.IMAGINARY and p.lam.imag > 0
        ),
        key=lambda p: (p.lam.real, p.lam.imag),
    )
    if not plus:
        raise ContractError("no imaginary eigenpairs to orthogonalize")
    h = np.asarray(h, dtype=float)
    n = h.shape[0] if h.ndim == 2 else -1
    if h.shape != (n, n) or any(np.shape(p.w) != (n,) for p in plus):
        raise ShapeError(f"eigenvectors do not match the norm matrix of shape {h.shape}")

    x = np.column_stack([part(p.w) for p in plus for part in (np.real, np.imag)])
    gram = x.T @ (h @ x)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateEigenspaceError(
            f"imaginary eigenvectors are linearly dependent in the H geometry: {exc}"
        ) from exc
    pivots = np.diagonal(lower) / np.sqrt(np.diagonal(gram))
    k = int(np.argmin(pivots))
    if not pivots[k] >= DEGENERACY_FLOOR:
        raise DegenerateEigenspaceError(
            f"eigenspace of {plus[k // 2].lam} lost rank during orthogonalization "
            f"(relative Cholesky pivot {pivots[k]:.3e})"
        )

    lam = np.array([p.lam for p in plus])
    a = np.kron(np.diag(lam.real), np.eye(2)) + np.kron(
        np.diag(lam.imag), [[0.0, 1.0], [-1.0, 0.0]]
    )
    # One solve gives Q^T = L^-1 X^T and M^T = L^-1 A^T L together.
    solved = np.linalg.solve(lower, np.hstack([x.T, a.T @ lower]))
    q_t, m_t = solved[:, :n], solved[:, n:]
    defect = max_abs(m_t + m_t.T)
    if defect > ORTHOGONALITY_ASSERT * max(1.0, max_abs(m_t)):
        raise InternalInconsistencyError(
            "the penalized matrix is not H-skew on its imaginary eigenvectors "
            f"(defect {defect:.3e}); eigenvectors of distinct eigenvalues are "
            "not H-orthogonal and the operator is not conforming"
        )
    return list(q_t)
