"""Spectrum of the penalized matrix and its structure in the H geometry.

The penalized matrix ``D_tilde = D_plus + H^{-1} p0 p0^T`` governs
solvability of the boundary-penalized derivative problem.  The SBP
identities give the energy identity

    2 Re(lambda) ||w||_H^2 = |p0.w|^2 + |pn.w|^2 + w* S w

for every eigenpair, so for a conforming operator all eigenvalues have
nonnegative real part, and the ones with zero real part are exactly those
whose eigenvectors are annihilated by ``C = [p0^T; pn^T; S]``.  Their
invariant subspace is the unobservable subspace N of ``(C, D_tilde)``, the
largest D_tilde-invariant subspace inside ker C; it is H-orthogonal to
``x^j`` for j = 0..q and to every other eigenvector.

All inner products here are ``<f, g> = f* H g``; Euclidean orthogonality has
no meaning for these operators and is never asserted.

:func:`analyze` builds and decomposes the penalized matrix once; verify,
:func:`spectral_report`, the repair and the certification all read its
classified eigenpairs, so they decide from the same eigenvalues and band.
The repair's basis of N (:func:`orthogonalize_imaginary`) uses no
eigenvector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DecompositionError, ShapeError
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
    "spectral_report",
    "h_inner",
    "orthogonalize_imaginary",
]


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

    ``pairs`` holds the eigenpairs of the analysis as LAPACK returns them,
    sorted by (Re, Im); for a real matrix its complex eigenvalues and
    eigenvectors come in exact conjugate pairs, and nothing is synthesized.
    ``m`` counts the imaginary eigenvalues with positive imaginary part, so
    a zero eigenvalue (of an operator that is not nullspace consistent) is
    classified imaginary but not counted.  The residual tables are
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
        # Each row of the complex array, viewed as doubles, is Re w_0, Im w_0, ...
        interleaved = np.array([p.w for p in self.pairs], dtype=complex).view(float)
        return {
            "m": self.m,
            "tau_eig": self.tau_eig,
            "eigenvalues": [[p.lam.real, p.lam.imag] for p in self.pairs],
            "classifications": [p.classification.value for p in self.pairs],
            "h_norms": [p.h_norm for p in self.pairs],
            "eigenvectors": interleaved.tolist(),
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
    ``d_tilde``.
    """

    op: SbpOperatorPair
    tolerance: float
    d_tilde: np.ndarray
    scale: float
    pairs: tuple[HEigenPair, ...]

    @property
    def m(self) -> int:
        """Number of imaginary eigenvalues with positive imaginary part."""
        return sum(
            p.classification is EigenvalueClass.IMAGINARY and p.lam.imag > 0
            for p in self.pairs
        )


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


def eigen_decompose(
    a: np.ndarray,
    h: np.ndarray | None = None,
    tau_eig: float = DEFAULT_TOLERANCE,
) -> tuple[HEigenPair, ...]:
    """Full eigendecomposition by one LAPACK ``eig``, sorted by (Re, Im).

    The eigenvectors are LAPACK's own, unit length in the Euclidean norm;
    for a real matrix complex eigenpairs come in exact conjugate pairs.
    A repeated eigenvalue keeps LAPACK's vectors, which need not be
    independent; the repair reads no eigenvector.  ``h`` (identity when
    omitted) only feeds the stored H-norms.
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
    imaginary = [
        p for p in analysis.pairs if p.classification is EigenvalueClass.IMAGINARY
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
        pairs=analysis.pairs,
        m=analysis.m,
        boundary_residuals=tuple(
            (abs(complex(op.p0 @ p.w)), abs(complex(op.pn @ p.w)), max_abs(op.s @ p.w))
            for p in imaginary
        ),
        moment_residuals=tuple(tuple(map(float, row)) for row in moments),
        tau_eig=analysis.tolerance,
    )


def orthogonalize_imaginary(analysis: Analysis) -> list[np.ndarray]:
    """Real H-orthonormal basis of the imaginary invariant subspace.

    That subspace is the unobservable subspace N of ``(C, D_tilde)`` with
    ``C = [p0^T; pn^T; S]`` (see the module docstring), and its Euclidean
    complement is the block Krylov space of ``D_tilde^T`` started from the
    columns ``[p0, pn, S]`` (the staircase form, Paige 1981).  Each block is
    reorthogonalized twice against the space so far and deflated by an SVD
    at the package rank threshold, scaled by ``||C||_F`` for the first block
    and by ``||D_tilde||_F`` after it.  N is the rest of one complete QR of
    the Krylov basis, made H-orthonormal by one Cholesky factorization of
    its H-Gram matrix; no eigenvector is used.  Returns the columns of that
    basis, none when N = {0}.
    """
    op = analysis.op
    size = op.n + 1
    krylov = np.zeros((size, 0))
    block = np.column_stack([op.p0, op.pn, op.s])
    scale = float(np.linalg.norm(block))
    while krylov.shape[1] < size:
        for _ in range(2):
            block = block - krylov @ (krylov.T @ block)
        u, sv, _ = np.linalg.svd(block, full_matrices=False)
        rank = int(np.count_nonzero(sv > rank_threshold(scale, size)))
        if rank == 0:
            break
        krylov = np.hstack([krylov, u[:, :rank]])
        block = analysis.d_tilde.T @ u[:, :rank]
        scale = analysis.scale
    if krylov.shape[1] == size:
        return []
    complete, _ = np.linalg.qr(krylov, mode="complete")
    z = complete[:, krylov.shape[1]:]
    lower = np.linalg.cholesky(z.T @ (op.h @ z))
    return list(np.linalg.solve(lower, z.T))
