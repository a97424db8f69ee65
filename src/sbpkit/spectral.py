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

:func:`spectral_report` is the one eigen-decomposition of an operator, and
the one caller of :func:`eigen_decompose`: it builds and decomposes the
penalized matrix once and classifies the eigenvalues by the band
``|Re| <= tau * ||D_tilde||_F``.  The ``spectrum`` and ``demo`` commands
print that report; a verdict reads eigenvalues only and runs no ``eig``.

:func:`orthogonalize_imaginary` finds N without decomposing D_tilde, by the
Hautus test (Hautus 1969) in H coordinates, for
:func:`sbpkit.verify.check_eigenvalue_property`, its one caller, whose
verdict and basis the repair reads and whose word on a zero eigenvalue
decides whether D_tilde is invertible.
With ``H = L L^T``, ``A = L^T D_tilde L^{-T}`` and
``B = L^{-1} [p0, pn, S^(1/2)]`` the SBP identity reads ``A + A^T = B B^T``,
so the skew part K of A is normal, and N is the sum over the eigenspaces
V_mu of K of ``V_mu intersected with ker B^T``; on it D_tilde has the
eigenvalues ``i mu``.  One Hermitian ``eigh`` gives mu and V_mu.  The
clusters of mu and the rank of each ``B^T V_mu`` follow the package's rank
rule, not the tolerance.  Where the SBP identity does not hold to rounding
(``max|A + A^T - B B^T| > rank_threshold(max|A|)``) or H has no Cholesky
factor, the test does not apply, and the band of one ``eigvals`` decides.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DecompositionError, ShapeError
from .linalg import (DEFAULT_TOLERANCE, check_positive, legendre_basis, max_abs,
                     rank_threshold, relative_residual)
from .operators import SbpOperatorPair, _is_diagonal, solve_against_norm

__all__ = [
    "EigenvalueClass",
    "SpectralReport",
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
class SpectralReport:
    """The spectrum of an operator's penalized matrix, decomposed once.

    ``eigenvalues`` (complex) are LAPACK's, sorted by (Re, Im), and row k of
    ``eigenvectors`` is the eigenvector of eigenvalue k, C-contiguous and
    real only when every eigenvalue is; for a real matrix complex
    eigenpairs come in exact conjugate pairs, and nothing is synthesized.
    ``h_norms`` are the H-norms of the rows.  ``classifications`` (an
    object array of :class:`EigenvalueClass`) follow the band
    |Re| <= tolerance * ||D_tilde||_F around the imaginary axis, and ``m``
    counts the imaginary eigenvalues with positive imaginary part, so a zero
    eigenvalue (of an operator that is not nullspace consistent) is
    classified imaginary but not counted.

    The residual tables have one row per imaginary eigenvalue, in the order
    of :attr:`imaginary`: ``boundary_residuals`` holds (|p0.w|, |pn.w|,
    max|S w|) and ``moment_residuals`` holds the relative moments
    ``|<P_k, w>_H| / (||P_k||_H ||w||_H)`` for k = 0..q, with P_k the
    Legendre polynomials mapped to the interval (which span the same space
    as x^j); all of them vanish for a conforming operator.

    The arrays are read-only.  :meth:`to_document` holds these tables as
    float64 arrays (read-only views of the report's own arrays where it
    can), so the document is written with :func:`sbpkit.jsonio.dumps`;
    ``json.dumps`` does not accept it.
    """

    tolerance: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    h_norms: np.ndarray
    classifications: np.ndarray
    m: int
    boundary_residuals: np.ndarray
    moment_residuals: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.eigenvalues, self.eigenvectors, self.h_norms,
                      self.classifications, self.boundary_residuals,
                      self.moment_residuals):
            array.flags.writeable = False

    @property
    def imaginary(self) -> np.ndarray:
        """Mask of the eigenvalues classified ``IMAGINARY``."""
        return self.classifications == EigenvalueClass.IMAGINARY

    def to_document(self) -> dict:
        # Each row of a complex array, viewed as doubles, is Re z_0, Im z_0, ...
        return {
            "m": self.m,
            "tau_eig": self.tolerance,
            "eigenvalues": self.eigenvalues.view(float).reshape(-1, 2),
            "classifications": [c.value for c in self.classifications],
            "h_norms": self.h_norms,
            "eigenvectors": np.asarray(self.eigenvectors, complex).view(float),
            "boundary_residuals": self.boundary_residuals,
            "moment_residuals": self.moment_residuals,
        }


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


def eigen_decompose(
    a: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full eigendecomposition by one LAPACK ``eig``, sorted by (Re, Im).

    Returns the eigenvalues (complex), the eigenvectors as the C-contiguous
    rows of one array, and their H-norms.  The eigenvectors are LAPACK's own, unit length in the
    Euclidean norm and real when every eigenvalue is; for a real matrix
    complex eigenpairs come in exact conjugate pairs.  A repeated eigenvalue
    keeps LAPACK's vectors, which need not be independent.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ContractError("expected a real matrix")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    h = np.asarray(h, dtype=float)
    if h.shape != (m, m):
        raise ShapeError(
            f"norm matrix of shape {h.shape} does not match the {m}x{m} matrix"
        )
    try:
        lam, vec = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((lam.imag, lam.real))
    w = vec.T[order]

    # All H-norms from one real product, re * (re @ h.T) + im * (im @ h.T)
    # formed in place, one eigenvector per row: each sum then runs along the
    # contiguous axis, which numpy adds pairwise (a column sum drifts by a
    # few ulp from the per-vector w* H w).
    re, im = w.real, w.imag
    products = re @ h.T
    products *= re
    part = im @ h.T
    part *= im
    products += part
    squares = np.sum(products, axis=1)
    # Keep LAPACK's array, allocated first, and free the copy above it: a
    # freed hole below a kept block made peak RSS jump by 5 MB more often.
    vec[...] = w
    return (lam[order].astype(complex), np.ascontiguousarray(vec),
            np.sqrt(np.maximum(squares, 0.0)))


def spectral_report(
    op: SbpOperatorPair, tau_eig: float = DEFAULT_TOLERANCE
) -> SpectralReport:
    """Build the penalized matrix of ``op`` once, decompose it once, classify
    its spectrum by the band ``tau_eig * ||D_tilde||_F`` and probe the
    imaginary eigenvectors."""
    tau_eig = check_positive(tau_eig)
    d_tilde = build_d_tilde(op)
    band = tau_eig * float(np.linalg.norm(d_tilde, "fro"))
    lam, w, h_norms = eigen_decompose(d_tilde, op.h)
    # Index into EigenvalueClass: positive, imaginary (|Re| <= band), negative.
    index = 1 + (lam.real < -band).astype(int) - (lam.real > band)
    classifications = np.array(list(EigenvalueClass), dtype=object)[index]
    imaginary = index == 1

    # One product per table over the contiguous imaginary rows, so the sums
    # do not depend on how the eigenvectors are laid out in memory.
    rows = np.ascontiguousarray(w[imaginary], dtype=complex)
    boundary = np.column_stack([
        np.abs(rows @ op.p0), np.abs(rows @ op.pn),
        np.max(np.abs(rows @ op.s.T), axis=1),
    ])
    # <P_k, w>_H for every degree and imaginary row from one product W H V.
    v, _ = legendre_basis(op.x, op.interval, op.q)
    vh = v.T @ op.h
    p_norms = np.sqrt(np.maximum(np.sum(vh * v.T, axis=1), 0.0))
    moments = relative_residual(rows @ vh.T, np.outer(h_norms[imaginary], p_norms))
    return SpectralReport(
        tolerance=tau_eig,
        eigenvalues=lam,
        eigenvectors=w,
        h_norms=h_norms,
        classifications=classifications,
        m=int(np.count_nonzero(imaginary & (lam.imag > 0))),
        boundary_residuals=boundary,
        moment_residuals=moments,
    )


def _h_coordinates(
    op: SbpOperatorPair, d_tilde: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``A = L^T D_tilde L^{-T}``, ``B = L^{-1} [p0, pn, S^(1/2)]`` and the
    factor L of ``H = L L^T`` (its diagonal when H is diagonal), or None when
    H has no Cholesky factor."""
    size = op.n + 1
    columns = [op.p0, op.pn]
    if np.any(op.s):
        lam, vec = np.linalg.eigh(0.5 * (op.s + op.s.T))
        keep = lam > rank_threshold(np.max(np.abs(lam)), size)
        columns.append(vec[:, keep] * np.sqrt(lam[keep]))
    c = np.column_stack(columns)
    if _is_diagonal(op.h):
        d = np.diagonal(op.h)
        if not np.all(d > 0.0):
            return None
        root = np.sqrt(d)
        a = d_tilde * root[:, None]
        a /= root
        return a, c / root[:, None], root
    try:
        lower = np.linalg.cholesky(op.h)
    except np.linalg.LinAlgError:
        return None
    # One solve gives L^{-1} D_tilde^T, whose product with L is A^T, and B.
    x = np.linalg.solve(lower, np.column_stack([d_tilde.T, c]))
    return (x[:, :size] @ lower).T, x[:, size:], lower


def orthogonalize_imaginary(
    op: SbpOperatorPair, d_tilde: np.ndarray
) -> tuple[tuple[complex, ...], np.ndarray, bool] | None:
    """The unobservable subspace N of ``(C, D_tilde)`` by the Hautus test.

    Returns ``(offending, q, singular)``: the eigenvalues ``i mu`` of
    ``d_tilde`` on N, one per direction, sorted by mu, a real H-orthonormal
    basis of N as the columns of q (none when N = {0}), and whether
    ``d_tilde`` is singular.  By the energy identity a kernel vector of
    ``d_tilde`` is unobservable, so it is singular exactly when the mu = 0
    cluster has a hidden direction: the cluster of the mu of least
    magnitude, where that mu is zero by the clustering rule.  Returns None
    when the SBP identity does not hold to rounding or H has no Cholesky
    factor, where the test does not apply (see the module docstring).
    """
    size = op.n + 1
    coords = _h_coordinates(op, d_tilde)
    if coords is None:
        return None
    a, b, factor = coords
    defect = a + a.T
    defect -= b @ b.T
    if max_abs(defect) > rank_threshold(1.0, size) * max_abs(a):
        return None
    # -iK = i(A^T - A)/2 is Hermitian; -iK v = mu v means K v = i mu v.
    herm = np.zeros((size, size), dtype=complex)
    np.subtract(a.T, a, out=herm.imag)
    herm.imag *= 0.5
    try:
        mu, vec = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue iteration failed: {exc}") from exc
    # Clusters of K's spectrum split where the gap clears the rank rule; a
    # direction of cluster V_mu is unobservable where B^T V_mu loses rank.
    bt_v = b.T @ vec
    zero = rank_threshold(np.linalg.norm(b, 2), size)
    gap = rank_threshold(np.max(np.abs(mu)), size)
    starts = np.flatnonzero(np.diff(mu, prepend=-np.inf) > gap)
    sizes = np.diff(starts, append=size)
    hidden = np.linalg.norm(bt_v[:, starts], axis=0) <= zero
    columns = [vec[:, starts[hidden & (sizes == 1)]]]
    counts = hidden.astype(int)
    for k in np.flatnonzero(sizes > 1):
        part = slice(starts[k], starts[k] + sizes[k])
        _, sv, vh = np.linalg.svd(bt_v[:, part])
        rank = int(np.count_nonzero(sv > zero))
        counts[k] = sizes[k] - rank
        columns.append(vec[:, part] @ vh[rank:].conj().T)
    centres = np.add.reduceat(mu, starts) / sizes
    offending = tuple(complex(0.0, m) for m in np.repeat(centres, counts).tolist())
    least = int(np.argmin(np.abs(mu)))
    singular = bool(abs(mu[least]) <= gap
                    and counts[np.searchsorted(starts, least, side="right") - 1] > 0)
    # N is real: Re and Im of its complex basis span it twice over.  Their
    # leading left singular vectors are an orthonormal basis in H
    # coordinates, and L^{-T} maps it to an H-orthonormal one.
    w = np.concatenate(columns, axis=1)
    dim = w.shape[1]
    if dim == 0:
        return offending, np.empty((size, 0)), singular
    u = np.linalg.svd(np.hstack([w.real, w.imag]), full_matrices=False)[0][:, :dim]
    if factor.ndim == 1:
        return offending, u / factor[:, None], singular
    return offending, np.linalg.solve(factor.T, u), singular
