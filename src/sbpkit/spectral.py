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

The public surface is the penalized matrix (:func:`build_d_tilde`) and
:func:`spectral_report`, the one eigen-decomposition of an operator: it
builds and decomposes the penalized matrix once, by the internal
``eigen_decompose``, and classifies the eigenvalues by the band
``|Re| <= tau * ||D_tilde||_F``.  The ``spectrum`` and ``demo`` commands
print that report; a verdict reads eigenvalues only and runs no ``eig``.
Only eigenvalue solvers build D_tilde: this report, the band route of
:func:`sbpkit.verify.check_eigenvalue_property` and
:func:`sbpkit.pseudospectral.certify_families`, for its ``eigvals``.

The internal ``orthogonalize_imaginary`` finds N without building or
decomposing D_tilde, by the Hautus test (Hautus 1969) in H coordinates, for
:func:`sbpkit.verify.check_eigenvalue_property`, its one caller, whose
verdict and basis the repair reads and whose word on a zero eigenvalue
decides whether D_tilde is invertible.  ``eigen_decompose`` does not check
its input, which only this module passes.  ``h_inner`` has no caller in the
package; the benchmark's span tracer (``perfbench/spans.py``) still wraps
it by name.
With ``H = L L^T`` and ``B = L^{-1} [p0, pn, S^(1/2)]``, whose first column
is ``b0 = L^{-1} p0``, D_tilde reads
``A = L^T D_tilde L^{-T} = L^T D_plus L^{-T} + b0 b0^T`` in H coordinates,
and the SBP identity reads ``A + A^T = B B^T``.  So the skew part K of A,
which is the skew part of D_plus in H coordinates, is normal, and p0
enters the test only through B.  N is the sum over the eigenspaces
V_mu of K of ``V_mu intersected with ker B^T``; on it D_tilde has the
eigenvalues ``i mu``.  One Hermitian ``eigh`` gives mu and V_mu.  The
clusters of mu split by the package's rank rule, not the tolerance.  The
rank of each ``B^T V_mu`` is read against a zero threshold per cluster,
``rank_threshold(||B||_2, n + 1) * (1 + ||K||_2 / apart)`` with ``apart``
the distance to the nearest other cluster: the rank rule plus the leak of
``eigh``, which mixes a neighbour ``apart`` away into V_mu by about
``eps ||K|| / apart`` (Davis-Kahan).  Without that term a hidden direction
about 1e-3 from an observable one read as observable, by a count that
changed with the BLAS thread count.  A cluster whose leak bound swamps its
observability reads hidden.  Where the SBP identity does not hold to rounding
(``max|A + A^T - B B^T| > rank_threshold(max|A|)``) or H has no Cholesky
factor, the test does not apply, and the band of one ``eigvals`` of
D_tilde, built there, decides.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ShapeError
from .linalg import (DEFAULT_TOLERANCE, check_positive, legendre_basis, max_abs,
                     rank_threshold, relative_residual)
from .operators import SbpOperatorPair, _is_diagonal, solve_against_norm

__all__ = [
    "EigenvalueClass",
    "SpectralReport",
    "build_d_tilde",
    "spectral_report",
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
    """Full eigendecomposition by one LAPACK ``eig`` of the real square
    float array ``a``, sorted by (Re, Im); ``h`` is the norm matrix of its
    size.

    Returns the eigenvalues (complex), the eigenvectors as the C-contiguous
    rows of one array, and their H-norms.  The eigenvectors are LAPACK's own, unit length in the
    Euclidean norm and real when every eigenvalue is; for a real matrix
    complex eigenpairs come in exact conjugate pairs.  A repeated eigenvalue
    keeps LAPACK's vectors, which need not be independent.
    """
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
    op: SbpOperatorPair,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``A = L^T D_tilde L^{-T}``, ``B = L^{-1} [p0, pn, S^(1/2)]`` and the
    factor L of ``H = L L^T`` (its diagonal when H is diagonal), or None when
    H has no Cholesky factor.

    A is formed from D_plus alone: the penalty ``H^{-1} p0 p0^T`` becomes
    ``b0 b0^T`` in H coordinates, with ``b0 = L^{-1} p0`` the first column
    of B, so no D_tilde is built.
    """
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
        factor = np.sqrt(d)
        a = op.d_plus * factor[:, None]
        a /= factor
        b = c / factor[:, None]
    else:
        try:
            factor = np.linalg.cholesky(op.h)
        except np.linalg.LinAlgError:
            return None
        # One solve gives L^{-1} D_plus^T, whose product with L is the
        # transpose of L^T D_plus L^{-T}, and B.
        x = np.linalg.solve(factor, np.column_stack([op.d_plus.T, c]))
        a = (x[:, :size] @ factor).T
        b = x[:, size:]
    a += np.outer(b[:, 0], b[:, 0])
    return a, b, factor


def orthogonalize_imaginary(
    op: SbpOperatorPair,
) -> tuple[tuple[complex, ...], np.ndarray, bool] | None:
    """The unobservable subspace N of ``(C, D_tilde)`` by the Hautus test.

    Reads ``op`` alone and builds no D_tilde.  Returns
    ``(offending, q, singular)``: the eigenvalues ``i mu`` of D_tilde on N,
    one per direction, sorted by mu, a real H-orthonormal basis of N as the
    columns of q (none when N = {0}), and whether D_tilde is singular.  By
    the energy identity a kernel vector of D_tilde is unobservable, so it is
    singular exactly when a cluster centred within the cluster gap of 0 has
    a hidden direction.  Each cluster's zero threshold is the rank rule
    times ``1 + ||K||_2 / apart``, the leak of ``eigh`` from the nearest
    other cluster ``apart`` away (see the module docstring), so a cluster
    whose leak bound swamps its observability reads hidden.  Returns None
    when the SBP identity does not hold to rounding or H has no Cholesky
    factor, where the test does not apply (see the module docstring).
    """
    size = op.n + 1
    coords = _h_coordinates(op)
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
    # One table over the clusters of K's spectrum, which split where the gap
    # clears the rank rule: start, size, centre, distance apart to the
    # nearest other cluster, zero threshold and hidden count.  A direction
    # of V_mu is unobservable where B^T V_mu loses rank; eigh leaks a
    # neighbour into V_mu by about eps ||K|| / apart (Davis-Kahan), which
    # the zero threshold allows for.
    bt_v = b.T @ vec
    gap = rank_threshold(np.max(np.abs(mu)), size)
    starts = np.flatnonzero(np.diff(mu, prepend=-np.inf) > gap)
    sizes = np.diff(starts, append=size)
    centres = np.add.reduceat(mu, starts) / sizes
    edges = np.concatenate(([np.inf], mu[starts[1:]] - mu[starts[1:] - 1], [np.inf]))
    apart = np.minimum(edges[:-1], edges[1:])
    zero = rank_threshold(np.linalg.norm(b, 2), size) * (1.0 + np.max(np.abs(mu)) / apart)
    counts = ((sizes == 1) & (np.linalg.norm(bt_v[:, starts], axis=0) <= zero)).astype(int)
    columns = [vec[:, starts[counts > 0]]]
    for k in np.flatnonzero(sizes > 1):
        part = slice(starts[k], starts[k] + sizes[k])
        _, sv, vh = np.linalg.svd(bt_v[:, part])
        rank = int(np.count_nonzero(sv > zero[k]))
        counts[k] = sizes[k] - rank
        columns.append(vec[:, part] @ vh[rank:].conj().T)
    offending = tuple(complex(0.0, m) for m in np.repeat(centres, counts).tolist())
    singular = bool(np.any((counts > 0) & (np.abs(centres) <= gap)))
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
