"""Spectrum of the penalized matrix and its structure in the H geometry.

The penalized matrix ``D_tilde = D_plus + H^{-1} p0 p0^T`` governs
solvability of the boundary-penalized derivative problem.  The SBP
identities give the energy identity

    2 Re(lambda) ||w||_H^2 = |p0.w|^2 + |pn.w|^2 + w* S w

for every eigenpair, so all eigenvalues of a conforming operator have
nonnegative real part, and the ones with zero real part are exactly those
whose eigenvectors ``C = [p0^T; pn^T; S]`` annihilates.  Their invariant
subspace is the unobservable subspace N of ``(C, D_tilde)``.  All inner
products here are ``<f, g> = f* H g``.

:func:`spectral_report` is the one eigen-decomposition of an operator: it
builds D_tilde once and decomposes it once, by the internal
``eigen_decompose``.  The internal ``orthogonalize_imaginary`` finds N
without building D_tilde, by the Hautus test in H coordinates (derived in
the README), for :func:`sbpkit.verify.check_eigenvalue_property`, its one
caller.  With ``H = L L^T``, D_tilde reads ``A = L^T D_tilde L^{-T}`` and
ker C reads ker ``B^T`` with ``B = L^{-1} [p0, pn, S^(1/2)]``; the SBP
identity ``A + A^T = B B^T`` puts N in the eigenspaces of the skew part K
of A, where ``B^T`` loses rank.  ``h_inner`` has no caller in the package;
the benchmark's span tracer (``perfbench/spans.py``) still wraps it by name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class EigenvalueCheck:
    """Eigenvalue-property verdict for the penalized matrix.

    ``offending`` holds the eigenvalues of D_tilde with real part zero, one
    per unobservable direction, sorted by (Re, Im); on the band route, every
    eigenvalue that is not right of the band.  The property holds exactly
    where none is offending.  ``basis`` is a real H-orthonormal basis of N,
    one column per offending value and read-only, which the repair reads;
    None where the band decided.  ``route`` names the route that decided:
    ``"certificate"`` (N = {0} proved without the complex ``eigh``; the
    basis is empty), ``"hautus"`` or ``"band"``.  Neither takes part in
    ``==``.  ``singular`` says whether D_tilde has an eigenvalue at 0, the
    first route of :func:`sbpkit.verify.check_nullspace_consistency`.
    """

    offending: tuple[complex, ...]
    basis: np.ndarray | None = field(compare=False, repr=False)
    route: str = field(compare=False)
    singular: bool = False

    def __post_init__(self) -> None:
        if self.basis is not None:
            self.basis.flags.writeable = False

    @property
    def has_property(self) -> bool:
        return not self.offending


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
    # few ulp from the per-vector w* H w).  For a diagonal H, scaling by
    # diag(H) rounds each entry as the dense product does.
    re, im = w.real, w.imag
    if _is_diagonal(h):
        d = np.diagonal(h)
        products, part = re * d, im * d
    else:
        products, part = re @ h.T, im @ h.T
    products *= re
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


def _clusters(
    values: np.ndarray, gap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and size of each cluster of the ascending ``values``, which
    split where neighbours lie more than ``gap`` apart, and each cluster's
    distance to the nearest other one (infinite for a lone cluster)."""
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > gap)
    sizes = np.diff(starts, append=values.size)
    edges = np.concatenate(([np.inf], values[starts[1:]] - values[starts[1:] - 1], [np.inf]))
    return starts, sizes, np.minimum(edges[:-1], edges[1:])


def _certified(a: np.ndarray, b: np.ndarray, b_norm: float) -> bool:
    """Whether one real ``eigh`` of ``G = K^T K`` proves N = {0}, so that
    the complex route would read every cluster of mu as observable.

    ``a`` and ``b`` are the H coordinates of an operator that passed the
    identity gate and ``b_norm`` is ``||B||_2``.  Each mu != 0 of K gives a
    pair ``lambda = mu^2`` of G, whose eigenspace W is the real span of
    ``V_mu + V_-mu``; B is real, so ``q = ||B^T W||_F / sqrt(2)`` is the
    ``||B^T v||`` of both ``v`` in ``V_+-mu``, whatever basis of W eigh
    picks.  The values lambda split into clusters by ``tau``, the rank rule
    of ``||G||_2``.  The proof needs every cluster to be a pair with
    lambda > tau, except one lone lambda <= tau at the bottom (the zero of K
    when n + 1 is odd), and every cluster to clear twice the complex route's
    zero threshold ``rank_threshold(||B||_2, n + 1) * (1 + ||K||_2 / apart)``
    after the leak of this eigh, ``sqrt(2) ||B||_2 min(1, tau / gap)`` (Davis-Kahan,
    with ``gap`` the distance to the nearest other lambda-cluster).  Here
    ``apart`` is read from ``sigma = sqrt(lambda)`` and counts the mirror
    ``-mu`` at distance ``2 sigma``.  As ``q <= ||B||_2``, clearing the
    threshold also puts every cluster more than twice the complex route's
    cluster gap from its neighbours, so none of them merges there.
    """
    size = a.shape[0]
    k = a - a.T
    k *= 0.5
    lam, y = np.linalg.eigh(k.T @ k)
    tau = rank_threshold(lam[-1], size)
    starts, sizes, gap = _clusters(lam, tau)
    lone = int(sizes[0] == 1 and lam[0] <= tau)
    if np.any(sizes[lone:] != 2) or lam[starts[lone]] <= tau:
        return False
    bt_y = b.T @ y
    q = np.sqrt(np.add.reduceat(np.sum(bt_y * bt_y, axis=0), starts) / sizes)
    leak = np.sqrt(2.0) * b_norm * np.minimum(1.0, tau / gap)
    sigma = np.sqrt(np.maximum(np.add.reduceat(lam, starts) / sizes, 0.0))
    below = np.diff(sigma, prepend=-sigma[0])
    if lone:
        below[0] = np.inf
    apart = np.minimum(below, np.diff(sigma, append=np.inf))
    zero = rank_threshold(b_norm, size) * (1.0 + sigma[-1] / apart)
    return bool(np.all(q - leak > 2.0 * zero))


def orthogonalize_imaginary(op: SbpOperatorPair) -> EigenvalueCheck | None:
    """The unobservable subspace N of ``(C, D_tilde)`` by the Hautus test.

    Reads ``op`` alone and builds no D_tilde.  The check's ``offending``
    values are the eigenvalues ``i mu`` of D_tilde on N, one per direction,
    sorted by mu, and ``singular`` says whether a cluster of mu centred
    within the cluster gap of 0 has a hidden direction (a kernel vector of
    D_tilde is unobservable).  One real ``eigh`` of ``K^T K`` is tried
    first; where it proves N = {0} (:func:`_certified`) the route is
    ``"certificate"`` and no complex ``eigh`` runs.  Otherwise the complex
    route decides, and each cluster's zero threshold is the rank rule times
    ``1 + ||K||_2 / apart``, the leak of ``eigh`` from the nearest other
    cluster ``apart`` away, so a cluster whose leak bound swamps its
    observability reads hidden.  Returns None where the SBP identity does
    not hold to rounding or H has no Cholesky factor: there the test does
    not apply.
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
    del defect
    b_norm = np.linalg.norm(b, 2)
    if _certified(a, b, b_norm):
        return EigenvalueCheck(offending=(), basis=np.empty((size, 0)), route="certificate")
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
    starts, sizes, apart = _clusters(mu, gap)
    centres = np.add.reduceat(mu, starts) / sizes
    zero = rank_threshold(b_norm, size) * (1.0 + np.max(np.abs(mu)) / apart)
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
    basis = np.empty((size, 0))
    if dim:
        u = np.linalg.svd(np.hstack([w.real, w.imag]), full_matrices=False)[0][:, :dim]
        basis = u / factor[:, None] if factor.ndim == 1 else np.linalg.solve(factor.T, u)
    return EigenvalueCheck(offending=offending, basis=basis, route="hautus", singular=singular)
