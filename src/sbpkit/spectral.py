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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ContractError,
    DecompositionError,
    DegenerateEigenspaceError,
    InternalInconsistencyError,
    PairingError,
    ShapeError,
)
from .linalg import DEFAULT_TOLERANCE, check_positive, max_abs, rank_threshold
from .operators import SbpOperatorPair, solve_against_norm

__all__ = [
    "EigenvalueClass",
    "HEigenPair",
    "SpectralReport",
    "build_d_tilde",
    "eigen_decompose",
    "classify_and_pair",
    "spectral_report",
    "h_inner",
    "h_norm",
    "orthogonalize_imaginary",
    "boundary_projection_residuals",
    "polynomial_moment_residuals",
    "eigenspace_basis",
    "geometric_multiplicity",
]

#: Eigenvalues closer than this (times the Frobenius norm of the matrix) are
#: treated as one eigenvalue for multiplicity and eigenspace purposes.
CLUSTER_FACTOR = 1e-8

#: H-norm of the Gram-Schmidt residual below which an eigenspace is rank
#: deficient (inputs are unit vectors at that point).
DEGENERACY_FLOOR = 1e-12

#: Cross-eigenvalue H-orthogonality is asserted, not enforced, to this level.
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
    ``moment_residuals`` holds |<x^j, w>| for j = 0..q.
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


def h_norm(f: np.ndarray, h: np.ndarray) -> float:
    """The norm induced by ``h_inner`` (requires H positive definite)."""
    value = h_inner(f, f, h)
    return float(np.sqrt(max(value.real, 0.0)))


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


def geometric_multiplicity(a: np.ndarray, lam: complex) -> int:
    return len(eigenspace_basis(a, lam))


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
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ContractError("expected a real matrix")
    a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    h = np.eye(m) if h is None else np.asarray(h, dtype=float)
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

    pairs = []
    for k in range(m):
        w = vectors[k]
        pairs.append(
            HEigenPair(
                lam=complex(lam[k]),
                w=w,
                classification=_classify(complex(lam[k]), tau_eig, scale),
                h_norm=h_norm(w, h),
            )
        )
    return tuple(pairs)


def classify_and_pair(
    pairs: tuple[HEigenPair, ...] | list[HEigenPair],
    tau_eig: float,
    scale: float,
) -> tuple[tuple[HEigenPair, ...], int]:
    """Classify by the tau band and enforce conjugate structure.

    Each imaginary eigenvalue with positive imaginary part is matched to the
    closest candidate near its conjugate; the partner is then synthesized as
    the exact conjugate, which guarantees the even-count property.  Returns
    the reordered pairs and the number m of conjugate pairs.
    """
    classified = [
        replace(p, classification=_classify(p.lam, tau_eig, scale)) for p in pairs
    ]
    imaginary = [
        p for p in classified if p.classification is EigenvalueClass.IMAGINARY
    ]
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
        p for p in classified if p.classification is not EigenvalueClass.IMAGINARY
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


def boundary_projection_residuals(
    op: SbpOperatorPair, pair: HEigenPair
) -> tuple[float, float, float]:
    """(|p0.w|, |pn.w|, max|S w|) for an imaginary eigenpair.

    All three vanish for a conforming operator: they are exactly the
    quantities whose joint annihilation characterizes zero real part.
    """
    if pair.classification is not EigenvalueClass.IMAGINARY:
        raise ContractError(
            f"eigenvalue {pair.lam} is classified {pair.classification.value}; "
            "boundary projections are only meaningful for imaginary eigenpairs"
        )
    return (
        abs(complex(op.p0 @ pair.w)),
        abs(complex(op.pn @ pair.w)),
        max_abs(op.s @ pair.w),
    )


def polynomial_moment_residuals(
    op: SbpOperatorPair, pair: HEigenPair
) -> tuple[float, ...]:
    """|<x^j, w>| for j = 0..q; all vanish for a conforming operator."""
    if pair.classification is not EigenvalueClass.IMAGINARY:
        raise ContractError(
            f"eigenvalue {pair.lam} is classified {pair.classification.value}; "
            "grid-moment residuals are only meaningful for imaginary eigenpairs"
        )
    out = []
    xj = np.ones_like(op.x)
    for _ in range(op.q + 1):
        out.append(abs(h_inner(xj, pair.w, op.h)))
        xj = xj * op.x
    return tuple(out)


def spectral_report(
    op: SbpOperatorPair, tau_eig: float = DEFAULT_TOLERANCE
) -> SpectralReport:
    """Decompose, classify and probe the penalized matrix of an operator."""
    tau_eig = check_positive(tau_eig, "tau_eig")
    d_tilde = build_d_tilde(op)
    raw = eigen_decompose(d_tilde, h=op.h, tau_eig=tau_eig)
    scale = float(np.linalg.norm(d_tilde, "fro"))
    pairs, m = classify_and_pair(raw, tau_eig, scale)
    imaginary = [
        p for p in pairs if p.classification is EigenvalueClass.IMAGINARY
    ]
    return SpectralReport(
        d_tilde=d_tilde,
        pairs=pairs,
        m=m,
        boundary_residuals=tuple(
            boundary_projection_residuals(op, p) for p in imaginary
        ),
        moment_residuals=tuple(
            polynomial_moment_residuals(op, p) for p in imaginary
        ),
        tau_eig=tau_eig,
    )


def orthogonalize_imaginary(
    source: SpectralReport | tuple[HEigenPair, ...] | list[HEigenPair],
    h: np.ndarray,
) -> list[np.ndarray]:
    """H-orthonormal eigenvectors for the imaginary spectrum.

    Within an eigenspace (eigenvalues equal up to the clustering tolerance)
    vectors are orthogonalized by modified Gram-Schmidt in the H inner
    product; across distinct eigenvalues orthogonality holds automatically
    and is only asserted.  Returns unit-H-norm vectors in conjugate-adjacent
    order ``[w_1, conj(w_1), ..., w_m, conj(w_m)]``.
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

    scale = max(1.0, max(abs(p.lam) for p in plus))
    ctol = CLUSTER_FACTOR * scale
    groups: list[list[HEigenPair]] = [[plus[0]]]
    for p in plus[1:]:
        if abs(p.lam - groups[-1][-1].lam) <= ctol:
            groups[-1].append(p)
        else:
            groups.append([p])

    ortho: list[np.ndarray] = []
    for group in groups:
        basis: list[np.ndarray] = []
        for p in group:
            v = p.w.astype(complex) / h_norm(p.w, h)
            for b in basis:
                v = v - h_inner(b, v, h) * b
            r = h_norm(v, h)
            if r < DEGENERACY_FLOOR:
                raise DegenerateEigenspaceError(
                    f"eigenspace of {p.lam} lost rank during orthogonalization "
                    f"(residual H-norm {r:.3e})"
                )
            basis.append(v / r)
        ortho.extend(basis)

    result: list[np.ndarray] = []
    for v in ortho:
        result.append(v)
        result.append(np.conj(v))
    gram = np.array(
        [[h_inner(u, v, h) for v in result] for u in result], dtype=complex
    )
    defect = max_abs(gram - np.eye(len(result)))
    if defect > ORTHOGONALITY_ASSERT:
        raise InternalInconsistencyError(
            "imaginary eigenvectors are not H-orthonormal across eigenvalues "
            f"(Gram defect {defect:.3e}); the operator is not conforming"
        )
    return result
