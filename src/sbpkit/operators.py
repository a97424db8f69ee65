"""Core data model for summation-by-parts (SBP) operator pairs.

An operator pair bundles the derivative matrices ``D_plus`` and ``D_minus``
with the norm (quadrature) matrix ``H``, the dissipation matrix ``S``, the
boundary interpolation vectors ``p0`` and ``pn``, the grid ``x``, the order
of accuracy ``q`` and the interval the grid lives on.  The defining algebra:

* accuracy:    ``D_pm x^j = j x^(j-1)``, ``p0.x^j = a^j``, ``pn.x^j = b^j``
  for ``j = 0..q`` (elementwise powers, ``x^0 = 1``),
* H symmetric positive definite,
* ``H D_plus + D_plus^T H = -p0 p0^T + pn pn^T + S`` with S symmetric
  positive semi-definite,
* ``H D_plus + D_minus^T H = -p0 p0^T + pn pn^T``,

which forces ``D_minus = D_plus - H^{-1} S``.  This module only enforces
structural invariants (shapes, distinct nodes, 1 <= q <= n); the algebraic
conditions are checked by :mod:`sbpkit.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvariantError, ParameterError, ShapeError, SingularNormError

__all__ = [
    "Interval",
    "SbpOperatorPair",
    "build_counterexample",
    "build_two_point",
    "build_classical_fd",
    "derive_d_minus",
    "solve_against_norm",
    "BUILTIN_OPERATORS",
]


def _real(value, name: str, error: type[ValueError]) -> float:
    """``value`` as a float; ``error`` naming it unless it is one integer or
    float (a bool, a string or None is not)."""
    if np.ndim(value) != 0:
        raise error(f"{name} must be a number, got an array of shape {np.shape(value)}")
    if np.asarray(value).dtype.kind not in "iuf":
        raise error(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Interval:
    """A nonempty interval ``[a, b]`` with ``b > a``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = (_real(v, "interval endpoint", InvariantError) for v in (self.a, self.b))
        if not (np.isfinite(a) and np.isfinite(b)):
            raise InvariantError("interval endpoints must be finite")
        if not b > a:
            raise InvariantError(f"interval requires b > a, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> float:
        return self.b - self.a


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, locked: for arrays a builder has made and hands over."""
    arr.flags.writeable = False
    return arr


def _adopted(value, vector: bool) -> np.ndarray:
    """``value`` itself when it is a read-only float64 ndarray that owns its
    C-contiguous memory (1-D for a vector), else a locked float64 copy."""
    if (type(value) is np.ndarray and value.dtype == np.float64
            and value.base is None and value.flags.c_contiguous
            and not value.flags.writeable and (value.ndim == 1 or not vector)):
        return value
    return _read_only(np.array(np.ravel(value) if vector else value,
                               dtype=float, order="C", copy=True))


@dataclass(frozen=True)
class SbpOperatorPair:
    """The full SBP bundle on ``n + 1`` grid nodes.

    Instances are immutable and hold each array once.  An input that is a
    float64 ndarray, C-contiguous, read-only and the owner of its memory
    (``base is None``) is kept as it is; any other input, a read-only view
    of writable memory included, is copied and the copy locked.  One object
    given for several fields is stored once, so ``d_minus=d_plus`` gives
    ``op.d_minus is op.d_plus``, and :meth:`with_fields` shares every field
    it does not replace.  The lock is advisory, as numpy's always is: the
    owner of an array may turn ``writeable`` back on, and an operator that
    adopted the array would see what is then written.  Values may be shared
    freely across threads.
    """

    d_plus: np.ndarray
    d_minus: np.ndarray
    h: np.ndarray
    s: np.ndarray
    p0: np.ndarray
    pn: np.ndarray
    x: np.ndarray
    q: int
    interval: Interval
    name: str | None = None

    def __post_init__(self) -> None:
        stored: dict[tuple[int, bool], np.ndarray] = {}

        def adopt(attr: str, vector: bool) -> np.ndarray:
            # Keyed by the input object, which stays alive until this returns.
            value = getattr(self, attr)
            key = (id(value), vector)
            if key not in stored:
                stored[key] = _adopted(value, vector)
            return stored[key]

        x = adopt("x", vector=True)
        m = x.size
        if m < 2:
            raise InvariantError("an operator needs at least two grid nodes")
        if int(self.q) < 1:
            raise InvariantError(f"order of accuracy must be >= 1, got {self.q}")
        # An operator on n + 1 distinct nodes cannot be exact for x^(n+1).
        if int(self.q) > m - 1:
            raise InvariantError(
                f"order of accuracy q={self.q} exceeds n={m - 1} for {m} nodes"
            )
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "x", x)
        for attr in ("d_plus", "d_minus", "h", "s"):
            mat = adopt(attr, vector=False)
            if mat.shape != (m, m):
                raise InvariantError(
                    f"{attr} must have shape {(m, m)}, got {mat.shape}"
                )
            object.__setattr__(self, attr, mat)
        for attr in ("p0", "pn"):
            vec = adopt(attr, vector=True)
            if vec.size != m:
                raise InvariantError(f"{attr} must have length {m}, got {vec.size}")
            object.__setattr__(self, attr, vec)
        for attr in ("d_plus", "d_minus", "h", "s", "p0", "pn", "x"):
            if not np.all(np.isfinite(getattr(self, attr))):
                raise InvariantError(f"{attr} contains non-finite entries")
        xs = np.sort(x)
        if np.any(xs[1:] == xs[:-1]):
            raise InvariantError("grid nodes must be pairwise distinct")

    @property
    def n(self) -> int:
        """Grid index of the last node; the operator acts on n + 1 values."""
        return self.x.size - 1

    def with_fields(self, **changes) -> "SbpOperatorPair":
        """Copy with the given fields replaced (re-runs structural checks);
        the fields not replaced are shared, not copied."""
        return replace(self, **changes)


def _is_diagonal(a: np.ndarray) -> bool:
    """Whether every off-diagonal entry is zero.  Counts in place: no array
    of the size of ``a`` is made.  Its inputs are finite: an operator's own
    arrays, or an H that ``_check_finite_norm`` has passed."""
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def _check_finite_norm(h: np.ndarray) -> None:
    """Raise ``InvariantError`` unless every entry of H is finite.  A nan makes
    the minimum and the maximum nan and an inf makes one of them infinite, so
    no array of the size of H is made."""
    if h.size and not (np.isfinite(np.min(h)) and np.isfinite(np.max(h))):
        raise InvariantError("norm matrix contains non-finite entries")


def solve_against_norm(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Compute ``H^{-1} rhs`` without densely inverting H.

    Diagonal H is solved entrywise; anything else goes through an LU solve.
    An H with a non-finite entry raises ``InvariantError``.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"norm matrix must be square, got shape {h.shape}")
    _check_finite_norm(h)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != h.shape[0]:
        raise ShapeError(
            f"rhs leading dimension {rhs.shape[0]} does not match H size {h.shape[0]}"
        )
    if _is_diagonal(h):
        d = np.diagonal(h)
        if np.any(d == 0.0):
            raise SingularNormError("norm matrix has a zero diagonal entry")
        return rhs / d if rhs.ndim == 1 else rhs / d[:, None]
    try:
        return np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularNormError(f"norm matrix is singular: {exc}") from exc


def derive_d_minus(d_plus: np.ndarray, h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Return ``D_minus = D_plus - H^{-1} S``, subtracted into the array of
    ``H^{-1} S``: one n x n array besides the inputs."""
    d_plus = np.asarray(d_plus, dtype=float)
    s = np.asarray(s, dtype=float)
    if d_plus.shape != s.shape:
        raise ShapeError(
            f"d_plus shape {d_plus.shape} does not match s shape {s.shape}"
        )
    t = solve_against_norm(h, s)
    return np.subtract(d_plus, t, out=t)


def _builder_pair(d, h, p0, pn, x, q: int, interval: Interval,
                  name: str) -> SbpOperatorPair:
    """A builder's operator with ``D_minus = D_plus = d`` and S = 0.  The
    arrays are the builder's own: they are locked here and adopted, not
    copied."""
    m = d.shape[0]
    return SbpOperatorPair(
        d_plus=_read_only(d),
        d_minus=d,
        h=_read_only(h),
        s=_read_only(np.zeros((m, m))),
        p0=_read_only(p0),
        pn=_read_only(pn),
        x=_read_only(x),
        q=q,
        interval=interval,
        name=name,
    )


def build_counterexample() -> SbpOperatorPair:
    """The 6-node order-1 operator whose penalized matrix has a purely
    imaginary conjugate eigenvalue pair.

    The operator is nullspace consistent, yet two eigenvalues of
    ``D_plus + H^{-1} p0 p0^T`` sit exactly on the imaginary axis, which
    makes it the canonical fixture for the diagnosis and repair pipeline.
    """
    d_plus = (
        np.array(
            [
                [-5, 4, 2, 0, -2, 1],
                [-2, 0, 1, 0, 2, -1],
                [-1, -1, 0, 2, 0, 0],
                [0, 0, -2, 0, 1, 1],
                [1, -2, 0, -1, 0, 2],
                [-1, 2, 0, -2, -4, 5],
            ],
            dtype=float,
        )
        / 5.0
    )
    x = np.array([-5, -3, -1, 1, 3, 5], dtype=float) / 2.0
    h = np.diag([0.5, 1.0, 1.0, 1.0, 1.0, 0.5])
    p0 = np.zeros(6)
    p0[0] = 1.0
    pn = np.zeros(6)
    pn[5] = 1.0
    return _builder_pair(d=d_plus, h=h, p0=p0, pn=pn, x=x, q=1,
                         interval=Interval(-2.5, 2.5), name="counterexample")


def build_two_point() -> SbpOperatorPair:
    """The minimal 2-node operator on [0, 1] (exact for linears)."""
    return _builder_pair(
        d=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        h=np.diag([0.5, 0.5]),
        p0=np.array([1.0, 0.0]),
        pn=np.array([0.0, 1.0]),
        x=np.array([0.0, 1.0]),
        q=1,
        interval=Interval(0.0, 1.0),
        name="two_point",
    )


def build_classical_fd(n: int, interval: Interval) -> SbpOperatorPair:
    """Second-order central operator with one-sided boundary closures.

    Uniform grid of ``n + 1`` nodes; interior rows are central differences,
    the boundary rows are first-order one-sided, and H is the trapezoid
    quadrature.  Order of accuracy q = 1 (set by the boundary rows).
    """
    if n < 2:
        raise ParameterError(f"classical operator needs n >= 2, got {n}")
    dx = interval.length / n
    m = n + 1
    d_plus = np.zeros((m, m))
    d_plus[0, 0] = -1.0 / dx
    d_plus[0, 1] = 1.0 / dx
    d_plus[m - 1, m - 2] = -1.0 / dx
    d_plus[m - 1, m - 1] = 1.0 / dx
    # The diagonals of these views are the entries (i, i - 1) and (i, i + 1)
    # of the interior rows i = 1..n-1.
    np.fill_diagonal(d_plus[1:-1, :-2], -1.0 / (2.0 * dx))
    np.fill_diagonal(d_plus[1:-1, 2:], 1.0 / (2.0 * dx))
    weights = np.full(m, dx)
    weights[0] = weights[-1] = dx / 2.0
    p0 = np.zeros(m)
    p0[0] = 1.0
    pn = np.zeros(m)
    pn[-1] = 1.0
    return _builder_pair(d=d_plus, h=np.diag(weights), p0=p0, pn=pn,
                         x=np.linspace(interval.a, interval.b, m), q=1,
                         interval=interval, name=f"classical_fd_{n}")


BUILTIN_OPERATORS = {
    "counterexample": build_counterexample,
    "two_point": build_two_point,
}
