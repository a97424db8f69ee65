"""Input generators for the sbpkit benchmark.

Everything here is built with numpy alone, from a seed, so that sbpkit only
ever receives finished operators.  Each generator promises properties that
``perfbench/tests/test_gen.py`` checks:

* ``classical_fd`` - the second-order central operator with first-order
  boundary rows and the trapezoid norm (q = 1), written out independently of
  ``sbpkit.build_classical_fd``.
* ``plant_pairs`` - ``D' = (I - Pi) D (I - Pi) + sum_k w_k (v_k u_k^T - u_k v_k^T) H``
  with ``u_k, v_k`` H-orthonormal, annihilated by p0 and pn and H-orthogonal
  to ``x^0..x^q``; ``Pi`` is the H-orthogonal projector onto their span.  Both
  SBP identities and accuracy hold, and ``D_tilde'`` has the eigenvalues
  ``+-i w_k`` exactly, with every other eigenvalue strictly to the right.
* ``congruence`` - ``T = I + U V^T`` with ``V^T x^j = 0`` for ``j <= q + 1``,
  mapping ``(D, H, S, p0, pn)`` to ``(T^-1 D T, T^T H T, T^T S T, T^T p0,
  T^T pn)``.  The result is a valid pair of the same order with a dense H,
  and its ``D_tilde`` is similar to the original one.

Run ``python3 perfbench/gen.py --workload NAME --seed N --out DIR`` to write
every input of a workload to ``DIR`` as ``.npz`` files.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Pair:
    """An SBP operator pair as plain arrays (S = 0 unless stated)."""

    d: np.ndarray
    h: np.ndarray
    s: np.ndarray
    p0: np.ndarray
    pn: np.ndarray
    x: np.ndarray
    q: int
    a: float
    b: float
    name: str
    #: H-orthonormal planted basis [u_1, v_1, ..., u_m, v_m] (N x 2m).
    planted: np.ndarray | None = None
    #: planted frequencies w_1 < ... < w_m.
    omegas: np.ndarray | None = None
    #: the pair before the congruence, or None if none was applied.
    base: "Pair | None" = None

    @property
    def size(self) -> int:
        return self.x.size


def d_tilde(pair: Pair) -> np.ndarray:
    """``D + H^-1 p0 p0^T``."""
    return pair.d + np.outer(np.linalg.solve(pair.h, pair.p0), pair.p0)


def classical_fd(n: int, a: float, b: float) -> Pair:
    """Central interior rows, one-sided boundary rows, trapezoid H."""
    m = n + 1
    dx = (b - a) / n
    d = np.zeros((m, m))
    idx = np.arange(1, m - 1)
    d[idx, idx - 1] = -0.5 / dx
    d[idx, idx + 1] = 0.5 / dx
    d[0, :2] = (-1.0 / dx, 1.0 / dx)
    d[-1, -2:] = (-1.0 / dx, 1.0 / dx)
    w = np.full(m, dx)
    w[0] = w[-1] = 0.5 * dx
    e0, en = np.zeros(m), np.zeros(m)
    e0[0] = en[-1] = 1.0
    return Pair(d=d, h=np.diag(w), s=np.zeros((m, m)), p0=e0, pn=en,
                x=np.linspace(a, b, m), q=1, a=a, b=b, name=f"fd{n}")


def _monomials(x: np.ndarray, degree: int) -> np.ndarray:
    """Columns x^0..x^degree."""
    return np.vander(x, degree + 1, increasing=True)


def _row_space(c: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the row space of ``c``."""
    q, _ = np.linalg.qr(c.T)
    return q


def plant_pairs(base: Pair, omegas, rng: np.random.Generator) -> Pair:
    """Plant imaginary pairs +-i*omega_k into ``base`` (which must have S = 0)."""
    omegas = np.sort(np.asarray(omegas, dtype=float))
    m2 = 2 * omegas.size
    h = base.h
    c = np.vstack([base.p0, base.pn, (h @ _monomials(base.x, base.q)).T])
    rows = _row_space(c)
    z = rng.standard_normal((base.size, m2))
    z -= rows @ (rows.T @ z)
    chol = np.linalg.cholesky(z.T @ h @ z)
    z = np.linalg.solve(chol, z.T).T
    proj = np.eye(base.size) - z @ z.T @ h
    rot = np.zeros((base.size, base.size))
    for k, omega in enumerate(omegas):
        u, v = z[:, 2 * k], z[:, 2 * k + 1]
        rot += omega * (np.outer(v, u) - np.outer(u, v))
    d = proj @ base.d @ proj + rot @ h
    return replace(base, d=d, planted=z, omegas=omegas,
                   name=f"{base.name}_m{omegas.size}")


#: Rank of ``U V^T`` in the congruence.
CONGRUENCE_RANK = 3


def congruence(pair: Pair, rng: np.random.Generator) -> Pair:
    """Apply ``T = I + U V^T`` with ``V^T x^j = 0`` for ``j <= q + 1``."""
    size = pair.size
    poly = _row_space(_monomials(pair.x, pair.q + 1).T)
    v = rng.standard_normal((size, CONGRUENCE_RANK))
    v -= poly @ (poly.T @ v)
    v /= np.linalg.norm(v, axis=0)
    u = rng.standard_normal((size, CONGRUENCE_RANK))
    u *= 0.5 / np.linalg.norm(u @ v.T, 2)
    t = np.eye(size) + u @ v.T
    t_inv = np.eye(size) - u @ np.linalg.solve(np.eye(CONGRUENCE_RANK) + v.T @ u, v.T)
    h = t.T @ pair.h @ t
    return replace(
        pair,
        d=t_inv @ pair.d @ t,
        h=0.5 * (h + h.T),
        s=t.T @ pair.s @ t,
        p0=t.T @ pair.p0,
        pn=t.T @ pair.pn,
        planted=None if pair.planted is None else t_inv @ pair.planted,
        name=f"{pair.name}_congruent",
        base=pair,
    )


def counterexample() -> Pair:
    """The paper's 6-node nullspace consistent operator with eigenvalues +-i/sqrt(5)."""
    d = np.array(
        [
            [-5, 4, 2, 0, -2, 1],
            [-2, 0, 1, 0, 2, -1],
            [-1, -1, 0, 2, 0, 0],
            [0, 0, -2, 0, 1, 1],
            [1, -2, 0, -1, 0, 2],
            [-1, 2, 0, -2, -4, 5],
        ],
        dtype=float,
    ) / 5.0
    e0, en = np.zeros(6), np.zeros(6)
    e0[0] = en[-1] = 1.0
    return Pair(d=d, h=np.diag([0.5, 1, 1, 1, 1, 0.5]), s=np.zeros((6, 6)),
                p0=e0, pn=en, x=np.arange(-5.0, 6.0, 2.0) / 2.0, q=1,
                a=-2.5, b=2.5, name="counterexample")


def chebyshev_lobatto(n: int, a: float, b: float) -> np.ndarray:
    t = -np.cos(np.pi * np.arange(n + 1) / n)
    return _affine(t, a, b)


def legendre_lobatto(n: int, a: float, b: float) -> np.ndarray:
    """Endpoints plus the roots of P_n', from numpy's Legendre module."""
    leg = np.polynomial.legendre.Legendre.basis(n)
    inner = np.sort(leg.deriv().roots().real) if n > 1 else np.zeros(0)
    return _affine(np.concatenate(([-1.0], inner, [1.0])), a, b)


def _affine(t: np.ndarray, a: float, b: float) -> np.ndarray:
    x = 0.5 * (a + b) + 0.5 * (b - a) * t
    x[0], x[-1] = a, b
    return x


# ---------------------------------------------------------------------------
# workload input pools

#: (n, congruent) per slot of ``diagnose_fd``; every seed gets the same sizes
#: so that the mix of operation costs, and hence the medians, repeat.
DIAGNOSE_SLOTS = ((224, False), (224, True), (256, False), (256, True),
                  (288, False), (288, True))

#: (n, m, congruent, budget, norm) per slot of ``repair_planted``: one
#: size, so that every operation costs about the same and the median
#: operation time rests on all of them, not on the few in the middle of a
#: mix of sizes; each m occurs once plain and once congruent; every
#: (budget, norm) combination occurs.
REPAIR_SLOTS = (
    (120, 1, False, 1e-2, "frobenius"),
    (120, 6, True, 1e-4, "spectral"),
    (120, 3, False, 1e-4, "frobenius"),
    (120, 1, True, 1e-2, "spectral"),
    (120, 6, False, 1e-2, "frobenius"),
    (120, 3, True, 1e-4, "spectral"),
)


def _slot_rng(seed: int, workload: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), slot])


def _interval(rng: np.random.Generator) -> tuple[float, float]:
    a = float(rng.uniform(-1.0, 1.0))
    return a, a + float(rng.uniform(0.5, 2.0))


def diagnose_input(seed: int, slot: int) -> Pair:
    n, congruent = DIAGNOSE_SLOTS[slot]
    rng = _slot_rng(seed, "diagnose_fd", slot)
    pair = classical_fd(n, *_interval(rng))
    return congruence(pair, rng) if congruent else pair


def _omegas(m: int, length: float, rng: np.random.Generator) -> np.ndarray:
    """m frequencies, one in each window [1 + 4k, 4.5 + 4k] / length."""
    return (1.0 + 4.0 * np.arange(m) + rng.uniform(0.0, 3.5, m)) / length


def repair_input(seed: int, slot: int) -> tuple[Pair, float, str]:
    """A planted operator with its repair budget and norm."""
    n, m, congruent, budget, norm = REPAIR_SLOTS[slot]
    rng = _slot_rng(seed, "repair_planted", slot)
    a, b = _interval(rng)
    base = classical_fd(n, a, b)
    for _ in range(20):
        pair = plant_pairs(base, _omegas(m, b - a, rng), rng)
        if planted_spectrum_separated(pair):
            break
    else:  # not seen on any seed tried; the bounded redraw keeps inputs seeded
        raise RuntimeError(f"no well separated planted operator for slot {slot}")
    if congruent:
        pair = congruence(pair, rng)
    return pair, budget, norm


#: Planted draws keep every other eigenvalue this share of ||D_tilde||_F
#: to the right of the imaginary axis and away from the planted ones.
SEPARATION_MARGIN = 1e-6


def planted_spectrum_separated(pair: Pair) -> bool:
    """Whether every eigenvalue of D_tilde off the planted +-i*omega has a
    real part, and a distance to the planted ones, above
    ``SEPARATION_MARGIN * ||D_tilde||_F``."""
    dt = d_tilde(pair)
    lam = np.linalg.eigvals(dt)
    planted = np.concatenate((1j * pair.omegas, -1j * pair.omegas))
    dist = np.abs(lam[:, None] - planted[None, :])
    scale = float(np.linalg.norm(dt, "fro"))
    near = np.min(dist, axis=1) <= 1e-9 * scale
    others = lam[~near]
    return (int(np.count_nonzero(near)) == planted.size
            and float(np.min(others.real)) > SEPARATION_MARGIN * scale
            and float(np.min(dist[~near])) > SEPARATION_MARGIN * scale)


def save_pair(pair: Pair, path: str) -> None:
    planted = {} if pair.planted is None else {"planted": pair.planted, "omegas": pair.omegas}
    np.savez(path, d=pair.d, h=pair.h, s=pair.s, p0=pair.p0, pn=pair.pn,
             x=pair.x, q=pair.q, interval=[pair.a, pair.b], **planted)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("diagnose_fd", "repair_planted"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "diagnose_fd":
        for slot in range(len(DIAGNOSE_SLOTS)):
            pair = diagnose_input(args.seed, slot)
            save_pair(pair, os.path.join(args.out, f"{slot:02d}_{pair.name}.npz"))
    else:
        for slot in range(len(REPAIR_SLOTS)):
            pair, budget, norm = repair_input(args.seed, slot)
            save_pair(pair, os.path.join(
                args.out, f"{slot:02d}_{pair.name}_{norm}_{budget:g}.npz"))


if __name__ == "__main__":
    main()
