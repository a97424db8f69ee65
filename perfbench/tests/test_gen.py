"""The properties each input generator promises.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import numpy as np
import pytest

import gen


def sbp_residual(pair: gen.Pair) -> float:
    boundary = -np.outer(pair.p0, pair.p0) + np.outer(pair.pn, pair.pn)
    res = pair.h @ pair.d + pair.d.T @ pair.h - boundary - pair.s
    return float(np.max(np.abs(res)) / np.max(np.abs(pair.h @ pair.d)))


def accuracy_residual(pair: gen.Pair, degree: int) -> float:
    scale = np.max(np.abs(pair.d)) * np.max(np.abs(pair.x)) ** degree
    worst = 0.0
    for j in range(degree + 1):
        target = j * pair.x ** (j - 1) if j else np.zeros_like(pair.x)
        worst = max(worst, np.max(np.abs(pair.d @ pair.x**j - target)) / scale,
                    abs(pair.p0 @ pair.x**j - pair.a**j) / max(1.0, abs(pair.a) ** j),
                    abs(pair.pn @ pair.x**j - pair.b**j) / max(1.0, abs(pair.b) ** j))
    return worst


def test_classical_fd_is_sbp_of_order_one():
    pair = gen.classical_fd(40, -0.3, 1.2)
    assert sbp_residual(pair) < 1e-14
    assert accuracy_residual(pair, 1) < 1e-14
    assert np.all(np.diagonal(pair.h) > 0)
    interior = pair.d @ pair.x**2 - 2 * pair.x
    assert np.max(np.abs(interior[1:-1])) < 1e-12 and np.max(np.abs(interior)) > 1e-3


@pytest.mark.parametrize("m", [1, 3, 6])
def test_planted_pairs(m):
    rng = np.random.default_rng(m)
    base = gen.classical_fd(64, 0.2, 1.7)
    omegas = gen._omegas(m, 1.5, rng)
    pair = gen.plant_pairs(base, omegas, rng)
    z = pair.planted
    assert np.max(np.abs(z.T @ pair.h @ z - np.eye(2 * m))) < 1e-12
    assert np.max(np.abs(pair.p0 @ z)) < 1e-12 and np.max(np.abs(pair.pn @ z)) < 1e-12
    assert np.max(np.abs(np.vander(pair.x, 2, increasing=True).T @ pair.h @ z)) < 1e-12
    assert sbp_residual(pair) < 1e-13
    assert accuracy_residual(pair, 1) < 1e-13
    lam = np.linalg.eigvals(gen.d_tilde(pair))
    for omega in omegas:
        for target in (1j * omega, -1j * omega):
            assert np.min(np.abs(lam - target)) < 1e-10 * omega
    assert gen.planted_spectrum_separated(pair)


def test_congruence_keeps_the_pair_and_its_spectrum():
    rng = np.random.default_rng(7)
    base = gen.plant_pairs(gen.classical_fd(48, -1.0, 0.5), [2.0, 5.0], rng)
    pair = gen.congruence(base, rng)
    assert pair.base is base
    assert np.count_nonzero(pair.h - np.diag(np.diagonal(pair.h))) > pair.size
    assert np.linalg.eigvalsh(pair.h)[0] > 0
    assert sbp_residual(pair) < 1e-13
    assert accuracy_residual(pair, 1) < 1e-12
    # T fixes x^(q+1) too, so the degree q+1 defect is T^-1 times the old
    # one and has the same H-norm.
    d2 = pair.d @ pair.x**2 - 2 * pair.x
    base_d2 = base.d @ base.x**2 - 2 * base.x
    assert d2 @ pair.h @ d2 == pytest.approx(base_d2 @ base.h @ base_d2, rel=1e-10)
    lam = np.sort_complex(np.linalg.eigvals(gen.d_tilde(pair)))
    ref = np.linalg.eigvals(gen.d_tilde(base))
    dist = np.abs(lam[:, None] - ref[None, :]).min(axis=1)
    assert dist.max() < 1e-9 * np.linalg.norm(gen.d_tilde(base))
    z = pair.planted
    assert np.max(np.abs(z.T @ pair.h @ z - np.eye(4))) < 1e-12


def test_counterexample_has_the_imaginary_pair():
    pair = gen.counterexample()
    assert sbp_residual(pair) < 1e-15
    assert accuracy_residual(pair, 1) < 1e-15
    lam = np.linalg.eigvals(gen.d_tilde(pair))
    assert np.min(np.abs(lam - 1j / np.sqrt(5))) < 1e-12


def test_lobatto_nodes():
    assert np.allclose(gen.chebyshev_lobatto(2, -1.0, 1.0), [-1, 0, 1], atol=1e-16)
    assert np.allclose(gen.legendre_lobatto(3, -1.0, 1.0),
                       [-1, -1 / np.sqrt(5), 1 / np.sqrt(5), 1], atol=1e-15)
    x = gen.legendre_lobatto(16, 100.0, 101.0)
    assert x[0] == 100.0 and x[-1] == 101.0 and np.all(np.diff(x) > 0)


def test_pools_are_seeded_and_valid():
    first = gen.diagnose_input(5, 1)
    assert np.array_equal(first.h, gen.diagnose_input(5, 1).h)
    assert not np.array_equal(first.h, gen.diagnose_input(6, 1).h)
    assert sbp_residual(first) < 1e-12
    for slot, (n, m, congruent, _, _) in enumerate(gen.REPAIR_SLOTS):
        pair, budget, norm = gen.repair_input(3, slot)
        assert pair.size == n + 1 and pair.omegas.size == m
        assert (pair.base is not None) == congruent
        assert sbp_residual(pair) < 1e-12
        assert gen.planted_spectrum_separated(pair.base or pair)
