
import re

import numpy as np
import pytest

from sbpkit import (
    FlowDirection,
    Interval,
    NodeFamily,
    SatProblem,
    assemble,
    build_classical_fd,
    build_counterexample,
    build_d_tilde,
    build_pseudospectral_operator,
    build_two_point,
    convergence_study,
    repair_operator,
    solve,
)
from sbpkit.errors import ParameterError, ShapeError, SingularSystemError
from sbpkit.operators import solve_against_norm

from oracles import peak_n2, polynomial_exactness_check


def _crippled_counterexample():
    op = build_counterexample()
    d = np.array(op.d_plus)
    d[2] = 0.0
    d[3] = 0.0
    return op.with_fields(d_plus=d, d_minus=d)


# ---------------------------------------------------------------------------
# assembly


def test_forward_assembly_two_point():
    op = build_two_point()
    matrix, rhs = assemble(op, SatProblem(f_samples=[1.0, 1.0], u0=0.0))
    np.testing.assert_array_equal(matrix, [[1.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(rhs, [1.0, 1.0])


def test_forward_matrix_is_the_penalized_matrix():
    op = build_counterexample()
    matrix, _ = assemble(op, SatProblem(f_samples=np.zeros(6), u0=0.5))
    np.testing.assert_array_equal(matrix, build_d_tilde(op))


def test_forward_datum_enters_through_the_norm():
    op = build_two_point()
    _, rhs = assemble(op, SatProblem(f_samples=[0.0, 0.0], u0=3.0))
    np.testing.assert_array_equal(rhs, [6.0, 0.0])


@pytest.mark.parametrize("direction", list(FlowDirection), ids=lambda d: d.value)
def test_assembly_solves_against_a_dense_norm_once(direction, monkeypatch):
    op = build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(6, Interval(0.0, 1.0)))
    assert np.count_nonzero(op.h - np.diag(np.diagonal(op.h))) > 0
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    assemble(op, SatProblem(f_samples=np.zeros(7), u0=1.0, direction=direction))
    assert len(solves) == 1


@pytest.mark.parametrize("direction", list(FlowDirection), ids=lambda d: d.value)
@pytest.mark.parametrize("build", [
    lambda: build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(9, Interval(-1.0, 3.0))),
    lambda: repair_operator(build_counterexample(), 1e-3)[0],
    lambda: build_classical_fd(31, Interval(0.0, 0.7)),
], ids=["cgl", "repaired", "classical_fd"])
def test_assembly_keeps_the_bits_of_d_plus_sigma_times_the_outer_product(build, direction):
    op = build()
    problem = SatProblem(f_samples=np.zeros(op.n + 1), u0=1.0, direction=direction)
    d, boundary = ((op.d_plus, op.p0) if direction is FlowDirection.FORWARD
                   else (op.d_minus, op.pn))
    penalty = solve_against_norm(op.h, boundary)
    expected = d + problem.sigma * np.outer(penalty, boundary)
    assert assemble(op, problem)[0].tobytes() == expected.tobytes()


def test_reversed_assembly_two_point():
    op = build_two_point()
    matrix, rhs = assemble(
        op, SatProblem(f_samples=[1.0, 1.0], u0=1.0, direction=FlowDirection.REVERSED)
    )
    np.testing.assert_array_equal(matrix, [[-1.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_array_equal(rhs, [1.0, -1.0])


def test_problem_sigma_follows_direction():
    forward = SatProblem(f_samples=[0.0, 0.0], u0=0.0)
    reversed_ = SatProblem(f_samples=[0.0, 0.0], u0=0.0,
                           direction=FlowDirection.REVERSED)
    assert forward.sigma == 1.0
    assert reversed_.sigma == -1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_problem_rejects_non_finite_data(bad):
    with pytest.raises(ParameterError, match="f_samples"):
        SatProblem(f_samples=[0.0, bad], u0=0.0)
    with pytest.raises(ParameterError, match="u0"):
        SatProblem(f_samples=[0.0, 0.0], u0=bad)


def test_problem_rejects_a_datum_that_is_not_a_number():
    with pytest.raises(ParameterError, match="u0 must be a real number, got None"):
        SatProblem(f_samples=[0.0, 0.0], u0=None)


def test_problem_rejects_samples_that_are_not_numbers():
    with pytest.raises(ParameterError, match="f_samples must be real numbers"):
        SatProblem(f_samples=["a", "b"], u0=0.0)


def test_problem_rejects_a_ragged_datum():
    with pytest.raises(ParameterError, match=re.escape("u0 must be a number, got [1, [2]]")):
        SatProblem(f_samples=[1.0, 2.0], u0=[1, [2]])


def test_problem_rejects_ragged_samples():
    with pytest.raises(ParameterError,
                       match=re.escape("f_samples must be real numbers, got [1, [2, 3]]")):
        SatProblem(f_samples=[1, [2, 3]], u0=0.0)


@pytest.mark.parametrize("direction", list(FlowDirection), ids=lambda d: d.value)
def test_a_direction_given_by_its_value_solves_the_same_problem(direction):
    op = build_classical_fd(32, Interval(0.0, 1.0))
    u0 = np.sin(op.interval.b if direction is FlowDirection.REVERSED else op.interval.a)
    by_value = solve(op, SatProblem(np.cos(op.x), u0, direction.value))
    np.testing.assert_array_equal(by_value, solve(op, SatProblem(np.cos(op.x), u0, direction)))
    assert np.max(np.abs(by_value - np.sin(op.x))) < 1e-3


def test_problem_rejects_an_unknown_direction():
    with pytest.raises(ParameterError, match="sideways"):
        SatProblem(f_samples=[0.0, 0.0], u0=0.0, direction="sideways")


def test_assembly_rejects_wrong_sample_count():
    with pytest.raises(ShapeError):
        assemble(build_two_point(), SatProblem(f_samples=[1.0, 2.0, 3.0], u0=0.0))


# ---------------------------------------------------------------------------
# solving


def test_two_point_reproduces_the_identity_map():
    op = build_two_point()
    u = solve(op, SatProblem(f_samples=[1.0, 1.0], u0=0.0))
    np.testing.assert_allclose(u, [0.0, 1.0], atol=1e-14)


def test_counterexample_system_is_uniquely_solvable():
    op = build_counterexample()
    u = solve(op, SatProblem(f_samples=np.zeros(6), u0=1.0))
    matrix, rhs = assemble(op, SatProblem(f_samples=np.zeros(6), u0=1.0))
    np.testing.assert_allclose(matrix @ u, rhs, atol=1e-12)


def test_engineered_kernel_makes_solve_singular():
    op = _crippled_counterexample()
    with pytest.raises(SingularSystemError):
        solve(op, SatProblem(f_samples=np.ones(6), u0=0.0))


def test_reversed_solve_reproduces_decreasing_line():
    # u' = -1 with u(1) = 0 has solution 1 - x
    op = build_two_point()
    u = solve(
        op,
        SatProblem(f_samples=[-1.0, -1.0], u0=0.0, direction=FlowDirection.REVERSED),
    )
    np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("n", [2, 16, 33])
def test_mirror_symmetry(n):
    # reflecting the data through the interval midpoint must reflect the
    # solution: v(x) = u(a + b - x) solves the reversed problem with
    # g(x) = -f(a + b - x) and datum at b
    interval = Interval(0.0, 1.0)
    op = build_classical_fd(n, interval)
    coeffs = np.array([0.75, -2.0])  # u(x) = 0.75 - 2 x
    exact = np.polynomial.Polynomial(coeffs)
    u = solve(
        op,
        SatProblem(f_samples=exact.deriv()(op.x), u0=exact(interval.a)),
    )
    reflected = interval.a + interval.b - op.x
    v = solve(
        op,
        SatProblem(
            f_samples=-exact.deriv()(reflected),
            u0=exact(interval.a),
            direction=FlowDirection.REVERSED,
        ),
    )
    np.testing.assert_allclose(v, u[::-1], atol=1e-9)


MIRROR_FAMILIES = {
    "classical_fd": (2, 64, build_classical_fd),
    "legendre_gauss_lobatto": (1, 24, lambda n, interval: build_pseudospectral_operator(
        NodeFamily.legendre_gauss_lobatto(n, interval))),
    "chebyshev_gauss_lobatto": (1, 24, lambda n, interval: build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(n, interval))),
}


@pytest.mark.parametrize("family", sorted(MIRROR_FAMILIES))
def test_reversed_solve_mirrors_the_forward_solve(family):
    # the reversed solve of -f[::-1] with the datum at b is the forward
    # solve of f reversed, for any data and interval
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    low, high, build = MIRROR_FAMILIES[family]

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(low, high), st.floats(-10.0, 10.0), st.floats(0.1, 10.0),
                      st.integers(0, 2**32 - 1), st.floats(-1e3, 1e3))
    def check(n, a, length, seed, u0):
        op = build(n, Interval(a, a + length))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-3.0, 3.0, n + 1)
        u = solve(op, SatProblem(f_samples=f, u0=u0))
        v = solve(op, SatProblem(f_samples=-f[::-1], u0=u0,
                                 direction=FlowDirection.REVERSED))
        np.testing.assert_allclose(v, u[::-1], rtol=0.0, atol=1e-10 * np.max(np.abs(u)))

    check()


# ---------------------------------------------------------------------------
# polynomial exactness harness


def test_two_point_linear_reproduction():
    op = build_two_point()
    poly = np.polynomial.Polynomial([1.0, 2.0])  # 2x + 1
    u = solve(op, SatProblem(f_samples=poly.deriv()(op.x), u0=poly(0.0)))
    assert np.max(np.abs(u - poly(op.x))) < 1e-12
    assert polynomial_exactness_check(op) < 1e-12


def test_pseudospectral_quartic_reproduction():
    op = build_pseudospectral_operator(
        NodeFamily.legendre_gauss_lobatto(4, Interval(-1.0, 1.0))
    )
    assert polynomial_exactness_check(op, degree=4) < 1e-9


def test_counterexample_is_not_exact_beyond_its_order():
    op = build_counterexample()
    assert polynomial_exactness_check(op) < 1e-9
    assert polynomial_exactness_check(op, degree=2) > 1e-3


def test_exactness_harness_rejects_bad_degree():
    with pytest.raises(ParameterError):
        polynomial_exactness_check(build_two_point(), degree=-1)


# ---------------------------------------------------------------------------
# convergence studies


def test_classical_fd_second_order_convergence():
    study = convergence_study(
        build=lambda n: build_classical_fd(n, Interval(0.0, 1.0)),
        f=np.cos,
        exact_u=np.sin,
        ns=[32, 64, 128, 256],
    )
    assert study.fitted_order >= 1.9
    assert all(order >= 1.9 for order in study.pairwise_orders)
    assert not study.saturated
    assert all(e_max >= e_h for e_max, e_h in zip(study.errors_max, study.errors_h))


def test_convergence_needs_at_least_three_grids():
    with pytest.raises(ParameterError):
        convergence_study(
            build=lambda n: build_classical_fd(n, Interval(0.0, 1.0)),
            f=np.cos,
            exact_u=np.sin,
            ns=[64],
        )
    with pytest.raises(ParameterError):
        convergence_study(
            build=lambda n: build_classical_fd(n, Interval(0.0, 1.0)),
            f=np.cos,
            exact_u=np.sin,
            ns=[64, 128],
        )


def test_an_exact_solution_that_overflows_at_the_nodes_is_refused():
    # exp(1000) overflows: a ParameterError, and no numpy warning escapes
    # (the suite turns warnings into errors).
    with pytest.raises(ParameterError, match="exact solution is not finite"):
        convergence_study(
            build=lambda n: build_classical_fd(n, Interval(0.0, 1000.0)),
            f=np.exp,
            exact_u=np.exp,
            ns=[8, 16, 32],
        )


def test_a_right_hand_side_that_overflows_at_the_nodes_is_refused():
    with pytest.raises(ParameterError, match="f_samples must be finite"):
        convergence_study(
            build=lambda n: build_classical_fd(n, Interval(0.0, 1000.0)),
            f=lambda x: np.exp(x) * x,
            exact_u=lambda x: np.exp(-x),
            ns=[8, 16, 32],
        )


def test_constant_data_saturates():
    study = convergence_study(
        build=lambda n: build_classical_fd(n, Interval(0.0, 1.0)),
        f=lambda x: np.zeros_like(x),
        exact_u=lambda x: np.full_like(np.asarray(x, dtype=float), 4.0),
        ns=[8, 16, 32],
    )
    assert study.saturated
    assert max(study.errors_h) <= 1e-12


def test_a_solve_holds_one_system_matrix():
    # The assembled matrix; LAPACK's own copy of it is not traced.
    op = build_classical_fd(512, Interval(0.0, 1.0))
    problem = SatProblem(f_samples=np.cos(op.x), u0=0.5)
    assert peak_n2(lambda: solve(op, problem)) <= 1.1


def test_a_convergence_study_holds_one_operator_and_one_system():
    # D_plus (also D_minus), H, S and the system at the finest grid.
    interval = Interval(0.0, 1.0)
    assert peak_n2(lambda: convergence_study(
        lambda n: build_classical_fd(n, interval), np.cos, np.sin, [64, 128, 256, 512],
    )) <= 4.2


def test_solution_residual_bound_is_enforced():
    # solvable but observed residuals stay inside the advertised bound
    op = build_classical_fd(128, Interval(0.0, 1.0))
    problem = SatProblem(f_samples=np.cos(op.x), u0=0.0)
    matrix, rhs = assemble(op, problem)
    u = solve(op, problem)
    residual = np.linalg.norm(matrix @ u - rhs)
    bound = 1e-12 * (
        np.linalg.norm(matrix, "fro") * np.linalg.norm(u) + np.linalg.norm(rhs)
    )
    assert residual <= bound
