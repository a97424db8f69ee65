import io

import numpy as np
import pytest

from sbpkit import (
    Interval,
    OperatorFlavor,
    build_classical_fd,
    build_counterexample,
    build_two_point,
    classify_flavor,
    derive_d_minus,
    load_operator,
    operator_from_document,
    operator_to_document,
    repair_operator,
    save_operator,
    verify_all,
)
from sbpkit.errors import (
    InvariantError,
    ParameterError,
    ParseError,
    SchemaError,
    ShapeError,
    SingularNormError,
)
from sbpkit.operators import SbpOperatorPair, solve_against_norm


# ---------------------------------------------------------------------------
# builders


def test_counterexample_entries():
    op = build_counterexample()
    assert op.d_plus[0, 0] == -1.0
    assert op.h[1, 1] == 1.0
    assert op.x[0] == -2.5
    assert op.q == 1
    assert op.interval == Interval(-2.5, 2.5)
    np.testing.assert_array_equal(op.s, np.zeros((6, 6)))
    np.testing.assert_array_equal(op.p0, np.eye(6)[0])
    np.testing.assert_array_equal(op.pn, np.eye(6)[5])


def test_counterexample_row_sums_vanish():
    op = build_counterexample()
    assert np.max(np.abs(op.d_plus @ np.ones(6))) <= 1e-15


def test_counterexample_differentiates_x_exactly():
    op = build_counterexample()
    np.testing.assert_allclose(op.d_plus @ op.x, np.ones(6), rtol=0, atol=1e-14)


def test_two_point_identity():
    op = build_two_point()
    lhs = op.h @ op.d_plus + op.d_plus.T @ op.h
    np.testing.assert_array_equal(lhs, np.array([[-1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(
        lhs, -np.outer(op.p0, op.p0) + np.outer(op.pn, op.pn)
    )


def test_two_point_differentiates_x():
    op = build_two_point()
    np.testing.assert_array_equal(op.d_plus @ op.x, np.ones(2))


def test_two_point_penalized_eigenvalues():
    op = build_two_point()
    d_tilde = op.d_plus + np.linalg.solve(op.h, np.outer(op.p0, op.p0))
    lam = np.sort_complex(np.linalg.eigvals(d_tilde))
    np.testing.assert_allclose(lam, [1.0 - 1.0j, 1.0 + 1.0j], atol=1e-14)


def test_classical_fd_small_instance():
    op = build_classical_fd(2, Interval(0.0, 1.0))
    np.testing.assert_array_equal(
        op.d_plus, np.array([[-2.0, 2.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -2.0, 2.0]])
    )
    np.testing.assert_array_equal(op.h, np.diag([0.25, 0.5, 0.25]))
    np.testing.assert_array_equal(op.x, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("n,interval", [(2, (0.0, 1.0)), (7, (-1.0, 2.0)), (64, (0.0, 1.0))])
def test_classical_fd_verifies(n, interval):
    report = verify_all(build_classical_fd(n, Interval(*interval)))
    assert report.all_passed()
    assert report.observed_order == 1


def test_every_builtin_has_tiny_residuals():
    operators = [
        build_counterexample(),
        build_two_point(),
        build_classical_fd(2, Interval(0.0, 1.0)),
        build_classical_fd(100, Interval(0.0, 1.0)),
        build_classical_fd(33, Interval(-1.0, 2.0)),
    ]
    for op in operators:
        report = verify_all(op)
        assert max(r.residual for r in report.residuals) < 1e-12, op.name


def test_classical_fd_rejects_tiny_n():
    with pytest.raises(ParameterError):
        build_classical_fd(1, Interval(0.0, 1.0))


# ---------------------------------------------------------------------------
# structural invariants


def _bundle_fields(op):
    return dict(
        d_plus=op.d_plus, d_minus=op.d_minus, h=op.h, s=op.s,
        p0=op.p0, pn=op.pn, x=op.x, q=op.q, interval=op.interval,
    )


def test_duplicate_nodes_rejected():
    op = build_classical_fd(2, Interval(0.0, 1.0))
    fields = _bundle_fields(op)
    fields["x"] = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InvariantError, match="pairwise distinct"):
        SbpOperatorPair(**fields)


def test_shape_mismatch_rejected():
    op = build_two_point()
    fields = _bundle_fields(op)
    fields["h"] = np.eye(3)
    with pytest.raises(InvariantError, match="shape"):
        SbpOperatorPair(**fields)


def test_order_must_be_positive():
    fields = _bundle_fields(build_two_point())
    fields["q"] = 0
    with pytest.raises(InvariantError):
        SbpOperatorPair(**fields)


def test_nonfinite_entries_rejected():
    fields = _bundle_fields(build_two_point())
    fields["s"] = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(InvariantError, match="finite"):
        SbpOperatorPair(**fields)


def test_interval_requires_b_greater_than_a():
    with pytest.raises(InvariantError):
        Interval(1.0, 1.0)


def test_arrays_are_locked():
    op = build_two_point()
    with pytest.raises(ValueError):
        op.d_plus[0, 0] = 7.0


# ---------------------------------------------------------------------------
# derive_d_minus


def test_derive_d_minus_zero_dissipation():
    op = build_counterexample()
    np.testing.assert_array_equal(derive_d_minus(op.d_plus, op.h, op.s), op.d_plus)
    np.testing.assert_array_equal(op.d_minus, op.d_plus)


def test_derive_d_minus_after_repair_closes_identity():
    repaired, _ = repair_operator(build_counterexample(), 1e-3)
    assert np.max(np.abs(repaired.d_minus - repaired.d_plus)) > 0.0
    lhs = repaired.h @ repaired.d_plus + repaired.d_minus.T @ repaired.h
    rhs = -np.outer(repaired.p0, repaired.p0) + np.outer(repaired.pn, repaired.pn)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_derive_d_minus_singular_norm():
    with pytest.raises(SingularNormError):
        derive_d_minus(np.eye(2), np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(SingularNormError):
        derive_d_minus(np.eye(2), np.ones((2, 2)), np.eye(2))


def test_derive_d_minus_shape_check():
    with pytest.raises(ShapeError):
        derive_d_minus(np.eye(2), np.eye(2), np.eye(3))


def test_solve_against_norm_matches_dense_solve():
    rng = np.random.default_rng(3)
    h = np.diag(rng.uniform(0.5, 2.0, 5))
    rhs = rng.normal(size=(5, 5))
    np.testing.assert_allclose(
        solve_against_norm(h, rhs), np.linalg.solve(h, rhs), atol=1e-14
    )
    dense = h + 0.01 * np.ones((5, 5))
    np.testing.assert_allclose(
        solve_against_norm(dense, rhs), np.linalg.solve(dense, rhs), atol=1e-12
    )


# ---------------------------------------------------------------------------
# flavor classification


def test_flavors():
    assert classify_flavor(build_counterexample()) is OperatorFlavor.CLASSICAL
    repaired, _ = repair_operator(build_counterexample(), 1e-3)
    assert classify_flavor(repaired) is OperatorFlavor.UPWIND

    op = build_two_point()
    generalized = op.with_fields(p0=np.array([0.9, 0.1]))
    assert classify_flavor(generalized) is OperatorFlavor.GENERALIZED
    general = generalized.with_fields(s=np.full((2, 2), 0.25))
    assert classify_flavor(general) is OperatorFlavor.GENERAL


# ---------------------------------------------------------------------------
# serialization


def _builtin_catalog():
    return [
        build_counterexample(),
        build_two_point(),
        build_classical_fd(5, Interval(0.0, 1.0)),
        build_classical_fd(17, Interval(-2.0, 3.5)),
        repair_operator(build_counterexample(), 1e-4)[0],
    ]


@pytest.mark.parametrize("idx", range(5))
def test_round_trip_is_bit_exact(idx, tmp_path):
    op = _builtin_catalog()[idx]
    path = tmp_path / "op.json"
    save_operator(op, path)
    loaded = load_operator(path)
    for attr in ("d_plus", "d_minus", "h", "s", "p0", "pn", "x"):
        np.testing.assert_array_equal(getattr(loaded, attr), getattr(op, attr))
    assert loaded.q == op.q
    assert loaded.interval == op.interval
    assert loaded.name == op.name


def test_save_is_deterministic():
    op = build_counterexample()
    first, second = io.StringIO(), io.StringIO()
    save_operator(op, first)
    save_operator(op, second)
    assert first.getvalue() == second.getvalue()


def test_optional_fields_default():
    op = build_two_point()
    doc = operator_to_document(op)
    del doc["D_minus"]
    del doc["S"]
    del doc["name"]
    loaded = operator_from_document(doc)
    np.testing.assert_array_equal(loaded.s, np.zeros((2, 2)))
    np.testing.assert_array_equal(loaded.d_minus, op.d_plus)
    assert loaded.name is None


def test_duplicate_nodes_in_document():
    doc = operator_to_document(build_classical_fd(2, Interval(0.0, 1.0)))
    doc["x"] = [0.0, 0.0, 1.0]
    with pytest.raises(InvariantError, match="pairwise distinct"):
        operator_from_document(doc)


def test_missing_field_is_schema_error():
    doc = operator_to_document(build_two_point())
    del doc["H"]
    with pytest.raises(SchemaError, match="H"):
        operator_from_document(doc)


def test_wrong_length_matrix_is_schema_error():
    doc = operator_to_document(build_two_point())
    doc["D_plus"] = [1.0, 2.0, 3.0]
    with pytest.raises(SchemaError, match="D_plus"):
        operator_from_document(doc)


def test_non_number_entry_names_field_path():
    doc = operator_to_document(build_two_point())
    doc["x"] = [0.0, "one"]
    with pytest.raises(SchemaError, match=r"x\[1\]"):
        operator_from_document(doc)


@pytest.mark.parametrize("bad", [True, "0.5", [0.5]], ids=["bool", "string", "nested"])
def test_bad_entry_deep_in_large_matrix_names_its_index(bad):
    op = build_classical_fd(40, Interval(0.0, 1.0))
    doc = operator_to_document(op)
    k = len(doc["D_plus"]) - 7
    doc["D_plus"][k] = bad
    with pytest.raises(SchemaError, match=rf"D_plus\[{k}\]") as excinfo:
        operator_from_document(doc)
    assert excinfo.value.path == f"D_plus[{k}]"


def test_numpy_scalar_entries_accepted():
    op = build_classical_fd(8, Interval(0.0, 1.0))
    doc = operator_to_document(op)
    doc["D_plus"] = [np.float64(v) for v in doc["D_plus"]]
    doc["x"] = [np.float64(v) for v in doc["x"]]
    loaded = operator_from_document(doc)
    np.testing.assert_array_equal(loaded.d_plus, op.d_plus)
    np.testing.assert_array_equal(loaded.x, op.x)


def test_integer_entries_load_as_floats():
    op = build_two_point()
    doc = operator_to_document(op)
    doc["x"] = [int(v) for v in doc["x"]]
    loaded = operator_from_document(doc)
    assert loaded.x.dtype == np.float64
    np.testing.assert_array_equal(loaded.x, op.x)


def test_bad_interval_entry():
    doc = operator_to_document(build_two_point())
    doc["interval"] = [0.0]
    with pytest.raises(SchemaError, match="interval"):
        operator_from_document(doc)


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_operator(io.StringIO("{not json"))


def test_non_object_document_rejected():
    with pytest.raises(SchemaError):
        operator_from_document([1, 2, 3])
