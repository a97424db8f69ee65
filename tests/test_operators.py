import io
import json

import numpy as np
import pytest

from sbpkit import (
    Interval,
    build_classical_fd,
    build_counterexample,
    build_two_point,
    derive_d_minus,
    jsonio,
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

from oracles import reference_dumps


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


def test_order_cannot_exceed_n():
    fields = _bundle_fields(build_two_point())
    fields["q"] = 2
    with pytest.raises(InvariantError, match="exceeds n=1"):
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
# serialization


def _parsed_document(op):
    """The operator document as ``json.loads`` reads it: plain lists."""
    return json.loads(jsonio.dumps(operator_to_document(op)))


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
    # The document itself, arrays and all, also reads back.
    for loaded in (load_operator(path), operator_from_document(operator_to_document(op))):
        for attr in ("d_plus", "d_minus", "h", "s", "p0", "pn", "x"):
            np.testing.assert_array_equal(getattr(loaded, attr), getattr(op, attr))
        assert loaded.q == op.q
        assert loaded.interval == op.interval
        assert loaded.name == op.name


def test_document_holds_read_only_views_of_the_operator():
    op = build_counterexample()
    doc = operator_to_document(op)
    for key, array in (("x", op.x), ("D_plus", op.d_plus), ("D_minus", op.d_minus),
                       ("H", op.h), ("S", op.s), ("p0", op.p0), ("pn", op.pn)):
        assert doc[key].dtype == np.float64 and doc[key].ndim == 1
        assert np.shares_memory(doc[key], array)
        with pytest.raises(ValueError):
            doc[key][0] = 7.0
    assert doc["interval"] == [-2.5, 2.5]


@pytest.mark.parametrize(
    "bad",
    [np.zeros(5), np.zeros((6, 1)), np.arange(6), np.zeros(6, dtype=np.float32)],
    ids=["short", "2-d", "int", "float32"],
)
def test_document_array_of_another_shape_or_dtype_is_schema_error(bad):
    doc = operator_to_document(build_counterexample())
    doc["x"] = bad
    with pytest.raises(SchemaError, match="x"):
        operator_from_document(doc)


def test_round_trip_keeps_negative_zeros(tmp_path):
    # jsonio writes -0.0 as "-0", which JSON readers take for the integer 0.
    base = build_classical_fd(5, Interval(0.0, 1.0))
    d_plus = np.where(base.d_plus == 0, -0.0, base.d_plus)
    s = np.full_like(base.s, -0.0)
    p0 = np.where(base.p0 == 0, -0.0, base.p0)
    op = base.with_fields(d_plus=d_plus, d_minus=derive_d_minus(d_plus, base.h, s), s=s,
                          p0=p0, interval=Interval(-0.0, 1.0))
    assert np.signbit(op.d_plus).sum() > np.signbit(base.d_plus).sum()
    path = tmp_path / "op.json"
    save_operator(op, path)
    assert ", -0," in path.read_text()
    for loaded in (load_operator(path), operator_from_document(operator_to_document(op))):
        for attr in ("d_plus", "d_minus", "h", "s", "p0", "pn", "x"):
            assert getattr(loaded, attr).tobytes() == getattr(op, attr).tobytes(), attr
        assert str(loaded.interval.a) == "-0.0"


@pytest.mark.parametrize("name", ["plain", "has-0", "-0"])
def test_load_reads_integer_negative_zero_with_or_without_one(name):
    # With or without the literal -0, also with -0 only inside the name, the
    # saved doubles read back bit for bit.
    base = build_classical_fd(6, Interval(0.0, 1.0)).with_fields(name=name)
    d_plus = np.where(base.d_plus == 0, -0.0, base.d_plus)
    signed = base.with_fields(d_plus=d_plus, d_minus=derive_d_minus(d_plus, base.h, base.s))
    for op in (base, signed):
        buffer = io.StringIO()
        save_operator(op, buffer)
        text = buffer.getvalue()
        assert (", -0," in text) == (op is signed)
        loaded = load_operator(io.StringIO(text))
        for attr in ("d_plus", "d_minus", "h", "s", "p0", "pn", "x"):
            assert getattr(loaded, attr).tobytes() == getattr(op, attr).tobytes(), attr
        assert loaded.name == name


def test_save_is_deterministic():
    op = build_counterexample()
    first, second = io.StringIO(), io.StringIO()
    save_operator(op, first)
    save_operator(op, second)
    assert first.getvalue() == second.getvalue()


def test_save_writes_the_list_document():
    # The operator's arrays are written byte for byte as their lists.
    base = build_classical_fd(6, Interval(0.0, 1.0))
    d_plus = np.where(base.d_plus == 0, -0.0, base.d_plus)
    for op in (build_counterexample(), build_two_point(),
               base.with_fields(d_plus=d_plus, d_minus=derive_d_minus(d_plus, base.h, base.s))):
        buffer = io.StringIO()
        save_operator(op, buffer)
        lists = {key: value.tolist() if isinstance(value, np.ndarray) else value
                 for key, value in operator_to_document(op).items()}
        assert buffer.getvalue() == reference_dumps(lists) + "\n"


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
    doc = _parsed_document(op)
    k = len(doc["D_plus"]) - 7
    doc["D_plus"][k] = bad
    with pytest.raises(SchemaError, match=rf"D_plus\[{k}\]") as excinfo:
        operator_from_document(doc)
    assert excinfo.value.path == f"D_plus[{k}]"


@pytest.mark.parametrize("field", ["x", "D_plus", "interval"])
def test_integer_too_large_for_a_double_names_its_entry(field):
    doc = _parsed_document(build_two_point())
    doc[field][1] = 10**400
    with pytest.raises(SchemaError, match=rf"{field}\[1\]: integer too large") as excinfo:
        operator_from_document(doc)
    assert excinfo.value.path == f"{field}[1]"
    with pytest.raises(SchemaError, match=rf"{field}\[1\]"):
        load_operator(io.StringIO(json.dumps(doc)))


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


@pytest.mark.parametrize("q", [21, 10**30])
def test_document_with_order_above_n_is_rejected(q):
    doc = _parsed_document(build_classical_fd(20, Interval(0.0, 1.0)))
    doc["q"] = q
    with pytest.raises(InvariantError, match="exceeds n=20"):
        load_operator(io.StringIO(json.dumps(doc)))


def test_bad_interval_entry():
    doc = operator_to_document(build_two_point())
    doc["interval"] = [0.0]
    with pytest.raises(SchemaError, match="interval"):
        operator_from_document(doc)


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_operator(io.StringIO("{not json"))


def test_text_that_is_not_utf8_is_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(ParseError, match="decode"):
        load_operator(path)
    with pytest.raises(ParseError, match="decode"):
        load_operator(io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))


def test_integer_beyond_the_digit_limit_is_parse_error():
    # json.loads raises a plain ValueError for it, not a JSONDecodeError.
    doc = _parsed_document(build_two_point())
    text = json.dumps(doc).replace('"q": 1', '"q": 1' + "0" * 5000)
    with pytest.raises(ParseError, match="digits"):
        load_operator(io.StringIO(text))


def test_non_object_document_rejected():
    with pytest.raises(SchemaError):
        operator_from_document([1, 2, 3])


@pytest.mark.parametrize("field, value, message", [
    ("n", True, "expected an integer"),
    ("n", 0, "n must be >= 1"),
    ("name", 7, "expected a string"),
], ids=["n_bool", "n_zero", "name_not_a_string"])
def test_bad_scalar_field_is_schema_error_with_its_path(field, value, message):
    doc = _parsed_document(build_two_point())
    doc[field] = value
    with pytest.raises(SchemaError, match=message) as excinfo:
        operator_from_document(doc)
    assert excinfo.value.path == field
