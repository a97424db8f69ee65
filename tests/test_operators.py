import io
import json

import numpy as np
import pytest

from sbpkit import (
    Interval,
    NodeFamily,
    build_classical_fd,
    build_counterexample,
    build_pseudospectral_operator,
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
from sbpkit.operators import SbpOperatorPair, _is_diagonal, solve_against_norm

from oracles import N2_BYTES, peak_n2, reference_dumps


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


@pytest.mark.parametrize("n, interval", [(3, (0.0, 1.0)), (8, (-1.0, 2.0)), (97, (0.0, 0.3))])
def test_classical_fd_interior_rows_are_central_differences(n, interval):
    op = build_classical_fd(n, Interval(*interval))
    dx = (interval[1] - interval[0]) / n
    expected = np.zeros((n + 1, n + 1))
    expected[0, :2] = -1.0 / dx, 1.0 / dx
    expected[n, n - 1:] = -1.0 / dx, 1.0 / dx
    for i in range(1, n):
        expected[i, i - 1] = -1.0 / (2.0 * dx)
        expected[i, i + 1] = 1.0 / (2.0 * dx)
    assert op.d_plus.tobytes() == expected.tobytes()


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


def test_interval_rejects_a_string_endpoint():
    with pytest.raises(InvariantError, match="endpoint must be a real number, got 'x'"):
        Interval("x", 1.0)


def test_interval_rejects_a_missing_endpoint():
    with pytest.raises(InvariantError, match="endpoint must be a real number, got None"):
        Interval(None, 1.0)


BUILDERS = {
    "counterexample": build_counterexample,
    "two_point": build_two_point,
    "classical_fd": lambda: build_classical_fd(9, Interval(-1.0, 2.0)),
    "lgl": lambda: build_pseudospectral_operator(
        NodeFamily.legendre_gauss_lobatto(6, Interval(0.0, 1.0))),
    "cgl": lambda: build_pseudospectral_operator(
        NodeFamily.chebyshev_gauss_lobatto(6, Interval(0.0, 1.0))),
}
SOURCES = {
    **BUILDERS,
    "repaired": lambda: repair_operator(build_counterexample(), 1e-3)[0],
    "loaded": lambda: load_operator(io.StringIO(jsonio.dumps(
        operator_to_document(build_counterexample())))),
}
ARRAY_FIELDS = ("d_plus", "d_minus", "h", "s", "p0", "pn", "x")


@pytest.mark.parametrize("build", SOURCES.values(), ids=SOURCES.keys())
def test_arrays_are_locked(build):
    op = build()
    for attr in ARRAY_FIELDS:
        array = getattr(op, attr)
        # Each field owns its block or is the same array as another field.
        assert array.dtype == np.float64 and array.flags.c_contiguous, attr
        assert array.base is None, attr
        with pytest.raises(ValueError):
            array[0] = 7.0


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_builders_hold_d_plus_once(build):
    op = build()
    assert op.d_minus is op.d_plus


def test_a_read_only_array_that_owns_its_memory_is_adopted():
    op = build_classical_fd(8, Interval(0.0, 1.0))
    h = np.array(op.h)
    h.flags.writeable = False
    adopted = op.with_fields(h=h)
    assert adopted.h is h
    assert adopted.d_plus is op.d_plus and adopted.s is op.s


def _locked(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [
    lambda a: a,
    lambda a: _locked(a.view()),
    lambda a: _locked(a[:, :]),
    lambda a: _locked(np.asfortranarray(a)),
    lambda a: _locked(a.astype(np.float32)),
    lambda a: a.tolist(),
], ids=["writable", "read_only_view", "read_only_slice", "fortran", "float32", "list"])
def test_other_inputs_are_copied_and_locked(make):
    op = build_classical_fd(8, Interval(0.0, 1.0))
    source = np.array(op.d_plus)
    given = make(source)
    stored = op.with_fields(d_plus=given).d_plus
    assert stored is not given and not np.shares_memory(stored, source)
    assert not stored.flags.writeable and stored.base is None
    source[1, 1] = 7.0
    np.testing.assert_array_equal(stored, op.d_plus)


def test_one_read_only_view_for_two_vectors_is_copied_once():
    source = np.zeros(3)
    view = source[:]
    view.flags.writeable = False
    op = SbpOperatorPair(d_plus=np.eye(3), d_minus=np.eye(3), h=np.eye(3),
                         s=np.zeros((3, 3)), p0=view, pn=view, x=[0.0, 1.0, 2.0],
                         q=1, interval=Interval(0.0, 2.0))
    source[0] = 7.0
    assert op.p0[0] == 0.0 and op.pn is op.p0


def test_one_array_for_both_derivatives_is_stored_once():
    d = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    op = SbpOperatorPair(d_plus=d, d_minus=d, h=np.diag([0.5, 0.5]), s=np.zeros((2, 2)),
                         p0=[1.0, 0.0], pn=[0.0, 1.0], x=[0.0, 1.0], q=1,
                         interval=Interval(0.0, 1.0))
    assert op.d_minus is op.d_plus and op.d_plus is not d
    # Equal arrays that are two objects stay two arrays.
    two = op.with_fields(d_minus=np.array(d))
    assert two.d_minus is not two.d_plus


def test_a_repaired_operator_shares_the_fields_the_repair_keeps():
    op = build_counterexample()
    repaired, _ = repair_operator(op, 1e-3)
    for attr in ("h", "x", "p0", "pn"):
        assert getattr(repaired, attr) is getattr(op, attr), attr
    for attr in ("d_plus", "d_minus", "s"):
        assert not np.shares_memory(getattr(repaired, attr), getattr(op, attr)), attr
    renamed = repaired.with_fields(name="renamed")
    for attr in ARRAY_FIELDS:
        assert getattr(renamed, attr) is getattr(repaired, attr), attr


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


def _old_is_diagonal(a):
    # The reference: subtract the diagonal and count what is left.
    with np.errstate(invalid="ignore"):
        return np.count_nonzero(a - np.diag(np.diagonal(a))) == 0


NON_FINITE_NORMS = {
    "nan_diagonal": np.diag([1.0, np.nan, 2.0]),
    "inf_diagonal": np.diag([1.0, np.inf, 2.0]),
    "minus_inf_diagonal": np.diag([1.0, -np.inf, 2.0]),
    "nan_off_diagonal": np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
    "inf_off_diagonal": np.array([[1.0, 0.0, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 2.0]]),
}


@pytest.mark.parametrize("a", [
    np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)), np.diag([0.0, -0.0, 1.0]),
    np.array([[1.0, -0.0], [-0.0, 1.0]]), np.array([[1.0, 1e-300], [0.0, 1.0]]),
    np.eye(4)[:, ::-1], np.diag([1.0, 2.0, 3.0])[::2, ::2], np.asfortranarray(np.eye(3)),
    NON_FINITE_NORMS["nan_off_diagonal"], NON_FINITE_NORMS["inf_off_diagonal"],
], ids=["diag", "zero", "signed_zero_diagonal", "signed_zero_off", "tiny_off", "antidiag",
        "strided", "fortran", "nan_off_diagonal", "inf_off_diagonal"])
def test_is_diagonal_decides_as_the_subtraction_did(a):
    assert _is_diagonal(a) == _old_is_diagonal(a)


def test_is_diagonal_makes_no_array_of_its_input_size():
    a = np.diag(np.arange(1.0, 514.0))
    assert a.nbytes == N2_BYTES
    assert peak_n2(lambda: _is_diagonal(a)) < 0.01
    assert _is_diagonal(a)


@pytest.mark.parametrize("h", NON_FINITE_NORMS.values(), ids=NON_FINITE_NORMS.keys())
def test_a_non_finite_norm_is_refused_before_any_solve(h, monkeypatch):
    # Unchecked, LAPACK's LU returns [nan, nan, 0.5] for the nan diagonal
    # and [0, 0, 1] for the inf off the diagonal, without a word.
    def no_solve(*args):
        raise AssertionError("LAPACK solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    with pytest.raises(InvariantError, match="non-finite"):
        solve_against_norm(h, np.ones(3))


# ---------------------------------------------------------------------------
# memory: n^2 arrays held once


def test_classical_fd_build_holds_d_h_and_s_once():
    # D_plus (also D_minus), H and S, plus the mask of the finiteness check.
    assert peak_n2(lambda: build_classical_fd(512, Interval(0.0, 1.0))) <= 3.2


def test_with_fields_copies_no_matrix():
    op = build_classical_fd(512, Interval(0.0, 1.0))
    assert peak_n2(lambda: op.with_fields(name="renamed")) <= 0.2


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


def test_a_document_without_d_minus_and_s_holds_d_plus_once():
    doc = _parsed_document(build_classical_fd(6, Interval(0.0, 1.0)))
    del doc["D_minus"], doc["S"]
    loaded = operator_from_document(doc)
    assert loaded.d_minus is loaded.d_plus
    assert not np.any(loaded.s)


def test_a_document_given_as_arrays_keeps_them_as_they_are():
    # The caller's arrays are copied, not reshaped or locked in place.
    doc = operator_to_document(build_classical_fd(6, Interval(0.0, 1.0)))
    doc["H"] = np.array(doc["H"])
    loaded = operator_from_document(doc)
    assert doc["H"].shape == (49,) and doc["H"].flags.writeable
    assert not np.shares_memory(loaded.h, doc["H"])
    assert loaded.h.tobytes() == doc["H"].tobytes()


def test_loading_a_document_holds_each_matrix_once():
    # D_plus, D_minus, H and S, each read from its list into the array the
    # operator keeps.
    op = build_classical_fd(512, Interval(0.0, 1.0))
    doc = _parsed_document(op)
    assert peak_n2(lambda: operator_from_document(doc)) <= 4.2
    loaded = operator_from_document(doc)
    for attr in ("d_plus", "d_minus", "h", "s"):
        assert getattr(loaded, attr).tobytes() == getattr(op, attr).tobytes(), attr


def test_a_document_without_d_minus_derives_it_in_one_array():
    # D_plus, H and S, plus the one array of H^{-1} S that D_minus is
    # subtracted into.
    doc = _parsed_document(build_classical_fd(512, Interval(0.0, 1.0)))
    del doc["D_minus"]
    assert peak_n2(lambda: operator_from_document(doc)) <= 4.2


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal_h", "dense_h"])
def test_derive_d_minus_keeps_the_bits_of_the_subtraction(dense):
    rng = np.random.default_rng(11)
    d_plus = rng.normal(size=(7, 7))
    h = np.diag(rng.uniform(0.5, 2.0, 7))
    if dense:
        h += 0.01 * np.ones((7, 7))
    s = rng.normal(size=(7, 7))
    s = s @ s.T
    expected = d_plus - solve_against_norm(h, s)
    assert derive_d_minus(d_plus, h, s).tobytes() == expected.tobytes()


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
