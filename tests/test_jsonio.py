import json
import math
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from oracles import reference_dumps
from sbpkit import jsonio
from sbpkit.errors import ParameterError
from sbpkit.jsonio import dumps


def _random_doubles(seed, size):
    """Doubles drawn from uniformly random bit patterns, non-finite ones dropped."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)].tolist()


SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, 123456789012345678.0, 1 / 3,
]



def _ties():
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5: %.17g must round them half to even."""
    rng = np.random.default_rng(4)
    odd = [1, 3, 5, 7, 2**17 + 1] + (2 * rng.integers(1, 2**52, 400) + 1).tolist()
    found = [1 + 2**-17]
    for j in range(1, 90):
        for m in odd:
            value = math.ldexp(m, -j)
            digits = Decimal(value).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                found += [value, -value]
    return found


def _near_ties():
    """Doubles x = m 2^-(s + k) with y = x 10^k = m 5^k / 2^s only i / 2^s
    (|i| <= 3, s >= 49) off a half-integer.  Below 1e-6, 10^k is not a double
    and the product's error can round these the wrong way."""
    found = []
    for k in range(23, 45):
        for s in range(int(2.32 * k) - 5, int(2.32 * k) + 1):
            inverse = pow(5**k, -1, 2**s)
            for i in (-3, -2, -1, 1, 2, 3):
                m = (2 ** (s - 1) + i) * inverse % 2**s
                m += -(-max(2**52 - m, 0) // 2**s) * 2**s
                x = math.ldexp(m, -s - k)
                if m < 2**53 and x >= jsonio._FAST_MIN and 10**16 <= Fraction(x) * 10**k < 10**17:
                    found += [x, -x]
    return found


def _powers_of_ten():
    """Each power of ten from 1e-30 to 1e20 and both neighbours, signed."""
    powers = [float(f"1e{e}") for e in range(-30, 21)]
    near = powers + [np.nextafter(p, 0.0) for p in powers] + [np.nextafter(p, np.inf)
                                                              for p in powers]
    return [float(v) for v in near] + [-float(v) for v in near]


def _limits():
    """The fast range's limits, values that round up to the next power of ten
    (notation switches included), subnormals and zeros."""
    edges = [jsonio._FAST_MIN, jsonio._FAST_MAX, 1e-5, 1e-4, 1e16, 1e17]
    values = edges + [float(np.nextafter(e, t)) for e in edges for t in (0.0, np.inf)]
    values += [float(f"9.99999999999999996e{e}") for e in range(-31, 19)]
    values += [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310, 0.0, -0.0]
    return values + [-v for v in values]


ADVERSARIAL = {"ties": _ties(), "near_ties": _near_ties(), "powers_of_ten": _powers_of_ten(),
               "limits": _limits()}

CASES = {
    **ADVERSARIAL,
    "special": SPECIAL,
    "random_bits": _random_doubles(1, 2000),
    "random_normal": np.random.default_rng(2).normal(size=(40, 40)).ravel().tolist(),
    "random_scaled": (np.random.default_rng(3).uniform(-1, 1, 500)
                      * 10.0 ** np.arange(-250, 250)).tolist(),
    "tuple": tuple(SPECIAL),
    "ints": [0, -1, 2**53 + 1, 10**30],
    "bools": [True, False, True],
    "numpy_scalars": [np.float64(0.5), np.float32(0.1), np.int64(-3), np.bool_(True)],
    "mixed": [1, 2.5, True, -0.0, np.float64(1e-310)],
    "float_subclass": [np.float64(v) for v in SPECIAL],
    "nested": [[0.5, -0.0], [1, 2], [], {"a": [1e-320]}],
    "empty_list": [],
    "empty_dict": {},
    "document": {"n": 3, "x": SPECIAL, "name": "op", "none": None,
                 "rows": [[1.5, 2.5], [3.5]], "flags": [True], "empty": []},
    # A list longer than a chunk, and lists whose first value ends a chunk:
    # a zero, a %.17g value, a value that ends the chunk and its list.
    "long_list": np.random.default_rng(5).normal(size=3 * jsonio._CHUNK + 17).tolist(),
    "straddle": [[0.5] * (jsonio._CHUNK - 1), [0.0, -0.0, 1.5], [0.25] * (jsonio._CHUNK - 3),
                 [1e300, 2.0], [0.75] * (jsonio._CHUNK - 2), [-2.5], [3.5, 1e-300]],
}


def test_the_adversarial_cases_exist():
    assert len(ADVERSARIAL["ties"]) > 100
    assert all(len(Decimal(v).as_tuple().digits) == 18 for v in ADVERSARIAL["ties"])
    assert len(ADVERSARIAL["near_ties"]) > 40
    for x in ADVERSARIAL["near_ties"]:
        y = abs(Fraction(x)) * 10 ** (16 - math.floor(math.log10(abs(x))))
        assert 0 < abs(y - math.floor(y) - Fraction(1, 2)) < 1e-14


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_element_wise_reference(name):
    obj = CASES[name]
    assert dumps(obj) == reference_dumps(obj)
    assert dumps({"k": obj}) == reference_dumps({"k": obj})


def test_any_finite_doubles_match_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    special = sorted(v for values in ADVERSARIAL.values() for v in values)
    doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.floats(jsonio._FAST_MIN, jsonio._FAST_MAX),
                        st.sampled_from(special))
    # A run of padding in front moves the drawn lists across chunk boundaries.
    pad = st.one_of(st.integers(0, 3 * jsonio._CHUNK),
                    st.integers(jsonio._CHUNK - 40, jsonio._CHUNK))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.lists(st.lists(doubles, min_size=1, max_size=40), max_size=6), pad)
    def check(lists, padding):
        doc = [[0.5] * padding, *lists] if padding else lists
        assert dumps(doc) == reference_dumps(doc)
        assert dumps([np.array(v) for v in doc]) == reference_dumps(doc)
        # One array, so that the drawn values meet the ends of its chunks.
        flat = [v for values in doc for v in values]
        assert dumps(np.array(flat)) == reference_dumps(flat)

    check()


def test_random_bit_patterns_match_format():
    values = _random_doubles(6, 20000)
    scaled = (np.random.default_rng(7).uniform(-1, 1, 20000)
              * 10.0 ** np.random.default_rng(8).uniform(-30, 17, 20000)).tolist()
    for case in (values, scaled):
        assert dumps(case) == "[" + ", ".join(format(v, ".17g") for v in case) + "]"


@pytest.mark.parametrize("name", ["special", "random_bits", "random_scaled"])
def test_round_trip_is_bit_exact(name):
    # -0.0 is written as "-0", which json.loads reads as the integer 0
    # (storage.load_operator reads it back as -0.0).
    values = [v for v in CASES[name] if struct.pack("<d", v) != struct.pack("<d", -0.0)]
    back = json.loads(dumps(values))
    assert [struct.pack("<d", v) for v in back] == [struct.pack("<d", v) for v in values]


def test_a_lone_float_has_the_list_format():
    for v in SPECIAL + CASES["random_bits"][:200]:
        assert dumps(v) == format(v, ".17g")
        assert dumps([v]) == "[" + dumps(v) + "]"
    assert dumps(np.float32(0.1)) == format(float(np.float32(0.1)), ".17g")


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", [
    lambda bad: [0.5] * 100 + [bad] + [1.5],
    lambda bad: [bad],
    lambda bad: [1, bad, True],
    lambda bad: [np.float64(0.5), bad],
    lambda bad: {"rows": [[0.5], [bad]]},
    lambda bad: bad,
    lambda bad: [[0.5] * (jsonio._CHUNK + 5), [1.5, bad]],
    lambda bad: [0.5] * 7 + [bad] + [0.5] * (2 * jsonio._CHUNK),
], ids=["floats", "single", "mixed", "numpy", "nested", "scalar", "later_chunk", "full_chunk"])
def test_non_finite_is_refused(bad, where):
    with pytest.raises(ParameterError, match="cannot serialize non-finite number"
                       ) as excinfo:
        dumps(where(bad))
    assert repr(bad) in str(excinfo.value)


@pytest.mark.parametrize("doc, named", [
    ({"a": [0.5, math.nan], "b": math.inf}, "nan"),
    ({"a": [0.5, math.nan], "b": {1: 0.5}}, "nan"),
    ({"a": [0.5, 1.5], "b": math.inf, "c": [math.nan]}, "inf"),
    ({"a": [[0.5] * jsonio._CHUNK, [-math.inf]], "b": [math.nan]}, "-inf"),
], ids=["list_then_scalar", "list_then_key", "scalar_then_list", "two_lists"])
def test_the_first_bad_value_in_emit_order_is_named(doc, named):
    with pytest.raises(ParameterError, match=f"non-finite number {named}$"):
        dumps(doc)


def test_non_finite_numpy_scalar_is_refused():
    with pytest.raises(ParameterError, match="non-finite number inf"):
        dumps([np.float64("inf"), 0.5])


def test_non_string_key_is_refused():
    with pytest.raises(ParameterError, match="keys must be strings, got 1"):
        dumps({1: [0.5]})


def test_unknown_type_is_refused():
    with pytest.raises(ParameterError, match="type complex"):
        dumps([0.5, 1j])


# ---------------------------------------------------------------------------
# float64 arrays are written as their tolist()

FLOAT_CASES = sorted(name for name, obj in CASES.items()
                     if obj and isinstance(obj, (list, tuple)) and set(map(type, obj)) == {float})


def _views(values):
    """The values as a 1-D array, reshaped to rows, Fortran-ordered, and as
    strided views of both."""
    a = np.array(values, dtype=float)
    rows = a[:a.size - a.size % 3].reshape(-1, 3)
    return {"1d": a, "2d": rows, "fortran": np.asfortranarray(rows), "transposed": rows.T,
            "strided_1d": a[::-2], "strided_2d": rows[::2, ::2], "column": rows[:, 1]}


def test_the_float_cases_exist():
    assert {"ties", "near_ties", "powers_of_ten", "limits", "special", "random_bits",
            "tuple", "long_list"} <= set(FLOAT_CASES)


@pytest.mark.parametrize("name", FLOAT_CASES)
def test_float64_arrays_give_the_bytes_of_their_lists(name):
    for view, a in _views(CASES[name]).items():
        assert a.dtype == np.float64
        assert dumps(a) == reference_dumps(a.tolist()), view
        assert dumps({"k": a, "and": [a, a.tolist()]}) == reference_dumps(
            {"k": a.tolist(), "and": [a.tolist(), a.tolist()]}), view


def test_array_layouts_are_covered():
    views = _views(CASES["special"])
    assert views["fortran"].flags.f_contiguous and not views["fortran"].flags.c_contiguous
    assert not views["strided_1d"].flags.contiguous
    assert not views["column"].flags.contiguous
    assert not views["strided_2d"].flags.c_contiguous and views["strided_2d"].shape == (3, 2)
    assert views["2d"].ndim == views["transposed"].ndim == 2


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
def test_empty_arrays(shape):
    a = np.zeros(shape)
    assert dumps(a) == reference_dumps(a.tolist())
    assert dumps({"a": a, "b": [1.5]}) == reference_dumps({"a": a.tolist(), "b": [1.5]})


def test_negative_zero_in_arrays():
    a = np.array([-0.0, 0.0, -0.0])
    assert dumps(a) == "[-0, 0, -0]"
    assert dumps(a.reshape(3, 1)) == "[\n  [-0],\n  [0],\n  [-0]\n]"


def test_arrays_and_lists_mix_in_one_document():
    # Arrays of whole chunks and of parts of one, between plain lists.
    rng = np.random.default_rng(9)
    doc = {"a": rng.normal(size=(jsonio._CHUNK // 3, 5)), "b": rng.normal(size=7).tolist(),
           "c": rng.normal(size=jsonio._CHUNK + 3), "d": [[0.5, 1e300], np.array([2.5])]}
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    plain["d"] = [[0.5, 1e300], [2.5]]
    assert dumps(doc) == reference_dumps(plain)


def _chunk_edge_arrays():
    """The ``long_list`` and ``straddle`` cases as arrays, rows that end next
    to a chunk end, rows longer than a chunk, and a strided view of them."""
    c = jsonio._CHUNK
    rows = np.random.default_rng(10).normal(size=(6, 2 * c + 6))
    # A zero, a negative zero and values %.17g formats where chunks and rows end.
    rows[:, [0, c - 2, c - 1, c, 2 * c, -1]] = [0.0, -0.0, 1e300, -1e-300, 2.5, 1e-5]
    return {"long_list": np.array(CASES["long_list"]),
            "straddle": [np.array(values) for values in CASES["straddle"]],
            "rows_near_chunk_ends": np.ascontiguousarray(rows[:, :c - 1]),
            "rows_of_a_third_chunk": np.ascontiguousarray(rows[:, :c // 3 + 1]),
            "rows_longer_than_a_chunk": rows,
            "strided": rows[:, ::2]}


def test_the_chunk_edge_arrays_exist():
    arrays = _chunk_edge_arrays()
    assert arrays["long_list"].size > 3 * jsonio._CHUNK
    assert arrays["rows_longer_than_a_chunk"].shape[1] > 2 * jsonio._CHUNK
    assert arrays["strided"].shape[1] > jsonio._CHUNK
    assert not arrays["strided"].flags.contiguous


@pytest.mark.parametrize("name", sorted(_chunk_edge_arrays()))
def test_arrays_across_chunk_ends_give_the_bytes_of_their_lists(name):
    obj = _chunk_edge_arrays()[name]
    plain = [a.tolist() for a in obj] if isinstance(obj, list) else obj.tolist()
    assert dumps(obj) == reference_dumps(plain)
    assert dumps({"k": [obj, 0.5]}) == reference_dumps({"k": [plain, 0.5]})


@pytest.mark.parametrize("shape", [(400, 500), (200_000,)])
def test_the_working_set_is_about_two_texts(shape):
    # The pieces of the text and their join are alive together: twice the
    # text.  A further copy of an array's whole text would read three times.
    a = np.random.default_rng(12).normal(size=shape)
    tracemalloc.start()
    try:
        text = dumps(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize("doc, named", [
    ({"a": np.array([0.5, np.nan]), "b": [math.inf]}, "nan"),
    ({"a": [0.5, -math.inf], "b": np.array([np.nan])}, "-inf"),
    ({"a": np.ones((3, 2)), "b": np.array([[0.5, 1.5], [np.inf, np.nan]]), "c": [math.nan]},
     "inf"),
    ({"a": np.ones(jsonio._CHUNK + 1), "b": [0.5, math.nan], "c": np.array([-np.inf])}, "nan"),
    ({"a": np.array([1.0, -np.inf] + [0.5] * jsonio._CHUNK), "b": [math.nan]}, "-inf"),
    ({"a": np.array([0.5]), "b": [1, math.inf], "c": np.array([np.nan])}, "inf"),
    ({"a": np.array([0.5, np.nan]), "b": [1, math.inf]}, "nan"),
    ({"a": np.array([0.5, 1.5])[::-1], "b": np.array([[np.nan, 1.0]]).T}, "nan"),
], ids=["array_then_list", "list_then_array", "rows", "later_chunk", "full_chunk",
        "mixed_list_first", "array_before_mixed_list", "strided"])
def test_the_first_non_finite_value_among_arrays_and_lists_is_named(doc, named):
    with pytest.raises(ParameterError, match=f"non-finite number {named}$"):
        dumps(doc)


@pytest.mark.parametrize("array", [
    np.arange(3), np.array([True, False]), np.array([1 + 2j, 0.5]), np.array(0.5),
    np.zeros((2, 2, 2)), np.zeros(3, dtype=np.float32), np.array(["a"]),
], ids=["int", "bool", "complex", "0-d", "3-d", "float32", "str"])
def test_other_arrays_are_refused(array):
    with pytest.raises(ParameterError, match="cannot serialize"):
        dumps({"a": [0.5], "b": array})


# ---------------------------------------------------------------------------
# short arrays take the tolist() path


def test_arrays_below_the_cut_off_skip_the_numpy_formatter(monkeypatch):
    chunks = []
    format_chunk = jsonio._format_chunk
    monkeypatch.setattr(jsonio, "_format_chunk",
                        lambda v, last: chunks.append(v.size) or format_chunk(v, last))
    short, long = np.linspace(-1.0, 1.0, jsonio._SHORT - 1), np.linspace(-1.0, 1.0, jsonio._SHORT)
    assert dumps({"a": short, "b": short.reshape(1, -1)}) == reference_dumps(
        {"a": short.tolist(), "b": [short.tolist()]})
    assert chunks == []
    assert dumps(long) == reference_dumps(long.tolist())
    assert chunks == [jsonio._SHORT]


@pytest.mark.parametrize("name", FLOAT_CASES)
def test_short_arrays_through_the_numpy_formatter_give_the_bytes_of_their_lists(
        name, monkeypatch):
    # With the cut-off at one value the numpy formatter writes every array.
    monkeypatch.setattr(jsonio, "_SHORT", 1)
    for view, a in _views(CASES[name]).items():
        assert dumps(a) == reference_dumps(a.tolist()), view
    assert dumps(np.array([-0.0, 0.0, -0.0]).reshape(3, 1)) == "[\n  [-0],\n  [0],\n  [-0]\n]"
    with pytest.raises(ParameterError, match="non-finite number nan$"):
        dumps({"a": np.array([0.5, np.nan]), "b": [1, math.inf]})
