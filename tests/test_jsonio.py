import json
import struct

import numpy as np
import pytest

from sbpkit.errors import ParameterError
from sbpkit.jsonio import dumps, format_float


def _reference(obj, indent=2, level=0):
    """The document format, element by element with ``format(v, ".17g")``."""
    pad, inner = " " * indent * level, " " * indent * (level + 1)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {_reference(v, indent, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, bool, np.generic)) for v in obj):
            return "[" + ", ".join(_reference(v) for v in obj) + "]"
        items = [inner + _reference(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    return json.dumps(obj)


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

CASES = {
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_element_wise_reference(name):
    obj = CASES[name]
    assert dumps(obj) == _reference(obj)
    assert dumps({"k": obj}, indent=4) == _reference({"k": obj}, indent=4)


@pytest.mark.parametrize("name", ["special", "random_bits", "random_scaled"])
def test_round_trip_is_bit_exact(name):
    # -0.0 is written as "-0", which json.loads reads as the integer 0.
    values = [v for v in CASES[name] if struct.pack("<d", v) != struct.pack("<d", -0.0)]
    back = json.loads(dumps(values))
    assert [struct.pack("<d", v) for v in back] == [struct.pack("<d", v) for v in values]


def test_format_float_is_the_list_format():
    for v in SPECIAL + CASES["random_bits"][:200]:
        assert format_float(v) == format(v, ".17g")
        assert dumps([v]) == "[" + format_float(v) + "]"
    assert format_float(np.float32(0.1)) == format(float(np.float32(0.1)), ".17g")


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", [
    lambda bad: [0.5] * 100 + [bad] + [1.5],
    lambda bad: [bad],
    lambda bad: [1, bad, True],
    lambda bad: [np.float64(0.5), bad],
    lambda bad: {"rows": [[0.5], [bad]]},
    lambda bad: bad,
], ids=["floats", "single", "mixed", "numpy", "nested", "scalar"])
def test_non_finite_is_refused(bad, where):
    with pytest.raises(ParameterError, match="cannot serialize non-finite number"
                       ) as excinfo:
        dumps(where(bad))
    assert repr(bad) in str(excinfo.value)


def test_non_finite_numpy_scalar_is_refused():
    with pytest.raises(ParameterError, match="non-finite number inf"):
        dumps([np.float64("inf"), 0.5])


def test_non_string_key_is_refused():
    with pytest.raises(ParameterError, match="keys must be strings, got 1"):
        dumps({1: [0.5]})


def test_unknown_type_is_refused():
    with pytest.raises(ParameterError, match="type complex"):
        dumps([0.5, 1j])
