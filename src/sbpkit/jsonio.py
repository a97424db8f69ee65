"""Deterministic JSON emission with full-precision floats.

Every report and operator document goes through :func:`dumps` so that
identical inputs always produce byte-identical output: keys keep their
insertion order, each level is indented by two spaces and floats are
printed with 17 significant digits (``%.17g``), which round-trips IEEE
doubles exactly.  Non-finite floats are refused with ``ParameterError``.

Besides the JSON types, a document may hold float64 arrays: a 1-D array is
written as a flat list and a 2-D array as a list of rows, byte for byte as
its ``tolist()``.  Report and operator documents hold their tables that way,
so they are written with this module; ``json.dumps`` does not accept them.  Arrays of
another dtype or dimension are refused with ``ParameterError``.

One walk writes the document in order.  Plain lists and scalars are
printed value by value with ``%.17g``, and so is an array of fewer than
``_SHORT`` values, as its ``tolist()``.  A longer array is written where the
walk meets it, in blocks of whole rows (or pieces of a row) of at most
``_CHUNK`` values.  Each block is checked for non-finite values (the first
one raises the error), and numpy computes the text of the whole block at
once:

- The 17 significant digits of ``|x|`` are the integer ``D = round(y)``,
  ``y = |x| 10^k`` with ``10^16 <= y < 10^17``.  Dekker's two-product (1971)
  against a double-double table of ``10^k`` gives ``y = hi + lo`` with ``hi``
  an integer and an absolute error below ``1e-14``, so ``D = hi + rint(lo)``
  is the correctly rounded ``D`` unless ``y`` lies near a half-integer.  A
  ``D`` of ``10^17`` carries into the exponent; a zero takes ``D = 0``.
- Sign, digits, decimal point, exponent and the separator ``", "`` are laid
  into ``uint8`` columns, one row per value.  Columns a value does not use
  hold NUL, and deleting every NUL byte leaves the block's text.  The last
  value of a row gets ``]`` instead of the separator, and each ``]`` is
  followed by the text between rows.

``%.17g`` itself formats every value the fast path cannot decide, in one
``map`` per block: values outside ``_FAST_MIN <= |x| < _FAST_MAX`` and
values whose ``y`` lies within ``_TIE_MARGIN`` of a half-integer (an 18th
digit at or next to a rounding tie).  Everything else gets the
digits ``%.17g`` computes, since both round correctly, and the same
notation rule: exponent form when the decimal exponent is below -4 (the
fast range has none of 17 or more), trailing zeros and a bare point
dropped.  So every byte equals the ``%.17g`` output.

Beyond the pieces of the document's text, one block's arrays and text are
alive at a time: a strided array is copied a block at a time, never whole.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ParameterError

__all__ = ["dumps"]

#: The one number format of every document.
_FORMAT_FLOAT = "%.17g".__mod__

#: Doubles formatted per numpy pass; bounds the working set of one dumps call.
_CHUNK = 4096

#: Arrays with fewer values are written as their ``tolist()``: the numpy
#: pass costs about 100 us to set up, more than ``%.17g`` takes for them.
_SHORT = 48

#: The fast path's range of |x|.
_FAST_MIN, _FAST_MAX = 1e-28, 1e16

#: Distance of |x| 10^k from a half-integer below which %.17g decides.
_TIE_MARGIN = 1e-9

# 10^k for k = 0 .. 46 as hi + lo (both doubles), with hi split into
# 26-bit halves for Dekker's product.
_POW10 = [10**k for k in range(47)]
_P_HI = np.array(_POW10, dtype=float)
_P_LO = np.array([p - int(h) for p, h in zip(_POW10, _P_HI)], dtype=float)
_SPLIT = 134217729.0  # 2^27 + 1
_P_HH = _P_HI * _SPLIT - (_P_HI * _SPLIT - _P_HI)
_P_HL = _P_HI - _P_HH

# Each entry of _DIGIT_WORDS spells four digits as the eight bytes
# "d\0d\0d\0d\0", the layout of digits 1-16 in a row (below).  Entry g
# spells g with its trailing zeros as NUL, entry 10000 + g all four digits.
_QUADS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
_TRAILING = np.logical_and.accumulate(_QUADS[:, ::-1] == ord("0"), axis=1)[:, ::-1]
_DIGIT_WORDS = np.zeros((2, 10000, 8), dtype=np.uint8)
_DIGIT_WORDS[0, :, ::2] = _QUADS * ~_TRAILING
_DIGIT_WORDS[1, :, ::2] = _QUADS
_DIGIT_WORDS = _DIGIT_WORDS.view(np.uint64).ravel()
del _QUADS, _TRAILING

# One row of 48 bytes per value: the sign in column 0, the "0." and zeros of
# 0.000ddd in columns 1-5, significant digit j in column 6 + 2j with a
# decimal point after it in column 7 + 2j, the exponent in columns 40-43 and
# the separator in 44-45.  Every column a value leaves empty holds NUL.
_DIGIT, _EXP, _SEP, _WIDTH = 6, 40, 44, 48

#: Decimal exponents of the fast range (1e-28 itself prints as 9.99...e-29).
_X_MIN, _X_MAX = -29, 15


def _templates() -> np.ndarray:
    """The bytes of a row that depend on the decimal exponent X alone: row
    ``X - _X_MIN``."""
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    sci = x < -4
    small = (x < 0) & ~sci
    j = np.arange(17)
    rows = np.zeros((x.size, _WIDTH), dtype=np.uint8)
    rows[:, 1:3] = np.where(small, np.frombuffer(b"0.", dtype=np.uint8), 0)
    rows[:, 3:6] = np.where(small & (j[:3] < -1 - x), ord("0"), 0)
    # The integer digits of a fixed-point value print their trailing zeros.
    rows[:, _DIGIT:_EXP:2] = np.where((x >= 0) & (j <= x), ord("0"), 0)
    exponent = b"".join(b"e%+03d" % e for e in range(_X_MIN, _X_MAX + 1))
    exponent = np.frombuffer(exponent, dtype=np.uint8).reshape(-1, 4)
    rows[:, _EXP:_SEP] = np.where(sci, exponent, 0)
    rows[:, _SEP:_SEP + 2] = np.frombuffer(b", ", dtype=np.uint8)
    return rows


_TEMPLATES = _templates()


def _format_float(value: float) -> str:
    """Render a finite double with 17 significant digits."""
    if not math.isfinite(value):
        raise ParameterError(f"cannot serialize non-finite number {value!r}")
    return _FORMAT_FLOAT(float(value))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10^k`` as ``hi + lo``: Dekker's two-product plus the table's lo."""
    hi = a * _P_HI[k]
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    bh, bl = _P_HH[k], _P_HL[k]
    err = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, err + a * _P_LO[k]


def _format_chunk(v: np.ndarray, last: np.ndarray) -> str:
    """Text of the finite values ``v`` as list elements: ``]`` after the
    values at ``last``, ``", "`` after every other value."""
    size = v.size
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    zero = v == 0
    a[~fast] = 1.0

    # Decimal exponent X of |x|, so that y = |x| 10^(16 - X) is in [1e16, 1e17).
    # log10 may miss by one next to a power of ten; the exact test mends it.
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    miss = np.flatnonzero(low | high)
    if miss.size:
        k[miss] += low[miss].astype(np.intp) - high[miss]
        hi[miss], lo[miss] = _scaled(a[miss], k[miss])
    slow = np.abs(lo - np.floor(lo) - 0.5) < _TIE_MARGIN
    slow |= ~(fast | zero)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    d[zero] = 0
    x = 16 - k + carry
    x[zero] = 0

    # Digits 1-16 in four groups of four, which leaves d the leading digit.
    # A group keeps its trailing zeros only if a later group is nonzero, so
    # the number's trailing zeros are NUL.
    groups = np.empty((4, size), dtype=np.intp)
    for g in (3, 2, 1, 0):
        q = d // 10000
        np.subtract(d, 10000 * q, out=groups[g])
        d = q
    later = groups[3] != 0
    for g in (2, 1, 0):
        nonzero = groups[g] != 0
        np.add(groups[g], 10000, out=groups[g], where=later)
        later |= nonzero
    words = np.take(_DIGIT_WORDS, groups)

    buf = np.take(_TEMPLATES, x - _X_MIN, axis=0)
    buf[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    buf[:, _DIGIT] = d + ord("0")
    for g in range(4):
        buf.view(np.uint64)[:, 1 + g] |= words[g]
    # A point follows the units digit (the first digit in exponent form) if
    # a digit after it is printed; 0.000ddd has its point in the template.
    flat = buf.ravel()
    at = np.arange(size) * _WIDTH + _DIGIT + 1 + 2 * np.maximum(x, 0)
    flat[at[(flat[at + 1] != 0) & ((x < -4) | (x >= 0))]] = ord(".")
    buf[last, _SEP] = ord("]")
    buf[last, _SEP + 1] = 0

    # %.17g writes the values the fast path does not decide, spliced in
    # where their rows hold a lone \x01.
    slow = np.flatnonzero(slow)
    if slow.size:
        buf[slow, :_SEP] = 0
        buf[slow, 0] = 1
    text = buf.tobytes().translate(None, b"\0").decode("ascii")
    if slow.size:
        parts = text.split("\x01")
        spliced = [""] * (2 * len(parts) - 1)
        spliced[::2] = parts
        spliced[1::2] = map(_FORMAT_FLOAT, v[slow].tolist())
        text = "".join(spliced)
    return text


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, once none of them is inf or nan."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        _format_float(values[bad[0]].item())  # raises, naming the value
    return values


def _emit_rows(rows: np.ndarray, sep: str, out: list) -> None:
    """Append the text of each row of ``rows`` without its ``[``, with
    ``sep`` between rows, at most ``_CHUNK`` values per numpy pass."""
    height, width = rows.shape
    step = max(1, _CHUNK // width)
    for i in range(0, height, step):
        for j in range(0, width, _CHUNK):
            block = rows[i:i + step, j:j + _CHUNK]  # copied below if strided
            cut = block.shape[1]
            values = _finite(block.reshape(-1))
            last = np.arange(cut - 1, values.size, cut) if j + cut == width else []
            out.append(_format_chunk(values, last).replace("]", "]" + sep))
    out[-1] = out[-1].removesuffix(sep)


def _emit(obj: Any, level: int, out: list) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ParameterError(f"JSON object keys must be strings, got {key!r}")
            out.append(inner)
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value, level + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim not in (1, 2):
            raise ParameterError(
                f"cannot serialize a {obj.ndim}-d array of {obj.dtype}; "
                "only 1-d and 2-d float64 arrays are written")
        if obj.size < _SHORT:
            _emit(obj.tolist(), level, out)
        elif obj.ndim == 1:
            out.append("[")
            _emit_rows(obj[None], "", out)
        else:
            out.append("[\n" + inner + "[")
            _emit_rows(obj, ",\n" + inner + "[", out)
            out.append("\n" + pad + "]")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        # Flat numeric lists stay on one line; nested structures get spread.
        if all(isinstance(v, (int, float, bool, np.generic)) for v in obj):
            out.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        out.append("[\n")
        for k, value in enumerate(obj):
            out.append(inner)
            _emit(value, level + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(obj: Any) -> str:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ParameterError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Serialize to a deterministic JSON string (no trailing newline).

    ``obj`` may hold 1-d and 2-d float64 arrays besides the JSON types; they
    are written as ``obj.tolist()`` would be.
    """
    out: list[str] = []
    _emit(obj, 0, out)
    return "".join(out)
