"""Operator document I/O.

The on-disk format is a JSON object with keys ``n``, ``q``, ``interval``
(two numbers), ``x`` (n+1 numbers), ``D_plus``, ``D_minus``, ``H``, ``S``
(row-major arrays of (n+1)^2 numbers each), ``p0``, ``pn`` (n+1 numbers)
and an optional ``name``.  ``D_minus`` and ``S`` may be omitted on input;
S then defaults to zero and D_minus is derived (D_plus itself without S).
Floats are written with full round-trip precision, so save/load is
bit-exact.  ``-0.0`` is written as ``-0``, which JSON readers take for the
integer 0; :func:`load_operator` reads that literal back as ``-0.0``.

There is one document shape: :func:`operator_to_document` holds each matrix
or vector as a flat float64 array, a read-only view of the operator's own,
so the document is written with :func:`sbpkit.jsonio.dumps`, byte for byte as
its lists; ``json.dumps`` does not accept it.  :func:`save_operator` writes
that document.  :func:`operator_from_document` reads these arrays as well as
the lists of a parsed document.

Number lists are validated and converted in one numpy pass when every entry
is a plain ``int`` or ``float``; otherwise entry by entry, so that a bool, a
non-number or an integer too large for a double is reported with its path
(for example ``D_plus[k]``).
"""

from __future__ import annotations

import json
import os
from typing import IO, Any

import numpy as np

from . import jsonio
from .errors import ParseError, SchemaError
from .operators import Interval, SbpOperatorPair, _read_only, derive_d_minus

__all__ = [
    "operator_to_document",
    "operator_from_document",
    "save_operator",
    "load_operator",
]


def operator_to_document(op: SbpOperatorPair) -> dict[str, Any]:
    """Build the JSON-ready document for an operator, each matrix or vector a
    flat float64 array (a read-only view of the operator's own)."""
    doc: dict[str, Any] = {"n": op.n, "q": op.q, "interval": [op.interval.a, op.interval.b]}
    for key, array in (("x", op.x), ("D_plus", op.d_plus), ("D_minus", op.d_minus),
                       ("H", op.h), ("S", op.s), ("p0", op.p0), ("pn", op.pn)):
        doc[key] = array.ravel()
    if op.name is not None:
        doc["name"] = op.name
    return doc


def _require(doc: dict, key: str) -> Any:
    if key not in doc:
        raise SchemaError("required field is missing", path=key)
    return doc[key]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {value!r}", path=path)
    return value


def _as_float_array(value: Any, length: int, path: str) -> np.ndarray:
    # The 1-d float64 arrays of operator_to_document, or the lists of a
    # parsed document.
    array = isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1
    if not (array or isinstance(value, list)):
        raise SchemaError(f"expected a list or a 1-d float64 array, got {type(value).__name__}",
                          path=path)
    if len(value) != length:
        raise SchemaError(f"expected {length} numbers, got {len(value)}", path=path)
    if array:
        return value
    # json.loads yields only int and float for numbers: convert in one pass.
    # Anything else (bools included) takes the loop that names the entry.
    # An integer too large for a double takes the loop as well.
    if set(map(type, value)) <= {int, float}:
        try:
            return np.array(value, dtype=float)
        except OverflowError:
            pass
    out = np.empty(length, dtype=float)
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise SchemaError(f"expected a number, got {entry!r}", path=f"{path}[{i}]")
        try:
            out[i] = float(entry)
        except OverflowError:
            raise SchemaError("integer too large for a double", path=f"{path}[{i}]") from None
    return out


def _as_matrix(value: Any, m: int, path: str) -> np.ndarray:
    """The m x m matrix of a flat field.  An array made here is reshaped in
    place and locked, so the operator adopts it; a caller's array is viewed,
    and the operator copies it."""
    flat = _as_float_array(value, m * m, path)
    if flat is value:
        return flat.reshape(m, m)
    flat.shape = (m, m)
    flat.flags.writeable = False
    return flat


def operator_from_document(doc: Any) -> SbpOperatorPair:
    """Validate a parsed document and rebuild the operator.

    Structural invariants (shapes, distinct nodes) are re-checked by the
    operator constructor; violations surface as ``InvariantError``.  The
    matrices read from lists are held once, by the operator; without
    ``D_minus`` and ``S``, S = 0 and ``D_minus`` is ``D_plus`` itself.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}", path="")
    n = _as_int(_require(doc, "n"), "n")
    if n < 1:
        raise SchemaError(f"n must be >= 1, got {n}", path="n")
    q = _as_int(_require(doc, "q"), "q")
    m = n + 1
    interval_raw = _as_float_array(_require(doc, "interval"), 2, "interval")
    x = _as_float_array(_require(doc, "x"), m, "x")
    d_plus = _as_matrix(_require(doc, "D_plus"), m, "D_plus")
    h = _as_matrix(_require(doc, "H"), m, "H")
    p0 = _as_float_array(_require(doc, "p0"), m, "p0")
    pn = _as_float_array(_require(doc, "pn"), m, "pn")
    s = _as_matrix(doc["S"], m, "S") if "S" in doc else _read_only(np.zeros((m, m)))
    if "D_minus" in doc:
        d_minus = _as_matrix(doc["D_minus"], m, "D_minus")
    elif "S" in doc:
        d_minus = _read_only(derive_d_minus(d_plus, h, s))
    else:
        d_minus = d_plus  # D_plus - H^{-1} 0
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"expected a string, got {name!r}", path="name")
    return SbpOperatorPair(
        d_plus=d_plus,
        d_minus=d_minus,
        h=h,
        s=s,
        p0=p0,
        pn=pn,
        x=x,
        q=q,
        interval=Interval(interval_raw[0], interval_raw[1]),
        name=name,
    )


def _parse_int(literal: str) -> int | float:
    """``json.loads`` hook for integer literals: ``-0`` is the double -0.0."""
    return -0.0 if literal == "-0" else int(literal)


def save_operator(op: SbpOperatorPair, destination: str | os.PathLike | IO[str]) -> None:
    """Write the operator document (bit-exact round trip with load)."""
    text = jsonio.dumps(operator_to_document(op)) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_operator(source: str | os.PathLike | IO[str]) -> SbpOperatorPair:
    """Read, validate and rebuild an operator document."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text, parse_int=_parse_int)
    except ValueError as exc:
        # Text that is not UTF-8 (a UnicodeDecodeError), a JSONDecodeError,
        # or an integer literal longer than Python's limit on int digits.
        raise ParseError(f"cannot parse the document: {exc}") from exc
    return operator_from_document(doc)
