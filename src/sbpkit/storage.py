"""Operator document I/O.

The on-disk format is a JSON object with keys ``n``, ``q``, ``interval``
(two numbers), ``x`` (n+1 numbers), ``D_plus``, ``D_minus``, ``H``, ``S``
(row-major arrays of (n+1)^2 numbers each), ``p0``, ``pn`` (n+1 numbers)
and an optional ``name``.  ``D_minus`` and ``S`` may be omitted on input;
S then defaults to zero and D_minus is derived.  Floats are written with
full round-trip precision, so save/load is bit-exact, except that ``-0.0`` is
written as ``-0`` and loads as ``+0.0``.

Number arrays are validated and converted in one numpy pass when every entry
is a plain ``int`` or ``float``; otherwise entry by entry, so that a bool or
a non-number is reported with its path (for example ``D_plus[k]``).
"""

from __future__ import annotations

import json
import os
from typing import IO, Any

import numpy as np

from . import jsonio
from .errors import ParseError, SchemaError
from .operators import Interval, SbpOperatorPair, derive_d_minus

__all__ = [
    "operator_to_document",
    "operator_from_document",
    "save_operator",
    "load_operator",
]


def operator_to_document(op: SbpOperatorPair) -> dict[str, Any]:
    """Build the JSON-ready document for an operator."""
    doc: dict[str, Any] = {
        "n": op.n,
        "q": op.q,
        "interval": [op.interval.a, op.interval.b],
        "x": op.x.tolist(),
        "D_plus": op.d_plus.ravel().tolist(),
        "D_minus": op.d_minus.ravel().tolist(),
        "H": op.h.ravel().tolist(),
        "S": op.s.ravel().tolist(),
        "p0": op.p0.tolist(),
        "pn": op.pn.tolist(),
    }
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
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {type(value).__name__}", path=path)
    if len(value) != length:
        raise SchemaError(f"expected {length} numbers, got {len(value)}", path=path)
    # json.loads yields only int and float for numbers: convert in one pass.
    # Anything else (bools included) takes the loop that names the entry.
    if set(map(type, value)) <= {int, float}:
        return np.array(value, dtype=float)
    out = np.empty(length, dtype=float)
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise SchemaError(f"expected a number, got {entry!r}", path=f"{path}[{i}]")
        out[i] = float(entry)
    return out


def operator_from_document(doc: Any) -> SbpOperatorPair:
    """Validate a parsed document and rebuild the operator.

    Structural invariants (shapes, distinct nodes) are re-checked by the
    operator constructor; violations surface as ``InvariantError``.
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
    d_plus = _as_float_array(_require(doc, "D_plus"), m * m, "D_plus").reshape(m, m)
    h = _as_float_array(_require(doc, "H"), m * m, "H").reshape(m, m)
    p0 = _as_float_array(_require(doc, "p0"), m, "p0")
    pn = _as_float_array(_require(doc, "pn"), m, "pn")
    if "S" in doc:
        s = _as_float_array(doc["S"], m * m, "S").reshape(m, m)
    else:
        s = np.zeros((m, m))
    if "D_minus" in doc:
        d_minus = _as_float_array(doc["D_minus"], m * m, "D_minus").reshape(m, m)
    else:
        d_minus = derive_d_minus(d_plus, h, s)
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
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return operator_from_document(doc)
