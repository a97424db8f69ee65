"""Deterministic JSON emission with full-precision floats.

Every report and operator document goes through :func:`dumps` so that
identical inputs always produce byte-identical output: keys keep their
insertion order and floats are printed with 17 significant digits
(``%.17g``), which round-trips IEEE doubles exactly.  Non-finite floats are
refused with ``ParameterError``.

A flat list whose elements are all exactly ``float`` (the shape of every
``ndarray.tolist()`` in a document) is formatted in one pass with
``map``/``join``.  Finite ``%.17g`` output never contains the letter ``n``,
so an ``n`` in the joined text means an inf or a nan is present; the list
then takes the per-element path, which raises the error.  Every other list
(ints, bools, numpy scalars, mixed or nested) takes the per-element path.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ParameterError

__all__ = ["dumps", "format_float"]

#: The one number format of every document.
_FORMAT_FLOAT = "%.17g".__mod__


def format_float(value: float) -> str:
    """Render a finite double with 17 significant digits."""
    if not math.isfinite(value):
        raise ParameterError(f"cannot serialize non-finite number {value!r}")
    return _FORMAT_FLOAT(float(value))


def _emit(obj: Any, indent: int, level: int, out: list[str]) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
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
            _emit(value, indent, level + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        # Flat numeric arrays stay on one line; nested structures get spread.
        if set(map(type, obj)) == {float}:
            text = ", ".join(map(_FORMAT_FLOAT, obj))
            if "n" not in text:
                out.append("[" + text + "]")
                return
        if all(isinstance(v, (int, float, bool, np.generic)) for v in obj):
            out.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        out.append("[\n")
        for k, value in enumerate(obj):
            out.append(inner)
            _emit(value, indent, level + 1, out)
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
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ParameterError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize to a deterministic JSON string (no trailing newline)."""
    out: list[str] = []
    _emit(obj, indent, 0, out)
    return "".join(out)
