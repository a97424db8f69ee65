"""Span tracer that wraps sbpkit's public functions from outside.

Nothing in sbpkit changes: each traced function is replaced, in every
``sbpkit`` module namespace that binds it (``from .x import f`` copies the
reference), by a wrapper that records a span.  The ``numpy.linalg`` entry
points are wrapped the same way, so dense decompositions are counted where
sbpkit calls them.  Calls that numpy makes internally (``norm(A, 2)`` runs an
SVD) bypass the namespace and are not counted.

Spans are recorded only inside an open root span (one benchmark operation,
or one CLI command), so the benchmark's own checks are never traced.  Spans
stay in memory as ``(name, start, end, parent)`` tuples and are written out
when the run ends.  Importing this module loads only the standard library.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

#: sbpkit functions traced, by module.
SBPKIT_FUNCTIONS = {
    "verify": ("verify_all", "check_accuracy", "check_nullspace_consistency",
               "check_eigenvalue_property"),
    "spectral": ("spectral_report", "eigen_decompose", "h_inner",
                 "build_d_tilde", "orthogonalize_imaginary"),
    "repair": ("repair_operator", "build_s_prime"),
    "pseudospectral": ("build_pseudospectral_operator", "certify_families"),
    "sat": ("solve", "convergence_study"),
    "storage": ("operator_to_document", "save_operator", "load_operator"),
    "jsonio": ("dumps",),
}

#: numpy.linalg entry points counted as dense decompositions.
LAPACK_FUNCTIONS = ("eig", "eigvals", "svd", "eigvalsh", "solve", "inv")

#: Inclusive time per operation is reported for these spans.
TIMED_SPANS = tuple(
    f"{module}.{name}"
    for module, names in SBPKIT_FUNCTIONS.items()
    for name in names
    if name != "build_d_tilde"
)

#: Per-layer metric names and units, in the order they are reported.
PER_LAYER = (
    [("cli.import_ms", "ms"), ("cli.main_ms", "ms")]
    + [(f"{name}_ms", "ms") for name in TIMED_SPANS]
    + [("spectral.h_inner_calls", "count"), ("spectral.build_d_tilde_calls", "count"),
       ("jsonio.mb_per_op", "MB")]
    + [(f"lapack.{name}_calls", "count") for name in LAPACK_FUNCTIONS]
    + [("lapack.decompositions", "count"), ("lapack.ms", "ms")]
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.json_bytes = 0
        self._stack: list[int] = []

    @contextmanager
    def root(self, name: str):
        """Open a root span; wrapped calls record only while one is open."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span measured by the caller."""
        self.spans.append((name, start, end, -1))

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(("", 0.0, 0.0, -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if name == "jsonio.dumps":
                self.json_bytes += len(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions wherever sbpkit binds them."""
        import numpy.linalg

        targets = []
        for module, names in SBPKIT_FUNCTIONS.items():
            mod = sys.modules[f"sbpkit.{module}"]
            targets += [(getattr(mod, n), f"{module}.{n}") for n in names]
        namespaces = [m for k, m in sys.modules.items()
                      if k == "sbpkit" or k.startswith("sbpkit.")]
        for fn, name in targets:
            wrapper = self.wrap(fn, name)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
        for name in LAPACK_FUNCTIONS:
            setattr(numpy.linalg, name,
                    self.wrap(getattr(numpy.linalg, name), f"lapack.{name}"))

    def dump(self, path: str, **extra) -> None:
        """Write the spans, the JSON byte count and ``extra`` keys to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"json_bytes": self.json_bytes, "spans": self.spans, **extra}, fh)

    def extend(self, doc: dict) -> None:
        """Append the spans that another tracer dumped, as ``doc``."""
        offset = len(self.spans)
        self.spans += [(name, start, end, parent + offset if parent >= 0 else -1)
                       for name, start, end, parent in doc["spans"]]
        self.json_bytes += doc["json_bytes"]


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(spans, json_bytes: int, ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``ops`` operations."""
    totals = {name: 0.0 for name, _ in PER_LAYER}
    own = self_times(spans)
    for (name, start, end, parent), self_s in zip(spans, own):
        dur_ms = 1e3 * (end - start)
        if name == "cli.import":
            totals["cli.import_ms"] += dur_ms
        elif name == "cli.main":
            totals["cli.main_ms"] += 1e3 * self_s
        elif name.startswith("lapack."):
            totals[f"{name}_calls"] += 1
            totals["lapack.decompositions"] += 1
            totals["lapack.ms"] += dur_ms
        elif name == "spectral.build_d_tilde":
            totals["spectral.build_d_tilde_calls"] += 1
        elif name in TIMED_SPANS:
            totals[f"{name}_ms"] += dur_ms
            if name == "spectral.h_inner":
                totals["spectral.h_inner_calls"] += 1
    totals["jsonio.mb_per_op"] = json_bytes / 1e6
    return {name: value / ops for name, value in totals.items()}
