"""Command-line front end.

Subcommands: ``verify``, ``spectrum``, ``repair``, ``pseudospectral``,
``solve``, ``converge`` and ``demo``.  Each emits a machine-readable JSON
report (deterministic: byte-identical for identical inputs) or a
human-readable text rendering of the same data, so the two formats can never
disagree on a verdict.

Exit status: 0 on success/pass, 1 on a verification or certification
failure, 2 on usage or input errors, an operator too large for memory
included.  The environment variable
``SBP_TOLERANCE`` overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import jsonio, pseudospectral, repair, sat, spectral, storage, verify
from .errors import ParameterError, SbpError
from .linalg import DEFAULT_TOLERANCE, check_positive
from .operators import (
    BUILTIN_OPERATORS,
    Interval,
    SbpOperatorPair,
    build_classical_fd,
)
from .repair import NormChoice
from .sat import FlowDirection, SatProblem

__all__ = ["main", "console"]

DEFAULT_TARGET_EPS = 1e-6

_NAMED_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}

#: exact solution -> its derivative, for the convergence subcommand
_CONVERGENCE_PAIRS = {
    "sin": (np.cos, np.sin),
    "cos": (lambda x: -np.sin(x), np.cos),
    "exp": (np.exp, np.exp),
}

#: --family value -> node set builder; "explicit" takes --nodes instead
_NODE_FAMILIES = {
    "legendre_gauss_lobatto": pseudospectral.NodeFamily.legendre_gauss_lobatto,
    "chebyshev_gauss_lobatto": pseudospectral.NodeFamily.chebyshev_gauss_lobatto,
    "uniform": pseudospectral.NodeFamily.uniform,
}


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _emit(text: str, output_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_input(args: argparse.Namespace) -> SbpOperatorPair:
    if args.input_path and args.builtin:
        raise ParameterError("give either --input or --builtin, not both")
    if args.builtin:
        if args.builtin in BUILTIN_OPERATORS:
            return BUILTIN_OPERATORS[args.builtin]()
        if args.builtin.startswith("classical_fd_"):
            size = args.builtin.removeprefix("classical_fd_")
            try:
                n = int(size)
            except ValueError:
                raise ParameterError(
                    f"classical_fd_<n> needs an integer n, got {size!r}") from None
            return build_classical_fd(n, Interval(0.0, 1.0))
        raise ParameterError(
            f"unknown builtin operator {args.builtin!r}; available: "
            f"{sorted(BUILTIN_OPERATORS)} or classical_fd_<n>"
        )
    if not args.input_path:
        raise ParameterError("an operator is required (--input PATH or --builtin NAME)")
    if not os.path.exists(args.input_path):
        raise ParameterError(f"input file not found: {args.input_path}")
    return storage.load_operator(args.input_path)


def _complex_str(value: complex, digits: int = 10) -> str:
    re = format(value.real, f".{digits}g")
    im = format(abs(value.imag), f".{digits}g")
    sign = "+" if value.imag >= 0 else "-"
    return f"{re} {sign} {im}i"


# ---------------------------------------------------------------------------
# verify


def _verify_text(op: SbpOperatorPair, report: verify.VerificationReport) -> str:
    lines = [
        f"operator: {op.name or '<unnamed>'} (n={op.n}, q={op.q})",
        f"tolerance: {_fmt(report.tolerance)}",
        f"{'property':<16} {'residual':>12}  verdict",
    ]
    for r in report.residuals:
        lines.append(
            f"{r.property.value:<16} {_fmt(r.residual):>12}  "
            f"{'pass' if r.passed else 'FAIL'}"
        )
    lines.append(f"observed_order: {report.observed_order}")
    lines.append(f"nullspace_consistent: {report.nullspace_consistent}")
    lines.append(f"eigenvalue_property: {report.eigenvalue_property}")
    lines.append(f"verdict: {'PASS' if report.all_passed() else 'FAIL'}")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    op = _load_input(args)
    report = verify.verify_all(op, args.tolerance)
    if args.format == "json":
        _emit(jsonio.dumps(report.to_document()), args.output_path)
    else:
        _emit(_verify_text(op, report), args.output_path)
    if not report.all_passed():
        return 1
    if args.require_eigenvalue_property and not report.eigenvalue_property:
        offending = report.eigenvalue_check.offending
        offenders = ", ".join(_complex_str(v) for v in offending)
        print(
            f"eigenvalue property absent: offending eigenvalues {offenders}",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# spectrum


def _spectrum_lines(report: spectral.SpectralReport, width: int) -> list[str]:
    return [
        f"  {_complex_str(lam):<{width}} {c.value}"
        for lam, c in zip(report.eigenvalues.tolist(), report.classifications)
    ]


def _spectrum_text(op: SbpOperatorPair, report: spectral.SpectralReport) -> str:
    return "\n".join([
        f"operator: {op.name or '<unnamed>'} (n={op.n}, q={op.q})",
        f"imaginary conjugate pairs: m={report.m}",
        *_spectrum_lines(report, 32),
    ])


def _cmd_spectrum(args: argparse.Namespace) -> int:
    op = _load_input(args)
    report = spectral.spectral_report(op, tau_eig=args.tolerance)
    if args.format == "json":
        _emit(jsonio.dumps(report.to_document()), args.output_path)
    else:
        _emit(_spectrum_text(op, report), args.output_path)
    return 0


# ---------------------------------------------------------------------------
# repair


def _cmd_repair(args: argparse.Namespace) -> int:
    op = _load_input(args)
    repaired, plan = repair.repair_operator(
        op, args.target_eps, NormChoice(args.norm_choice), args.tolerance
    )
    if args.format == "json":
        doc = {
            "operator": storage.operator_to_document(repaired),
            "plan": plan.to_document(),
        }
        _emit(jsonio.dumps(doc), args.output_path)
    else:
        lines = [
            f"operator: {op.name or '<unnamed>'} (n={op.n}, q={op.q})",
            f"conjugate pairs shifted: m={plan.m}",
            f"epsilons: [{', '.join(_fmt(e) for e in plan.epsilons)}]",
            f"achieved |D_plus' - D_plus| ({plan.norm_choice.value}): "
            f"{_fmt(plan.norm_bound)}",
        ]
        _emit("\n".join(lines), args.output_path)
    return 0


# ---------------------------------------------------------------------------
# pseudospectral


def _make_family(args: argparse.Namespace, n: int) -> pseudospectral.NodeFamily:
    interval = Interval(*args.interval)
    if args.family in _NODE_FAMILIES:
        return _NODE_FAMILIES[args.family](n, interval)
    if not args.nodes:
        raise ParameterError("--nodes is required for the explicit family")
    try:
        nodes = np.array([float(v) for v in args.nodes.split(",")])
    except ValueError as exc:
        raise ParameterError(f"--nodes must be comma-separated numbers: {exc}") from None
    return pseudospectral.NodeFamily.explicit(nodes, interval)


def _certification_text(report: pseudospectral.CertificationReport) -> str:
    lines = [f"certified: {report.certified}"]
    for e in report.entries:
        lines.append(
            f"  {e.label:<48} min Re(lambda)={_fmt(e.min_real_part)} "
            f"{'pass' if e.passed else 'FAIL'}"
        )
    for failure in report.failures:
        lines.append(f"  failure: {failure}")
    return "\n".join(lines)


def _cmd_pseudospectral(args: argparse.Namespace) -> int:
    if args.certify:
        if args.family in _NODE_FAMILIES:
            families = [_make_family(args, n) for n in range(1, args.n + 1)]
        else:
            families = [_make_family(args, args.n)]
        report = pseudospectral.certify_families(families, tau_eig=args.tolerance)
        if args.format == "json":
            _emit(jsonio.dumps(report.to_document()), args.output_path)
        else:
            _emit(_certification_text(report), args.output_path)
        return 0 if report.certified else 1
    family = _make_family(args, args.n)
    op = pseudospectral.build_pseudospectral_operator(family)
    _emit(jsonio.dumps(storage.operator_to_document(op)), args.output_path)
    return 0


# ---------------------------------------------------------------------------
# solve


def _read_samples(path: str) -> np.ndarray:
    """The samples in ``path``, which must be a flat JSON list of finite numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
            if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
                raise ValueError("not a flat list of numbers")
            samples = np.array(values, dtype=float)
            if not np.isfinite(samples).all():
                raise ValueError("a sample is not finite")
        except (ValueError, OverflowError) as exc:
            raise ParameterError(f"--f-samples {path!r}: {exc}") from None
    return samples


def _cmd_solve(args: argparse.Namespace) -> int:
    op = _load_input(args)
    if args.function and args.f_samples_path:
        raise ParameterError("give either --f or --f-samples, not both")
    if args.function:
        if args.function not in _NAMED_FUNCTIONS:
            raise ParameterError(
                f"unknown function {args.function!r}; available: "
                f"{sorted(_NAMED_FUNCTIONS)}"
            )
        f_samples = _NAMED_FUNCTIONS[args.function](op.x)
    elif args.f_samples_path:
        f_samples = _read_samples(args.f_samples_path)
    else:
        raise ParameterError("a right-hand side is required (--f or --f-samples)")
    problem = SatProblem(
        f_samples=f_samples, u0=args.u0, direction=FlowDirection(args.direction)
    )
    u = sat.solve_problem(op, problem)
    if args.format == "json":
        doc = {
            "op_ref": op.name or f"operator(n={op.n}, q={op.q})",
            "direction": args.direction,
            "u0": args.u0,
            "u": u,
        }
        _emit(jsonio.dumps(doc), args.output_path)
    else:
        lines = [f"{x:.6g} {v:.6g}" for x, v in zip(op.x, u)]
        _emit("\n".join(lines), args.output_path)
    return 0


# ---------------------------------------------------------------------------
# converge


def _cmd_converge(args: argparse.Namespace) -> int:
    if args.family != "classical_fd":
        raise ParameterError(
            f"unknown operator family {args.family!r} for convergence studies; "
            "available: classical_fd"
        )
    if args.function not in _CONVERGENCE_PAIRS:
        raise ParameterError(
            f"unknown function {args.function!r}; available: "
            f"{sorted(_CONVERGENCE_PAIRS)}"
        )
    if not args.grids:
        raise ParameterError("--grids is required (comma-separated resolutions)")
    interval = Interval(*args.interval)
    f, exact_u = _CONVERGENCE_PAIRS[args.function]
    study = sat.convergence_study(
        build=lambda n: build_classical_fd(n, interval),
        f=f,
        exact_u=exact_u,
        ns=args.grids,
    )
    if args.format == "json":
        _emit(jsonio.dumps(study.to_document()), args.output_path)
    else:
        rows = ["n,spacing,error_h,error_max,order"]
        for k, n in enumerate(study.ns):
            order = "" if k == 0 else format(study.pairwise_orders[k - 1], ".6g")
            rows.append(
                f"{n},{study.spacings[k]:.6g},{study.errors_h[k]:.6g},"
                f"{study.errors_max[k]:.6g},{order}"
            )
        rows.append(f"fit,,,,{study.fitted_order:.6g}")
        _emit("\n".join(rows), args.output_path)
    return 0


# ---------------------------------------------------------------------------
# demo


def _cmd_demo(args: argparse.Namespace) -> int:
    op = BUILTIN_OPERATORS["counterexample"]()
    before_verify = verify.verify_all(op, args.tolerance)
    before_spectrum = spectral.spectral_report(op, tau_eig=args.tolerance)
    repaired, plan = repair.repair_operator(
        op, args.target_eps, NormChoice(args.norm_choice), args.tolerance
    )
    after_verify = verify.verify_all(repaired, args.tolerance)
    after_spectrum = spectral.spectral_report(repaired, tau_eig=args.tolerance)

    if args.format == "json":
        doc = {
            "before": {
                "verification": before_verify.to_document(),
                "spectrum": before_spectrum.to_document(),
            },
            "plan": plan.to_document(),
            "after": {
                "verification": after_verify.to_document(),
                "spectrum": after_spectrum.to_document(),
            },
        }
        _emit(jsonio.dumps(doc), args.output_path)
    else:
        lines = [
            f"operator: {op.name} (n={op.n}, q={op.q})",
            f"verification before repair: "
            f"{'PASS' if before_verify.all_passed() else 'FAIL'}, "
            f"nullspace_consistent={before_verify.nullspace_consistent}, "
            f"eigenvalue_property={before_verify.eigenvalue_property}",
            "spectrum before repair:",
            *_spectrum_lines(before_spectrum, 34),
        ]
        lines.append(
            f"repair: target eps={_fmt(args.target_eps)} "
            f"({plan.norm_choice.value}), m={plan.m} conjugate pairs, "
            f"achieved |D_plus' - D_plus|={_fmt(plan.norm_bound)}"
        )
        lines.append("spectrum after repair:")
        lines += _spectrum_lines(after_spectrum, 34)
        lines.append(
            f"verification after repair: "
            f"{'PASS' if after_verify.all_passed() else 'FAIL'}, "
            f"eigenvalue_property={after_verify.eigenvalue_property}"
        )
        _emit("\n".join(lines), args.output_path)
    ok = (
        before_verify.all_passed()
        and after_verify.all_passed()
        and after_verify.eigenvalue_property
    )
    return 0 if ok else 1


def _default_tolerance() -> float:
    raw = os.environ.get("SBP_TOLERANCE")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise ParameterError(f"SBP_TOLERANCE is not a number: {raw!r}") from None
    return check_positive(value, "SBP_TOLERANCE")


def _grids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


class _SubcommandParser(argparse.ArgumentParser):
    """Reports a bad option value as a ``ParameterError``, so that ``main``
    returns 2 with an ``error:`` line, as for every other input error."""

    def error(self, message: str):
        raise ParameterError(message)


def _build_parser(default_tol: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbpkit",
        description="Construct, verify, diagnose and repair summation-by-parts "
        "operator pairs.",
    )
    sub = parser.add_subparsers(
        dest="subcommand", required=True, parser_class=_SubcommandParser
    )

    def command(name, handler, help, with_input=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if with_input:
            p.add_argument("--input", dest="input_path", help="operator document path")
            p.add_argument(
                "--builtin",
                help="builtin operator name (counterexample, two_point, "
                "classical_fd_<n>)",
            )
        p.add_argument("--output", dest="output_path", help="write the report here")
        p.add_argument(
            "--tolerance",
            type=float,
            default=default_tol,
            help=f"verification tolerance (default {default_tol:g}; "
            "env SBP_TOLERANCE overrides the default)",
        )
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="report format (default json)",
        )
        return p

    def budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--target-eps",
            dest="target_eps",
            type=float,
            default=DEFAULT_TARGET_EPS,
            help=f"perturbation size budget (default {DEFAULT_TARGET_EPS:g})",
        )
        p.add_argument(
            "--norm",
            dest="norm_choice",
            choices=tuple(c.value for c in NormChoice),
            default=NormChoice.FROBENIUS.value,
            help="norm for the budget (default frobenius)",
        )

    def interval(p: argparse.ArgumentParser, default: tuple[float, float]) -> None:
        p.add_argument(
            "--interval", type=float, nargs=2, default=default, metavar=("A", "B")
        )

    p = command("verify", _cmd_verify, "check every algebraic property")
    p.add_argument(
        "--require-eigenvalue-property",
        action="store_true",
        help="also fail (exit 1) when the penalized spectrum touches the "
        "imaginary axis",
    )

    command("spectrum", _cmd_spectrum, "classified spectrum of the penalized matrix")

    p = command("repair", _cmd_repair, "add minimal dissipation to fix the spectrum")
    budget(p)

    p = command(
        "pseudospectral",
        _cmd_pseudospectral,
        "generate or certify nodal operators",
        with_input=False,
    )
    p.add_argument(
        "--family",
        choices=tuple(f.value for f in pseudospectral.Family),
        default=pseudospectral.Family.LEGENDRE_GAUSS_LOBATTO.value,
    )
    p.add_argument("--n", type=int, default=4, help="polynomial degree (default 4)")
    interval(p, (-1.0, 1.0))
    p.add_argument("--nodes", help="comma-separated nodes for the explicit family")
    p.add_argument(
        "--certify",
        action="store_true",
        help="certify the family for degrees 1..n instead of emitting an operator",
    )

    p = command("solve", _cmd_solve, "boundary-penalized solve of u' = f")
    p.add_argument("--f", dest="function", help="named right-hand side (sin, cos, exp, zero, one)")
    p.add_argument(
        "--f-samples",
        dest="f_samples_path",
        help="JSON array with f sampled at the operator nodes",
    )
    p.add_argument("--u0", type=float, default=0.0, help="boundary datum (default 0)")
    p.add_argument(
        "--direction",
        choices=tuple(d.value for d in FlowDirection),
        default=FlowDirection.FORWARD.value,
    )

    p = command(
        "converge", _cmd_converge, "grid-refinement convergence study", with_input=False
    )
    p.add_argument("--family", default="classical_fd")
    p.add_argument(
        "--grids", type=_grids, help="comma-separated resolutions, e.g. 32,64,128,256"
    )
    p.add_argument(
        "--function",
        default="sin",
        help="exact solution name (sin, cos, exp); f is its derivative",
    )
    interval(p, (0.0, 1.0))

    p = command(
        "demo",
        _cmd_demo,
        "diagnose and repair the builtin 6-node operator, printing the "
        "spectra before and after",
        with_input=False,
    )
    budget(p)
    p.set_defaults(format="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser(_default_tolerance()).parse_args(argv)
        check_positive(args.tolerance)
        if "target_eps" in args:
            check_positive(args.target_eps, "target-eps")
        return args.handler(args)
    except SbpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an array larger than memory at once, e.g. for
        # --builtin classical_fd_99999999.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console()
