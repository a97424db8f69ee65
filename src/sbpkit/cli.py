"""Command-line front end.

Subcommands: ``verify``, ``spectrum``, ``repair``, ``pseudospectral``,
``solve``, ``converge`` and ``demo``.  Each handler builds one document and
a text rendering of the same data, and ``_report`` writes the one that
``--format`` asks for: JSON (deterministic: byte-identical for identical
inputs) or text, so the two formats can never disagree on a verdict.
``pseudospectral`` without ``--certify`` always writes the operator document,
so it takes neither ``--tolerance`` nor ``--format``.

A command takes only the options its handler reads.  argparse checks
every option it can declare (required and mutually exclusive options,
choices, finite positive ``--tolerance`` and ``--target-eps``); ``main``
refuses any other option and an unwritable ``--output`` before any handler
runs, and the handlers check only ``classical_fd_<n>``, ``--nodes``, the
``--input`` and ``--f-samples`` paths and the input document.

Exit status: 0 on success/pass, 1 on a verification or certification
failure, 2 on usage or input errors (an ``error:`` line on stderr), an
operator too large for memory included.  A command that takes
``--tolerance`` without one reads ``SBP_TOLERANCE``, else 1e-10.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import jsonio, pseudospectral, repair, sat, spectral, storage, verify
from .errors import ParameterError, SbpError
from .linalg import DEFAULT_TOLERANCE, check_positive
from .operators import BUILTIN_OPERATORS, Interval, SbpOperatorPair, build_classical_fd
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

_EXPLICIT = pseudospectral.Family.EXPLICIT.value


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _emit(text: str, output_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"--output {output_path!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _check_output(path: str | None) -> None:
    """Refuse an ``--output`` path ``_emit`` could not write, touching nothing:
    a directory, a file that is not writable, or a missing or unwritable
    directory for a new file."""
    if not path:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif os.path.exists(path):
        reason = None if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.isdir(directory):
        reason = errno.ENOENT
    else:
        reason = None if os.access(directory, os.W_OK) else errno.EACCES
    if reason is not None:
        raise ParameterError(f"--output {path!r}: {os.strerror(reason)}")


def _report(args: argparse.Namespace, document: dict, text: str) -> None:
    """Write ``document`` as JSON or ``text``, as ``--format`` asks (JSON
    where it is not given)."""
    _emit(text if args.format == "text" else jsonio.dumps(document), args.output_path)


def _load_input(args: argparse.Namespace) -> SbpOperatorPair:
    # argparse gives exactly one of the two, possibly as an empty string.
    if args.input_path is not None:
        try:
            return storage.load_operator(args.input_path)
        except OSError as exc:
            raise ParameterError(f"--input {args.input_path!r}: {exc.strerror}") from None
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


def _complex_str(value: complex, digits: int = 10) -> str:
    re = format(value.real, f".{digits}g")
    im = format(abs(value.imag), f".{digits}g")
    sign = "+" if value.imag >= 0 else "-"
    return f"{re} {sign} {im}i"


# ---------------------------------------------------------------------------
# verify


def _verify_text(op: SbpOperatorPair, report: verify.VerificationReport) -> str:
    return "\n".join([
        f"operator: {op.name or '<unnamed>'} (n={op.n}, q={op.q})",
        f"tolerance: {_fmt(report.tolerance)}",
        f"{'property':<16} {'residual':>12}  verdict",
        *(f"{r.property.value:<16} {_fmt(r.residual):>12}  "
          f"{'pass' if r.passed else 'FAIL'}" for r in report.residuals),
        f"observed_order: {report.observed_order}",
        f"nullspace_consistent: {report.nullspace_consistent}",
        f"eigenvalue_property: {report.eigenvalue_property}",
        f"verdict: {'PASS' if report.all_passed() else 'FAIL'}",
    ])


def _cmd_verify(args: argparse.Namespace) -> int:
    op = _load_input(args)
    report = verify.verify_all(op, args.tolerance)
    _report(args, report.to_document(), _verify_text(op, report))
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
    _report(args, report.to_document(), _spectrum_text(op, report))
    return 0


# ---------------------------------------------------------------------------
# repair


def _cmd_repair(args: argparse.Namespace) -> int:
    op = _load_input(args)
    repaired, plan = repair.repair_operator(
        op, args.target_eps, args.norm_choice, args.tolerance
    )
    doc = {"operator": storage.operator_to_document(repaired), "plan": plan.to_document()}
    _report(args, doc, "\n".join([
        f"operator: {op.name or '<unnamed>'} (n={op.n}, q={op.q})",
        f"conjugate pairs shifted: m={plan.m}",
        f"epsilons: [{', '.join(_fmt(e) for e in plan.epsilons)}]",
        f"achieved |D_plus' - D_plus| ({plan.norm_choice.value}): "
        f"{_fmt(plan.norm_bound)}",
    ]))
    return 0


# ---------------------------------------------------------------------------
# pseudospectral


def _make_family(args: argparse.Namespace, n: int) -> pseudospectral.NodeFamily:
    interval = Interval(*args.interval)
    if args.family != _EXPLICIT:
        # each other --family value names its NodeFamily constructor
        return getattr(pseudospectral.NodeFamily, args.family)(n, interval)
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
        if args.family != _EXPLICIT:
            families = [_make_family(args, n) for n in range(1, args.n + 1)]
        else:
            families = [_make_family(args, args.n)]
        report = pseudospectral.certify_families(families, tau_eig=args.tolerance)
        _report(args, report.to_document(), _certification_text(report))
        return 0 if report.certified else 1
    family = _make_family(args, args.n)
    op = pseudospectral.build_pseudospectral_operator(family)
    _emit(jsonio.dumps(storage.operator_to_document(op)), args.output_path)
    return 0


# ---------------------------------------------------------------------------
# solve


def _read_samples(path: str) -> np.ndarray:
    """The samples in ``path``, which must be a flat JSON list of finite numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
            raise ValueError("not a flat list of numbers")
        samples = np.array(values, dtype=float)
        if not np.isfinite(samples).all():
            raise ValueError("a sample is not finite")
    except OSError as exc:
        raise ParameterError(f"--f-samples {path!r}: {exc.strerror}") from None
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"--f-samples {path!r}: {exc}") from None
    return samples


def _cmd_solve(args: argparse.Namespace) -> int:
    op = _load_input(args)
    if args.function is not None:
        f_samples = _NAMED_FUNCTIONS[args.function](op.x)
    else:
        f_samples = _read_samples(args.f_samples_path)
    problem = SatProblem(f_samples=f_samples, u0=args.u0, direction=args.direction)
    u = sat.solve(op, problem)
    doc = {
        "op_ref": op.name or f"operator(n={op.n}, q={op.q})",
        "direction": args.direction,
        "u0": args.u0,
        "u": u,
    }
    _report(args, doc, "\n".join(f"{x:.6g} {v:.6g}" for x, v in zip(op.x, u)))
    return 0


# ---------------------------------------------------------------------------
# converge


def _cmd_converge(args: argparse.Namespace) -> int:
    interval = Interval(*args.interval)
    f, exact_u = _CONVERGENCE_PAIRS[args.function]
    study = sat.convergence_study(
        build=lambda n: build_classical_fd(n, interval),
        f=f,
        exact_u=exact_u,
        ns=args.grids,
    )
    rows = ["n,spacing,error_h,error_max,order"]
    for k, n in enumerate(study.ns):
        order = "" if k == 0 else format(study.pairwise_orders[k - 1], ".6g")
        rows.append(
            f"{n},{study.spacings[k]:.6g},{study.errors_h[k]:.6g},"
            f"{study.errors_max[k]:.6g},{order}"
        )
    rows.append(f"fit,,,,{study.fitted_order:.6g}")
    _report(args, study.to_document(), "\n".join(rows))
    return 0


# ---------------------------------------------------------------------------
# demo


def _cmd_demo(args: argparse.Namespace) -> int:
    op = BUILTIN_OPERATORS["counterexample"]()
    before_verify = verify.verify_all(op, args.tolerance)
    before_spectrum = spectral.spectral_report(op, tau_eig=args.tolerance)
    repaired, plan = repair.repair_operator(
        op, args.target_eps, args.norm_choice, args.tolerance
    )
    after_verify = verify.verify_all(repaired, args.tolerance)
    after_spectrum = spectral.spectral_report(repaired, tau_eig=args.tolerance)

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
    _report(args, doc, "\n".join([
        f"operator: {op.name} (n={op.n}, q={op.q})",
        f"verification before repair: "
        f"{'PASS' if before_verify.all_passed() else 'FAIL'}, "
        f"nullspace_consistent={before_verify.nullspace_consistent}, "
        f"eigenvalue_property={before_verify.eigenvalue_property}",
        "spectrum before repair:",
        *_spectrum_lines(before_spectrum, 34),
        f"repair: target eps={_fmt(args.target_eps)} "
        f"({plan.norm_choice.value}), m={plan.m} conjugate pairs, "
        f"achieved |D_plus' - D_plus|={_fmt(plan.norm_bound)}",
        "spectrum after repair:",
        *_spectrum_lines(after_spectrum, 34),
        f"verification after repair: "
        f"{'PASS' if after_verify.all_passed() else 'FAIL'}, "
        f"eigenvalue_property={after_verify.eigenvalue_property}",
    ]))
    ok = before_verify.all_passed() and after_verify.all_passed()
    return 0 if ok and after_verify.eigenvalue_property else 1


def _default_tolerance() -> float:
    raw = os.environ.get("SBP_TOLERANCE", repr(DEFAULT_TOLERANCE))
    try:
        value = float(raw)
    except ValueError:
        raise ParameterError(f"SBP_TOLERANCE is not a number: {raw!r}") from None
    return check_positive(value, "SBP_TOLERANCE")


def _positive(text: str) -> float:
    try:
        return check_positive(float(text), "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


class _SubcommandParser(argparse.ArgumentParser):
    """Reports a bad, missing or conflicting option as a ``ParameterError``,
    so that ``main`` returns 2 with an ``error:`` line, as for every other
    input error."""

    def error(self, message: str):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
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
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--input", dest="input_path", help="operator document path")
            source.add_argument(
                "--builtin",
                help="builtin operator name (counterexample, two_point, "
                "classical_fd_<n>)",
            )
        p.add_argument("--output", dest="output_path", help="write the report here")
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="report format (default json)",
        )
        return p

    def tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tolerance", type=_positive, help="verification tolerance "
                       f"(default: env SBP_TOLERANCE, else {DEFAULT_TOLERANCE:g})")

    def budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--target-eps",
            dest="target_eps",
            type=_positive,
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
    tolerance(p)
    p.add_argument(
        "--require-eigenvalue-property",
        action="store_true",
        help="also fail (exit 1) when the penalized spectrum touches the "
        "imaginary axis",
    )

    p = command("spectrum", _cmd_spectrum, "classified spectrum of the penalized matrix")
    tolerance(p)

    p = command("repair", _cmd_repair, "add minimal dissipation to fix the spectrum")
    tolerance(p)
    budget(p)

    p = command(
        "pseudospectral",
        _cmd_pseudospectral,
        "generate or certify nodal operators",
        with_input=False,
    )
    tolerance(p)
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
        help="certify the family for degrees 1..n instead of emitting an operator "
        "(--tolerance and --format apply only here)",
    )
    p.set_defaults(format=None)  # so that main sees whether it was given

    p = command("solve", _cmd_solve, "boundary-penalized solve of u' = f")
    rhs = p.add_mutually_exclusive_group(required=True)
    rhs.add_argument("--f", dest="function", choices=_NAMED_FUNCTIONS,
                     help="named right-hand side")
    rhs.add_argument(
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
    p.add_argument(
        "--grids",
        type=_grids,
        required=True,
        help="comma-separated resolutions, e.g. 32,64,128,256",
    )
    p.add_argument(
        "--function",
        choices=_CONVERGENCE_PAIRS,
        default="sin",
        help="exact solution name; f is its derivative",
    )
    interval(p, (0.0, 1.0))

    p = command(
        "demo",
        _cmd_demo,
        "diagnose and repair the builtin 6-node operator, printing the "
        "spectra before and after",
        with_input=False,
    )
    tolerance(p)
    budget(p)
    p.set_defaults(format="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, unknown = _build_parser().parse_known_args(argv)
        if getattr(args, "certify", True) is False:
            # Generation writes the operator document: it reads neither option.
            given = {name: vars(args).pop(name) for name in ("tolerance", "format")}
            unknown += [f"--{name} {value}" for name, value in given.items()
                        if value is not None]
        if unknown:
            raise ParameterError(f"{args.subcommand} does not take: {' '.join(unknown)}")
        if "tolerance" in vars(args) and args.tolerance is None:
            args.tolerance = _default_tolerance()
        _check_output(args.output_path)
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
