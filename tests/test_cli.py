import json
import subprocess
import sys

import numpy as np
import pytest

from sbpkit import (
    Interval,
    build_classical_fd,
    build_counterexample,
    jsonio,
    load_operator,
    operator_from_document,
    operator_to_document,
    repair_operator,
    save_operator,
    spectral,
)
from sbpkit.cli import main
from sbpkit.verify import EigenvalueCheck

INV_SQRT5 = 0.4472135954999579


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _save(tmp_path, op, name="op.json"):
    path = tmp_path / name
    save_operator(op, path)
    return str(path)


# ---------------------------------------------------------------------------
# demo


def test_demo_prints_the_offending_eigenvalues(capsys):
    code, out, _ = _run(capsys, ["demo"])
    assert code == 0
    assert "0.4472135955" in out
    assert "eigenvalue_property=False" in out
    assert "eigenvalue_property=True" in out
    before, after = out.split("spectrum after repair:")
    assert "imaginary" in before
    assert "imaginary" not in after


@pytest.mark.parametrize("budget", ["1e-10", "1e-12"])
def test_demo_at_a_budget_inside_the_band_repairs(capsys, budget):
    # The moved pair sits inside the spectrum's band, but the Hautus test
    # finds no unobservable direction left, so verify reports the property.
    code, out, _ = _run(capsys, ["demo", "--target-eps", budget, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["before"]["verification"]["eigenvalue_property"] is False
    assert doc["after"]["verification"]["eigenvalue_property"] is True
    assert doc["after"]["spectrum"]["classifications"].count("imaginary") == 2


def test_demo_is_deterministic(capsys):
    _, first, _ = _run(capsys, ["demo"])
    _, second, _ = _run(capsys, ["demo"])
    assert first == second


def test_demo_json(capsys):
    code, out, _ = _run(capsys, ["demo", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["before"]["verification"]["eigenvalue_property"] is False
    assert doc["after"]["verification"]["eigenvalue_property"] is True
    assert doc["plan"]["m"] == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_builtin_two_point(capsys):
    code, out, _ = _run(capsys, ["verify", "--builtin", "two_point"])
    assert code == 0
    doc = json.loads(out)
    assert all(r["passed"] for r in doc["residuals"])


def test_verify_counterexample_file(capsys, tmp_path):
    path = _save(tmp_path, build_counterexample())
    code, out, _ = _run(capsys, ["verify", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["nullspace_consistent"] is True
    assert doc["eigenvalue_property"] is False


def test_verify_require_eigenvalue_property_fails(capsys, tmp_path):
    path = _save(tmp_path, build_counterexample())
    code, _, err = _run(
        capsys, ["verify", "--input", path, "--require-eigenvalue-property"]
    )
    assert code == 1
    assert "0.447213" in err
    assert "+ 0.4472135955i" in err
    assert "- 0.4472135955i" in err


def test_verify_corrupted_norm_fails(capsys, tmp_path):
    doc = operator_to_document(build_counterexample())
    h = np.array(doc["H"]).reshape(6, 6)
    h[0, 0] = -0.5
    doc["H"] = h.ravel()
    path = tmp_path / "corrupt.json"
    path.write_text(jsonio.dumps(doc))
    code, out, _ = _run(capsys, ["verify", "--input", str(path)])
    assert code == 1
    report = json.loads(out)
    failed = [r["property"] for r in report["residuals"] if not r["passed"]]
    assert "B_spd" in failed


def test_verify_text_format(capsys):
    code, out, _ = _run(capsys, ["verify", "--builtin", "two_point",
                                 "--format", "text"])
    assert code == 0
    assert "verdict: PASS" in out
    assert "A_dplus" in out


def test_verify_classical_fd_builtin(capsys):
    code, out, _ = _run(capsys, ["verify", "--builtin", "classical_fd_8"])
    assert code == 0
    assert json.loads(out)["observed_order"] == 1


# ---------------------------------------------------------------------------
# usage and input errors -> exit 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "--builtin", "unknown_operator"],
        ["verify", "--input", "/nonexistent/op.json"],
        ["verify", "--builtin", "two_point", "--tolerance", "-1"],
        ["solve", "--builtin", "two_point"],
        ["solve", "--builtin", "two_point", "--f", "nope"],
        ["converge", "--function", "sin"],
        ["converge", "--family", "spectral_magic", "--grids", "8,16,32"],
        ["repair", "--builtin", "counterexample", "--target-eps", "0"],
        ["demo", "--target-eps", "-1"],
        ["spectrum", "--builtin", "counterexample", "--tolerance", "nan"],
        ["solve", "--builtin", "two_point", "--f", "one", "--tolerance", "0"],
        ["converge", "--grids", "8,x,32"],
        ["verify", "--builtin", "classical_fd_abc"],
        # an empty name or path counts as given, and is refused
        ["verify", "--builtin", ""],
        ["verify", "--input", ""],
        # each pair of alternatives takes exactly one
        ["verify", "--input", "/nonexistent/op.json", "--builtin", "two_point"],
        ["solve", "--builtin", "two_point", "--f", "one", "--f-samples", "FILE:[1, 2]"],
        # a tolerance, budget or datum must be finite
        ["verify", "--builtin", "two_point", "--tolerance", "inf"],
        ["spectrum", "--builtin", "counterexample", "--tolerance", "inf"],
        ["repair", "--builtin", "counterexample", "--target-eps", "inf"],
        ["converge", "--grids", "8,16,32", "--function", "tan"],
        ["solve", "--builtin", "classical_fd_4", "--f", "sin", "--u0", "nan"],
        ["solve", "--builtin", "classical_fd_4", "--f", "sin", "--u0", "inf"],
        ["verify", "--builtin", "classical_fd_"],
        ["pseudospectral", "--family", "explicit", "--nodes", "0,x,1"],
        # --f-samples must name a readable file holding a flat JSON list of
        # finite numbers; a last entry FILE:<text> becomes a file of that text.
        *(["solve", "--builtin", "two_point", "--f-samples", f"FILE:{text}"]
          for text in ('{"a": 1}', '["a", 1]', "[1, 2", "[NaN, 1]", "[[1], [2]]")),
        ["solve", "--builtin", "two_point", "--f-samples", "/nonexistent/f.json"],
        ["solve", "--builtin", "two_point", "--f-samples", ""],
        # --input must name a readable file and --output a writable one
        ["verify", "--input", "."],
        ["verify", "--builtin", "two_point", "--output", "/nonexistent/x.json"],
        ["verify", "--builtin", "two_point", "--output", "."],
        # a certification needs at least one family
        ["pseudospectral", "--family", "legendre_gauss_lobatto", "--certify", "--n", "0"],
        ["pseudospectral", "--family", "legendre_gauss_lobatto", "--certify", "--n", "-3"],
    ],
)
def test_errors_exit_2(capsys, tmp_path, argv):
    if argv[-1].startswith("FILE:"):
        path = tmp_path / "f.json"
        path.write_text(argv[-1].removeprefix("FILE:"))
        argv = [*argv[:-1], str(path)]
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "error: ParameterError:" in err


def test_an_operator_larger_than_memory_exits_2(capsys):
    # numpy refuses the 71 PiB D_plus at once and allocates nothing.
    code, out, err = _run(capsys, ["verify", "--builtin", "classical_fd_99999999"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_rejects_an_order_above_n_at_once(capsys, tmp_path):
    doc = operator_to_document(build_classical_fd(20, Interval(0.0, 1.0)))
    doc["q"] = 10**6
    path = tmp_path / "huge_q.json"
    path.write_text(jsonio.dumps(doc))
    code, _, err = _run(capsys, ["verify", "--input", str(path)])
    assert code == 2
    assert "InvariantError" in err


def test_verify_rejects_an_integer_too_large_for_a_double(capsys, tmp_path):
    doc = operator_to_document(build_counterexample())
    doc["x"] = [0, 10**400, 2, 3, 4, 5]
    path = tmp_path / "huge_x.json"
    path.write_text(jsonio.dumps(doc))
    code, _, err = _run(capsys, ["verify", "--input", str(path)])
    assert code == 2
    assert "SchemaError" in err and "x[1]" in err


def test_malformed_document_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, _, err = _run(capsys, ["verify", "--input", str(path)])
    assert code == 2
    assert "ParseError" in err


def test_an_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xff"}')
    code, out, err = _run(capsys, ["verify", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParseError:") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err


def test_unwritable_output_exit_2(capsys):
    code, _, err = _run(
        capsys,
        ["verify", "--builtin", "two_point", "--output", "/nonexistent/dir/x.json"],
    )
    assert code == 2
    assert "error:" in err


def test_an_unwritable_output_is_refused_before_any_work(capsys, monkeypatch):
    def no_report(*args, **kwargs):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(spectral, "spectral_report", no_report)
    code, out, err = _run(capsys, ["spectrum", "--builtin", "classical_fd_600",
                                   "--output", "/nonexistent/x.json"])
    assert code == 2
    assert out == ""
    assert err == ("error: ParameterError: --output '/nonexistent/x.json': "
                   "No such file or directory\n")


def test_an_existing_output_keeps_its_bytes_when_the_command_fails(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"earlier report\n")
    code, _, err = _run(capsys, ["verify", "--input", "/nonexistent/op.json",
                                 "--output", str(path)])
    assert code == 2
    assert "--input '/nonexistent/op.json'" in err
    assert path.read_bytes() == b"earlier report\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["not-a-subcommand"])
    assert excinfo.value.code == 2


def test_help_is_available(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    capsys.readouterr()
    # --tolerance only where the handler reads it
    for command, tolerance in (("verify", True), ("spectrum", True), ("repair", True),
                               ("pseudospectral", True), ("solve", False),
                               ("converge", False), ("demo", True)):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert ("--tolerance" in capsys.readouterr().out) is tolerance, command


def test_an_option_the_command_does_not_take_exits_2(capsys):
    # Generation writes the operator document: it reads neither the
    # tolerance nor a format, which only certification takes.
    for argv, refused in (
        (["converge", "--grids", "8,16,32", "--tolerance", "1e-3"],
         "converge does not take: --tolerance 1e-3"),
        (["pseudospectral", "--n", "4", "--tolerance", "1e-3"],
         "pseudospectral does not take: --tolerance 0.001"),
        (["pseudospectral", "--n", "4", "--format", "json", "--tolerance", "1e-3"],
         "pseudospectral does not take: --tolerance 0.001 --format json"),
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: ParameterError: {refused}\n"


def test_certification_takes_the_tolerance_and_the_format(capsys):
    argv = ["pseudospectral", "--n", "4", "--certify"]
    code, default, _ = _run(capsys, argv)
    assert code == 0 and default == _run(capsys, [*argv, "--format", "json"])[1]
    code, text, _ = _run(capsys, [*argv, "--tolerance", "1e-3", "--format", "text"])
    assert code == 0 and text.startswith("certified: True\n")
    assert json.loads(default)["tau_eig"] == 1e-10


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["solve", "--builtin", "two_point", "--f", "one"],
    ["converge", "--grids", "8,16,32"],
    ["pseudospectral", "--n", "4"],
], ids=["help", "solve", "converge", "pseudospectral"])
def test_a_command_without_tolerance_does_not_read_the_environment(capsys, monkeypatch,
                                                                   argv):
    monkeypatch.setenv("SBP_TOLERANCE", "abc")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 0
    assert capsys.readouterr().err == ""


def test_tolerance_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("SBP_TOLERANCE", "1e-08")
    code, out, _ = _run(capsys, ["verify", "--builtin", "two_point"])
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-08


def test_invalid_tolerance_environment(capsys, monkeypatch):
    monkeypatch.setenv("SBP_TOLERANCE", "not-a-number")
    code, _, err = _run(capsys, ["verify", "--builtin", "two_point"])
    assert code == 2
    assert "SBP_TOLERANCE" in err


@pytest.mark.parametrize("value", ["inf", "0"])
def test_a_tolerance_environment_that_is_not_finite_and_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("SBP_TOLERANCE", value)
    code, out, err = _run(capsys, ["verify", "--builtin", "two_point"])
    assert code == 2
    assert out == ""
    assert "error: ParameterError: SBP_TOLERANCE must be finite and positive" in err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_counterexample(capsys, tmp_path):
    path = _save(tmp_path, build_counterexample())
    code, out, _ = _run(capsys, ["spectrum", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 1
    values = [complex(re, im) for re, im in doc["eigenvalues"]]
    assert min(abs(v - 1j * INV_SQRT5) for v in values) < 1e-10
    assert min(abs(v + 1j * INV_SQRT5) for v in values) < 1e-10
    assert doc["classifications"].count("imaginary") == 2


def test_spectrum_reports_are_byte_identical(capsys, tmp_path):
    path = _save(tmp_path, build_counterexample())
    _, first, _ = _run(capsys, ["spectrum", "--input", path])
    _, second, _ = _run(capsys, ["spectrum", "--input", path])
    assert first == second


# ---------------------------------------------------------------------------
# repair


def test_repair_emits_operator_and_plan(capsys, tmp_path):
    path = _save(tmp_path, build_counterexample())
    code, out, _ = _run(
        capsys, ["repair", "--input", path, "--target-eps", "1e-4"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"operator", "plan"}
    repaired = operator_from_document(doc["operator"])
    assert doc["plan"]["norm_bound"] <= 1e-4 * (1 + 1e-12)
    from sbpkit import verify_all

    report = verify_all(repaired)
    assert report.all_passed()
    assert report.eigenvalue_property


def test_an_operator_with_a_band_pair_but_no_unobservable_subspace_passes(capsys, tmp_path):
    # repaired by 1e-11, the pair sits inside the band but is observable
    once, _ = repair_operator(build_counterexample(), 1e-11)
    path = _save(tmp_path, once)
    code, _, _ = _run(capsys, ["verify", "--input", path, "--require-eigenvalue-property"])
    assert code == 0
    code, out, _ = _run(capsys, ["repair", "--input", path, "--target-eps", "1e-3"])
    assert code == 0
    assert json.loads(out)["plan"]["m"] == 0


def test_repair_output_file_round_trips(capsys, tmp_path):
    path = _save(tmp_path, build_counterexample())
    out_path = tmp_path / "repaired.json"
    code, _, _ = _run(
        capsys,
        ["repair", "--input", path, "--norm", "spectral", "--output", str(out_path)],
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["plan"]["norm_choice"] == "spectral"


# ---------------------------------------------------------------------------
# pseudospectral


def test_pseudospectral_generates_simpson_bundle(capsys, tmp_path):
    out_path = tmp_path / "lgl2.json"
    code, _, _ = _run(
        capsys,
        ["pseudospectral", "--family", "legendre_gauss_lobatto", "--n", "2",
         "--interval", "-1", "1", "--output", str(out_path)],
    )
    assert code == 0
    op = load_operator(out_path)
    np.testing.assert_allclose(np.diagonal(op.h), [1 / 3, 4 / 3, 1 / 3], atol=1e-12)
    assert op.q == 2


def test_pseudospectral_certify_sweep(capsys):
    code, out, _ = _run(
        capsys,
        ["pseudospectral", "--family", "chebyshev_gauss_lobatto", "--n", "6",
         "--certify"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert len(doc["entries"]) == 6


@pytest.mark.parametrize(
    "family", ["legendre_gauss_lobatto", "chebyshev_gauss_lobatto"]
)
def test_pseudospectral_certify_far_from_the_origin(capsys, family):
    code, out, _ = _run(
        capsys,
        ["pseudospectral", "--family", family, "--certify", "--n", "16",
         "--interval", "100", "101"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert all(e["moment_ok"] is True for e in doc["entries"])


def test_pseudospectral_certify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "sbpkit.pseudospectral.check_eigenvalue_property",
        lambda *args: EigenvalueCheck(has_property=False, offending=(0.5j,), basis=None))
    code, out, _ = _run(
        capsys, ["pseudospectral", "--certify", "--n", "2", "--format", "text"])
    assert code == 1
    assert "certified: False" in out
    failures = [line for line in out.splitlines() if line.startswith("  failure: ")]
    assert len(failures) == 2
    assert all("offending eigenvalues 0.5j" in line for line in failures)


def test_pseudospectral_certify_explicit_nodes(capsys):
    code, out, _ = _run(
        capsys,
        ["pseudospectral", "--family", "explicit", "--nodes", "0,1",
         "--interval", "0", "1", "--certify", "--format", "text"],
    )
    assert code == 0
    assert "certified: True" in out


def test_pseudospectral_uniform_indefinite_exit_2(capsys):
    code, _, err = _run(
        capsys,
        ["pseudospectral", "--family", "uniform", "--n", "8",
         "--interval", "-1", "1"],
    )
    assert code == 2
    assert "IndefiniteNormError" in err


def test_pseudospectral_explicit_requires_nodes(capsys):
    code, _, err = _run(capsys, ["pseudospectral", "--family", "explicit"])
    assert code == 2


# ---------------------------------------------------------------------------
# solve


def test_solve_builtin_identity_map(capsys):
    code, out, _ = _run(
        capsys, ["solve", "--builtin", "two_point", "--f", "one", "--u0", "0"]
    )
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["u"], [0.0, 1.0], atol=1e-14)


def test_solve_reversed_direction(capsys, tmp_path):
    samples = tmp_path / "f.json"
    samples.write_text("[-1.0, -1.0]")
    code, out, _ = _run(
        capsys,
        ["solve", "--builtin", "two_point", "--f-samples", str(samples),
         "--u0", "0", "--direction", "reversed"],
    )
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["u"], [1.0, 0.0], atol=1e-14)


def test_solve_text_format(capsys):
    code, out, _ = _run(
        capsys,
        ["solve", "--builtin", "two_point", "--f", "one", "--format", "text"],
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_solve_engineered_singular_system(capsys, tmp_path):
    op = build_counterexample()
    d = np.array(op.d_plus)
    d[2] = 0.0
    d[3] = 0.0
    path = _save(tmp_path, op.with_fields(d_plus=d, d_minus=d))
    code, _, err = _run(
        capsys, ["solve", "--input", path, "--f", "zero", "--u0", "1"]
    )
    assert code == 2
    assert "SingularSystemError" in err


# ---------------------------------------------------------------------------
# converge


def test_converge_json(capsys):
    code, out, _ = _run(
        capsys,
        ["converge", "--grids", "32,64,128", "--function", "sin", "--interval", "0", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fitted_order"] >= 1.9
    assert len(doc["errors_h"]) == 3


def test_converge_csv(capsys):
    code, out, _ = _run(
        capsys,
        ["converge", "--grids", "16,32,64", "--function", "exp",
         "--interval", "0", "1", "--format", "text"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,spacing,error_h,error_max,order"
    assert lines[-1].startswith("fit,")
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# eig runs only for a spectrum a command prints


def test_eig_runs_only_for_the_spectra_a_command_prints(capsys, tmp_path, monkeypatch):
    # The benchmark's command kinds: demo prints two spectra and spectrum one;
    # every verdict and certification reads eigenvalues only.
    path = str(tmp_path / "lgl16.json")
    commands = [
        (["demo"], 2),
        (["demo", "--format", "json"], 2),
        (["pseudospectral", "--family", "legendre_gauss_lobatto", "--n", "16",
          "--interval", "100.0", "101.0", "--output", path], 0),
        (["verify", "--input", path], 0),
        (["pseudospectral", "--family", "chebyshev_gauss_lobatto", "--certify", "--n", "16",
          "--interval", "0.0", "10.0"], 0),
        (["spectrum", "--builtin", "counterexample"], 1),
        (["repair", "--builtin", "counterexample"], 0),
        (["solve", "--builtin", "classical_fd_128", "--f", "cos", "--u0", "0.5"], 0),
        (["converge", "--grids", "64,128,256,512"], 0),
    ]
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda *a: calls.append(1) or eig(*a))
    for argv, expected in commands:
        calls.clear()
        code, _, _ = _run(capsys, argv)
        assert code == 0, argv
        assert len(calls) == expected, argv


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "sbpkit.cli", "verify", "--builtin", "two_point"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["eigenvalue_property"] is True
