"""The benchmark (``perfbench/``) drives sbpkit from outside.  Its span tracer
(``perfbench/spans.py``) wraps sbpkit functions by module and name, so a traced
run fails if one of them is renamed or deleted; its oracle checks every output
of a run, so a few of its operations run here too."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [
        (module, name)
        for module, names in spans.SBPKIT_FUNCTIONS.items()
        for name in names
    ]


@pytest.mark.parametrize("module,name", _traced_functions())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"sbpkit.{module}"), name, None))


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


# Slots 0 and 1 of diagnose_fd hold a plain and a dense H; all six slots of
# repair_planted run, with one, three and six planted imaginary pairs, each
# plain and under a congruence.
@pytest.mark.parametrize("workload, slots", [("DiagnoseFd", 2), ("RepairPlanted", 6)],
                         ids=["DiagnoseFd", "RepairPlanted"])
def test_benchmark_oracle_accepts_the_outputs(worker, tmp_path, workload, slots):
    bench = getattr(worker, workload)(seed=7, work_dir=str(tmp_path))
    bench.prepare(setup_only=False)
    assert len(bench.items) >= slots
    for item in bench.items[:slots]:
        assert bench.check(item, bench.run(item)) == ("ok", [])


def test_benchmark_documents_match_the_reference(worker, tmp_path, monkeypatch):
    # Every document of the seed-7 inputs above, the saved operators included,
    # is byte for byte the element-wise %.17g format.
    from oracles import reference_dumps
    from sbpkit import jsonio

    emitted = []
    dumps = jsonio.dumps

    def recording(obj):
        text = dumps(obj)
        emitted.append((obj, text))
        return text

    monkeypatch.setattr(jsonio, "dumps", recording)
    saved = []
    for workload, slots in (("DiagnoseFd", 2), ("RepairPlanted", 6)):
        bench = getattr(worker, workload)(seed=7, work_dir=str(tmp_path))
        bench.prepare(setup_only=False)
        for item in bench.items[:slots]:
            bench.run(item)
            if workload == "RepairPlanted":
                with open(item[-1], encoding="utf-8") as fh:
                    saved.append(fh.read())
    assert len(emitted) == 2 * 2 + 6 * 2
    for obj, text in emitted:
        assert text == reference_dumps(obj)
    operators = [text + "\n" for obj, text in emitted if "D_plus" in obj]
    assert saved == operators


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_lobatto_generate_and_verify_cells_are_ok(worker, tmp_path, capsys):
    # The 24 generate -> verify cells of cli_small, run in this process.
    from sbpkit.cli import main

    oracle = _oracle()
    bench = worker.CliSmall(seed=7, work_dir=str(tmp_path))
    bench.prepare(setup_only=False)
    cells = [task for task in bench.tasks if task[0][0] == "generate"]
    assert len(cells) == 24
    verdicts = []
    for (_, generate, spec), (_, verify, _) in cells:
        assert main(generate) == 0
        capsys.readouterr()
        with open(spec["path"]) as fh:
            doc = json.load(fh)
        args = (spec["n"], spec["a"], spec["b"])
        problems, sbp = oracle.lobatto_operator(doc, spec["family"], *args)
        assert problems == [] and sbp == [], (generate, problems, sbp)
        status = main(verify)
        report = json.loads(capsys.readouterr().out)
        verdicts.append((spec["path"], oracle.verify_verdict(report, status, True, *args)))
    assert [v for v in verdicts if v[1] != ("ok", [])] == []


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial would add a few milliseconds to every CLI command.
    code = "import sys, sbpkit.cli; print('numpy.polynomial' in sys.modules)"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_traced_modules_are_loaded_by_the_cli_import():
    # Tracer.install looks each traced module up in sys.modules, so a module
    # that `import sbpkit` and `import sbpkit.cli` leave unloaded would break
    # every traced run.
    modules = sorted({f"sbpkit.{module}" for module, _ in _traced_functions()})
    code = ("import sys, sbpkit, sbpkit.cli; "
            f"print([m for m in {modules!r} if m not in sys.modules])")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
