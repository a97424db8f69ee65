"""The benchmark (``perfbench/``) drives sbpkit from outside.  Its span tracer
(``perfbench/spans.py``) wraps sbpkit functions by module and name, so a traced
run fails if one of them is renamed or deleted; its oracle checks every output
of a run, so a few of its operations run here too."""

import importlib
import importlib.util
import pathlib

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


# Slots 0 and 1 hold a plain and a dense H (diagnose_fd), and one and six
# planted imaginary pairs (repair_planted).
@pytest.mark.parametrize("workload", ["DiagnoseFd", "RepairPlanted"])
def test_benchmark_oracle_accepts_the_outputs(worker, tmp_path, workload):
    bench = getattr(worker, workload)(seed=7, work_dir=str(tmp_path))
    bench.prepare(setup_only=False)
    for item in bench.items[:2]:
        assert bench.check(item, bench.run(item)) == ("ok", [])
