"""The A/B tool (``tools/ab.py``) times its own copies of the benchmark's
operations: it measures the benchmark's op only while each copy writes the
bytes the benchmark worker (``perfbench/worker.py``) writes for the same
input, and counts the decompositions one operation calls."""

import collections
import importlib
import importlib.util
import pathlib

import pytest

import sbpkit

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 7


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _first_item(workload):
    workload.prepare(setup_only=True)  # slot 0 alone
    (item,) = workload.items
    return item


def test_ab_diagnoses_as_the_benchmark_does(ab):
    worker = importlib.import_module("worker")
    workload = worker.DiagnoseFd(SEED, "")
    item = _first_item(workload)
    pair = item[1]
    assert ab._diagnose(sbpkit, (ab._to_op(sbpkit, pair),)) == "".join(workload.run(item))


def test_ab_repairs_as_the_benchmark_does(ab, tmp_path):
    worker = importlib.import_module("worker")
    workload = worker.RepairPlanted(SEED, str(tmp_path))
    item = _first_item(workload)
    _, pair, _, budget, norm, path = item
    text = workload.run(item)[0]
    ab_path = tmp_path / "ab.json"
    case = (ab._to_op(sbpkit, pair), budget, sbpkit.NormChoice(norm), str(ab_path))
    assert ab._repair(sbpkit, case) == text
    assert ab_path.read_bytes() == pathlib.Path(path).read_bytes()


def test_ab_counts_the_decompositions_of_one_operation(ab, tmp_path):
    # Slot 0 has a diagonal H and hidden pairs that the certificate decides:
    # one real eigh per eigenvalue check (verify, repair, verify) and one of
    # the repaired S, one Cholesky factor per rank proof of D_plus, one eig
    # per spectrum, and no complex eigh or SVD.
    import numpy as np

    worker = importlib.import_module("worker")
    workload = worker.RepairPlanted(SEED, str(tmp_path))
    _, pair, _, budget, norm, _ = _first_item(workload)
    case = (ab._to_op(sbpkit, pair), budget, sbpkit.NormChoice(norm), str(tmp_path / "ab.json"))
    eigh = np.linalg.eigh
    with ab._counting(collections.Counter()) as tally:
        ab._repair(sbpkit, case)
    assert np.linalg.eigh is eigh
    assert ab._format_counts(tally) == (
        "eigh 4 (complex 0), cholesky 3, svd 0, eig 2, eigvals 0")
