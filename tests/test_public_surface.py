"""The public surface: each module's ``__all__`` and the package namespace.

A name deleted from a module but left in its ``__all__`` breaks only
``from module import *``, and a helper that the package imports without
listing it is public by accident; neither fails anywhere else."""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import sbpkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(sbpkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"sbpkit.{name}")
    assert [s for s in module.__all__ if not hasattr(module, s)] == []


def test_the_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(sbpkit.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    unlisted = [
        (module, name) for module, name in imported
        if name not in importlib.import_module(f"sbpkit.{module}").__all__
    ]
    assert unlisted == []


# The public surface, pinned: adding or removing a public name takes an edit
# here.
PACKAGE_NAMES = [
    "BUILTIN_OPERATORS", "CertificationReport", "ContractError", "ConvergenceStudy",
    "DEFAULT_TOLERANCE", "DecompositionError", "EigenvalueClass", "Family", "FlowDirection",
    "IndefiniteNormError", "InternalInconsistencyError", "Interval", "InvariantError",
    "NodeFamily", "NormChoice", "ParameterError", "ParseError", "PerturbationPlan",
    "Property", "PropertyResidual", "RepairImpossibleError", "SatProblem",
    "SbpError", "SbpOperatorPair", "SchemaError", "ShapeError", "SingularNormError",
    "SingularSystemError", "SpectralReport", "VerificationReport", "assemble",
    "build_classical_fd", "build_counterexample", "build_d_tilde", "build_interpolatory_h",
    "build_pseudospectral_d", "build_pseudospectral_operator", "build_s_prime",
    "build_two_point", "certify_families", "check_accuracy", "check_eigenvalue_property",
    "check_nullspace_consistency", "check_s_conditions", "check_sbp_identities", "check_spd",
    "convergence_study", "derive_d_minus", "eigen_decompose", "h_inner",
    "legendre_gauss_lobatto", "load_operator", "operator_from_document",
    "operator_to_document", "orthogonalize_imaginary", "repair_operator", "save_operator",
    "solve", "spectral_report", "verify_all",
]

MODULE_ALL = {
    "cli": ["console", "main"],
    "errors": [
        "ContractError", "DecompositionError", "IndefiniteNormError",
        "InternalInconsistencyError", "InvariantError", "ParameterError", "ParseError",
        "RepairImpossibleError", "SbpError", "SchemaError", "ShapeError", "SingularNormError",
        "SingularSystemError",
    ],
    "jsonio": ["dumps"],
    "linalg": [
        "DEFAULT_TOLERANCE", "check_positive", "legendre_basis", "max_abs", "rank_threshold",
        "relative_residual", "svd_rank",
    ],
    "operators": [
        "BUILTIN_OPERATORS", "Interval", "SbpOperatorPair", "build_classical_fd",
        "build_counterexample", "build_two_point", "derive_d_minus", "solve_against_norm",
    ],
    "pseudospectral": [
        "CertificationEntry", "CertificationReport", "Family", "NodeFamily",
        "build_interpolatory_h", "build_modal_h", "build_pseudospectral_d",
        "build_pseudospectral_operator", "certify_families", "chebyshev_gauss_lobatto_nodes",
        "legendre_gauss_lobatto",
    ],
    "repair": ["NormChoice", "PerturbationPlan", "build_s_prime", "repair_operator"],
    "sat": [
        "ConvergenceStudy", "FlowDirection", "SatProblem", "assemble", "convergence_study",
        "solve",
    ],
    "spectral": [
        "EigenvalueClass", "SpectralReport", "build_d_tilde", "eigen_decompose", "h_inner",
        "orthogonalize_imaginary", "spectral_report",
    ],
    "storage": ["load_operator", "operator_from_document", "operator_to_document",
                "save_operator"],
    "verify": [
        "DEFAULT_TOLERANCE", "EigenvalueCheck", "NullspaceDiagnostics",
        "Property", "PropertyResidual", "VerificationReport", "check_accuracy",
        "check_eigenvalue_property", "check_nullspace_consistency", "check_s_conditions",
        "check_sbp_identities", "check_spd", "verify_all",
    ],
}


def test_the_package_namespace_is_pinned():
    names = sorted(name for name, value in vars(sbpkit).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PACKAGE_NAMES


def test_every_module_all_is_pinned():
    assert sorted(MODULE_ALL) == MODULES
    for name in MODULES:
        exported = importlib.import_module(f"sbpkit.{name}").__all__
        assert len(set(exported)) == len(exported), name
        assert sorted(exported) == MODULE_ALL[name], name
