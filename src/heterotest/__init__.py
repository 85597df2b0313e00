"""heterotest: model and test stream X-machines, communicating machine
systems and cell-like P systems, including integration-test generation for
two-layer (Base/Control) heterotic designs.

Importing the package executes none of its submodules.  Each one is
registered in ``sys.modules`` as a lazy module that executes on its first
attribute access, and the names below resolve on first use, so a command
line run pays only for the modules it touches.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# Every submodule but ``cli``, which ``python -m heterotest.cli`` runs as
# ``__main__`` and which must therefore not be in ``sys.modules`` already.
_SUBMODULES = (
    "csxms", "dft", "errors", "heterotic", "model_io", "multiset", "mutation",
    "psystem", "records", "sxm", "terms", "testgen", "values",
)

# The public names and the submodule that defines each.
_EXPORTS = {
    "csxms": (
        "Csxm", "CsxmCase", "CsxmCaseFunction", "CsxmSystem", "build_product_sxm",
        "check_csxm_dft", "extend_for_testing", "generate_csxms_test_suite",
        "validate_csxm", "validate_system",
    ),
    "dft": ("DftReport", "check_dft"),
    "heterotic": (
        "HeteroticSystem", "HeteroticTrace", "OracleBinding", "build_heterotic_system",
        "generate_integration_tests", "run_heterotic", "simulator_oracle",
        "subprocess_oracle", "wrap_psystem_as_csxm",
    ),
    "multiset": ("Multiset",),
    "mutation": (
        "Mutant", "MutantBatch", "ScoreReport", "enumerate_mutants", "mutate_model",
    ),
    "psystem": (
        "ComputationTrace", "CoverageReport", "PRule", "PSystem",
        "generate_coverage_test_set", "maximal_rule_multisets", "psystem_run",
        "rule_coverage", "validate_psystem",
    ),
    "sxm": (
        "Automaton", "Case", "CaseFunction", "MemoryDomain", "Sxm", "SxmConfiguration",
        "associated_automaton", "validate_sxm",
    ),
    "testgen": (
        "TestCase", "TestSuite", "characterization_set", "generate_sxm_test_suite",
        "minimize_automaton", "state_cover", "w_method_phi_sequences",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def _register_lazy(name: str) -> None:
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _SUBMODULES:
    _register_lazy(_name)
del _name


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN})
