"""Start-up: each command executes only the modules its kind of model needs,
and none imports ``dataclasses``.

``import heterotest`` registers every submodule but ``cli`` as a lazy
module that executes on first attribute access.  The commands below run in
fresh processes under an audit hook that records each module body the
interpreter executes, so the check never touches a module's attributes.
"""

import copy
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import heterotest
from heterotest.cli import main

PACKAGE = pathlib.Path(heterotest.__file__).resolve().parent
# the child processes import this checkout's package from any directory
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))

# Runs ``python -m heterotest.cli ARGS`` and writes to the file named first
# the stems of the heterotest modules whose bodies executed and the
# on-demand standard modules the command imported.
PROBE = """
import json, pathlib, runpy, sys
ran, preloaded = set(), set(sys.modules)

def hook(event, args):
    if event == "exec" and getattr(args[0], "co_name", "") == "<module>":
        path = pathlib.Path(args[0].co_filename)
        if path.parent.name == "heterotest":
            ran.add(path.stem)

sys.addaudithook(hook)
out, sys.argv = sys.argv[1], ["heterotest", *sys.argv[2:]]
try:
    runpy.run_module("heterotest.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
imported = sorted(set(sys.modules) - preloaded
                  & {"dataclasses", "hashlib", "random", "subprocess"})
pathlib.Path(out).write_text(json.dumps([sorted(ran), imported]))
"""

MACHINE_ONLY = {"csxms", "heterotic", "testgen", "dft", "sxm", "terms"}
PSYSTEM_ONLY = {"psystem"}
SYSTEM_ONLY = {"csxms", "heterotic"}
# The design-for-test, test-generation and mutation modules.
GENERATION_ONLY = {"dft", "testgen", "mutation"}


def executed(args, cwd):
    """The heterotest modules the command executed; checks that it imports
    ``hashlib`` only to pick a seeded branch, ``random`` only to sample
    mutants, and ``subprocess`` and ``dataclasses`` never."""
    out = cwd / "executed.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), *args],
                          cwd=str(cwd), env=ENV, capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr
    ran, imported = json.loads(out.read_text())
    # a heterotic file's Base runs seeded
    seeded = "--seed" in args or any(arg.endswith("heterotic.json") for arg in args)
    allowed = {"hashlib"} if seeded else {"random"} if args[0] == "mutate" else set()
    assert set(imported) <= allowed, imported
    return set(ran)


@pytest.fixture(scope="module")
def work(tmp_path_factory, models_dir):
    """Artifacts for the generating commands to score."""
    work = tmp_path_factory.mktemp("startup")
    for args in (
        ["gen-tests", "psystem", str(models_dir / "ps2.json"), "-o", str(work / "testset.json")],
        ["mutate", str(models_dir / "ps2.json"), "-o", str(work / "ps2_mutants.json")],
        ["gen-tests", "sxm", str(models_dir / "counter_testable.json"),
         "-o", str(work / "suite.json")],
        ["mutate", str(models_dir / "counter_testable.json"),
         "-o", str(work / "counter_mutants.json")],
    ):
        assert main(args) == 0
    # a system of two copies of the Control machine, the first sending to the second
    control = json.loads((models_dir / "ps2_control.json").read_text())
    first = copy.deepcopy(control)
    for fn in first["functions"]:
        for case in fn["cases"]:
            if "send_to" in case:
                case["send_to"] = 2
    (work / "system.json").write_text(
        json.dumps({"schema": 1, "name": "pair", "components": [first, control]}))
    return work


PSYSTEM_COMMANDS = [
    ["validate", "ps2.json"],
    ["validate", "--dft", "ps2.json"],
    ["simulate", "ps2.json", "--depth", "3", "--all-branches"],
    ["simulate", "ps2.json", "--depth", "3", "--seed", "1"],
    ["coverage", "ps2.json", "--depth", "3"],
    ["gen-tests", "psystem", "ps2.json"],
    ["mutate", "ps2.json"],
    ["score", "ps2.json", "--mutants", "{work}/ps2_mutants.json",
     "--test-set", "{work}/testset.json"],
]
# (command, the modules of GENERATION_ONLY it executes)
MACHINE_COMMANDS = [
    (["validate", "counter_testable.json"], set()),
    (["validate", "--dft", "counter.json"], {"dft"}),
    (["gen-tests", "sxm", "counter_testable.json", "--extra-states", "1"], {"dft", "testgen"}),
    (["mutate", "counter_testable.json"], {"mutation"}),
    # a suite's records live in ``sxm``, so scoring reads them without ``testgen``
    (["score", "counter_testable.json", "--mutants", "{work}/counter_mutants.json",
      "--suite", "{work}/suite.json"], {"mutation"}),
]
SYSTEM_COMMANDS = [
    (["validate", "ps2_heterotic.json"], set()),
    (["validate", "--dft", "ps2_heterotic.json"], {"dft"}),
    (["simulate", "ps2_heterotic.json", "--rounds", "2"], set()),
    (["gen-tests", "heterotic", "ps2_heterotic.json"], {"dft", "testgen"}),
    (["validate", "{work}/system.json"], set()),
    (["product", "{work}/system.json"], set()),
]


def _resolve(command, models_dir, work):
    return [str(models_dir / arg) if arg.endswith(".json") and "/" not in arg
            else arg.format(work=work) for arg in command]


@pytest.mark.parametrize("command", PSYSTEM_COMMANDS, ids=" ".join)
def test_psystem_commands_execute_no_machine_module(command, models_dir, work):
    ran = executed(_resolve(command, models_dir, work), work)
    assert "psystem" in ran
    assert not ran & MACHINE_ONLY, sorted(ran & MACHINE_ONLY)


@pytest.mark.parametrize("command, generating", MACHINE_COMMANDS,
                         ids=[" ".join(command) for command, _ in MACHINE_COMMANDS])
def test_machine_commands_execute_no_psystem_or_system_module(
        command, generating, models_dir, work):
    ran = executed(_resolve(command, models_dir, work), work)
    assert "sxm" in ran
    assert not ran & (PSYSTEM_ONLY | SYSTEM_ONLY), sorted(ran & (PSYSTEM_ONLY | SYSTEM_ONLY))
    assert ran & GENERATION_ONLY == generating


@pytest.mark.parametrize("command, generating", SYSTEM_COMMANDS,
                         ids=[" ".join(command) for command, _ in SYSTEM_COMMANDS])
def test_system_commands_execute_generation_modules_only_to_generate(
        command, generating, models_dir, work):
    ran = executed(_resolve(command, models_dir, work), work)
    assert "csxms" in ran
    assert ran & GENERATION_ONLY == generating


def test_importing_heterotic_executes_no_generation_module(tmp_path):
    # what perfbench/oracle.py imports for its simulator
    code = (
        "import json, pathlib, sys\n"
        "ran = set()\n"
        "def hook(event, args):\n"
        "    if event == 'exec' and getattr(args[0], 'co_name', '') == '<module>':\n"
        "        ran.add(pathlib.Path(args[0].co_filename).stem)\n"
        "sys.addaudithook(hook)\n"
        "from heterotest.heterotic import simulate_to_halt\n"
        "print(json.dumps(sorted(ran)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=str(tmp_path), env=ENV, check=True)
    ran = set(json.loads(proc.stdout))
    assert {"heterotic", "csxms"} <= ran
    assert not ran & GENERATION_ONLY, sorted(ran & GENERATION_ONLY)


def test_importing_cli_registers_every_module_and_executes_none(tmp_path):
    # perfbench/tracer.py looks its modules up in sys.modules right after
    # ``from heterotest import cli``
    code = (
        "import json, sys, types\n"
        "from heterotest import cli\n"
        "mods = {n: type(m) is types.ModuleType for n, m in sys.modules.items()\n"
        "        if n.startswith('heterotest.')}\n"
        "print(json.dumps(mods))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=str(tmp_path), env=ENV, check=True)
    loaded = json.loads(proc.stdout)
    stems = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert set(loaded) == {f"heterotest.{stem}" for stem in stems}
    assert sorted(n for n, ran in loaded.items() if ran) == [
        "heterotest.cli", "heterotest.errors", "heterotest.records"]


def test_running_cli_as_a_module_warns_nothing(models_dir):
    proc = subprocess.run([sys.executable, "-m", "heterotest.cli", "validate",
                           str(models_dir / "ps2.json")], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "psystem: valid\n"
    assert proc.stderr == ""


# Every name ``heterotest/__init__.py`` exported when it imported every
# submodule, by defining module, less the steps, the run and the
# translation that only tests take, kept in tests/product_walk.py and
# tests/machine_walk.py.
EXPORTS = {
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


@pytest.mark.parametrize("module_name", sorted(EXPORTS))
def test_old_exports_resolve_to_their_defining_object(module_name):
    module = importlib.import_module(f"heterotest.{module_name}")
    for name in EXPORTS[module_name]:
        namespace = {}
        exec(f"from heterotest import {name}", namespace)
        assert namespace[name] is getattr(module, name), name
        assert getattr(heterotest, name) is getattr(module, name), name
        assert name in dir(heterotest) and name in heterotest.__all__


def test_package_attributes():
    assert heterotest.__version__ == "0.1.0"
    assert heterotest.sxm.Violation is heterotest.errors.Violation
    assert heterotest.testgen.TestSuite is heterotest.sxm.TestSuite
    assert heterotest.testgen.TestCase is heterotest.sxm.TestCase
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        heterotest.nothing  # noqa: B018
