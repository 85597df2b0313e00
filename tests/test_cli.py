import errno
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import heterotest
from heterotest.cli import main

HETEROTEST = [sys.executable, "-m", "heterotest.cli"]
# the child interpreter imports the package this process imported
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(pathlib.Path(heterotest.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")])))


def run_cli(args, models_dir):
    proc = subprocess.run(
        HETEROTEST + args,
        capture_output=True,
        text=True,
        cwd=str(models_dir.parent),
        env=ENV,
    )
    return proc


def test_validate_ps2_ok(models_dir, capsys):
    assert main(["validate", str(models_dir / "ps2.json")]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_dft_failure_exit_one(models_dir, capsys):
    # counter.json fails completeness: inc undefined at memory 3
    code = main(["validate", "--dft", str(models_dir / "counter.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "inc is undefined at memory 3" in out


def test_validate_dft_pass_exit_zero(models_dir, capsys):
    assert main(["validate", "--dft", str(models_dir / "counter_testable.json")]) == 0
    capsys.readouterr()


def test_validate_dft_heterotic_checks_extended_components(models_dir, capsys):
    assert main(["validate", "--dft", str(models_dir / "ps2_heterotic.json")]) == 0
    out = capsys.readouterr().out
    assert "dft [base]" in out and "dft [ps2_control]" in out
    assert "FAIL" not in out


def test_validate_csxm_file(models_dir, capsys):
    assert main(["validate", "--dft", str(models_dir / "ps2_control.json")]) == 0
    capsys.readouterr()


def test_simulate_depth_zero_prints_initial(models_dir, capsys):
    code = main(["simulate", str(models_dir / "ps2.json"), "--depth", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(s,t)"


def test_simulate_all_branches_shows_paper_run(models_dir, capsys):
    code = main(["simulate", str(models_dir / "ps2.json"), "--depth", "3", "--all-branches"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(s,t) ⟹({r11},{r21}) (abe,b) ⟹({r13,r15},∅) (bcf,ab) "
    assert "(ccf,c)" in out
    assert "(bdf,b)" in out


def test_gen_tests_psystem_exit_zero_and_members(models_dir, tmp_path, capsys):
    out_file = tmp_path / "testset.json"
    code = main([
        "--format", "json", "gen-tests", "psystem",
        str(models_dir / "ps2.json"), "--depth", "3", "-o", str(out_file),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert doc["method"] == "rule-coverage"
    members = doc["members"]
    assert {"1": "ccf", "2": "c"} in members
    assert doc["report"]["all_covered"]


def test_gen_tests_sxm_and_score_round_trip(models_dir, tmp_path, capsys):
    suite_file = tmp_path / "suite.json"
    code = main([
        "gen-tests", "sxm", str(models_dir / "counter_testable.json"),
        "--extra-states", "0", "-o", str(suite_file),
    ])
    assert code == 0
    mutants_file = tmp_path / "mutants.json"
    code = main([
        "mutate", str(models_dir / "counter_testable.json"),
        "--ops", "transition-retarget", "--seed", "1", "--count", "2",
        "-o", str(mutants_file),
    ])
    assert code == 0
    score_file = tmp_path / "score.json"
    code = main([
        "score", str(models_dir / "counter_testable.json"),
        "--mutants", str(mutants_file), "--suite", str(suite_file),
        "-o", str(score_file),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(score_file.read_text())
    assert doc["total"] == 2


def test_mutate_and_score_psystem(models_dir, tmp_path, capsys):
    testset_file = tmp_path / "testset.json"
    main(["gen-tests", "psystem", str(models_dir / "ps2.json"), "--depth", "3",
          "-o", str(testset_file)])
    mutants_file = tmp_path / "mutants.json"
    code = main([
        "mutate", str(models_dir / "ps2.json"), "--ops", "rule-delete",
        "--seed", "0", "--count", "7", "-o", str(mutants_file),
    ])
    assert code == 0
    score_file = tmp_path / "score.json"
    code = main([
        "score", str(models_dir / "ps2.json"), "--mutants", str(mutants_file),
        "--test-set", str(testset_file), "-o", str(score_file),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(score_file.read_text())
    assert doc["killed"] == doc["total"] == 7


def test_gen_tests_heterotic(models_dir, tmp_path, capsys):
    out_file = tmp_path / "suite.json"
    code = main([
        "gen-tests", "heterotic", str(models_dir / "ps2_heterotic.json"),
        "--extra-states", "0", "-o", str(out_file),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert doc["metadata"]["roles"] == {"base": "base", "control": "ps2_control"}


def _control_pair(models_dir, tmp_path, first_sends_to):
    # build a system file from the heterotic parts to exercise `product`;
    # the wrapped base holds built-in functions, so use a pure case-table pair
    from heterotest.model_io import canonical_json, load_model_file, sxm_to_dict

    control = load_model_file(models_dir / "ps2_heterotic.json")[1].control
    first, second = (json.loads(canonical_json(sxm_to_dict(control))) for _ in range(2))
    second["name"] = "ps2_control_2"  # component names are distinct
    for fn in first["functions"]:
        for case in fn["cases"]:
            if "send_to" in case:
                case["send_to"] = first_sends_to
    sys_file = tmp_path / "system.json"
    sys_file.write_text(json.dumps({"schema": 1, "name": "pair", "components": [first, second]}))
    return sys_file


def test_product_summary(models_dir, tmp_path, capsys):
    sys_file = _control_pair(models_dir, tmp_path, first_sends_to=2)
    code = main(["--format", "json", "product", str(sys_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["states"]
    assert payload["memory_size"] >= 1


def test_product_summary_pinned(models_dir, tmp_path, capsys):
    # sha256 of the ``-o`` summary, measured before the product machine
    # stepped through the system's communicating-change rule
    sys_file = _control_pair(models_dir, tmp_path, first_sends_to=2)
    out_file = tmp_path / "product.json"
    assert main(["product", str(sys_file), "-o", str(out_file)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "7a2d5744cffeb48e4969a8538672dd9a6290816bb24bad5d4baf3a7867db56ee")


def test_product_rejects_component_sending_to_itself(models_dir, tmp_path, capsys):
    sys_file = _control_pair(models_dir, tmp_path, first_sends_to=1)
    _reject_before_generating(
        [["product", str(sys_file)]], "component cannot send to itself", tmp_path, capsys
    )


def _control_with_text_send_to(models_dir):
    doc = json.loads((models_dir / "ps2_control.json").read_text(encoding="utf-8"))
    for fn in doc["functions"]:
        for case in fn["cases"]:
            if "send_to" in case:
                case["send_to"] = "x"
    return doc


def test_validate_rejects_text_send_to_in_csxm(models_dir, tmp_path, capsys):
    model = tmp_path / "control.json"
    model.write_text(json.dumps(_control_with_text_send_to(models_dir)))
    assert main(["validate", str(model)]) == 3
    err = capsys.readouterr().err
    assert "send_to must be an integer" in err and "Traceback" not in err


def test_validate_and_product_reject_text_send_to_in_system(models_dir, tmp_path, capsys):
    control = _control_with_text_send_to(models_dir)
    model = tmp_path / "pair.json"
    model.write_text(json.dumps({"schema": 1, "name": "pair", "components": [control, control]}))
    for args in (["validate", str(model)], ["product", str(model)]):
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "send_to must be an integer" in err and "Traceback" not in err


def test_generation_failure_exit_two(tmp_path, capsys):
    # a rule that can never fire makes the coverage test set incomplete
    doc = {
        "schema": 1,
        "alphabet": ["a", "b", "z"],
        "structure": {"id": 1, "children": []},
        "initial": {"1": "a"},
        "rules": {"1": [
            {"name": "r1", "lhs": "a", "rhs": [["b", "here"]]},
            {"name": "dead", "lhs": "z", "rhs": [["b", "here"]]},
        ]},
    }
    model = tmp_path / "gap.json"
    model.write_text(json.dumps(doc))
    assert main(["gen-tests", "psystem", str(model), "--depth", "3"]) == 2
    out = capsys.readouterr().out
    assert "UNCOVERED" in out


def test_parse_error_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 3
    capsys.readouterr()


def test_unknown_keys_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": 1, "alphabet": ["a"], "structure": {"id": 1},
        "initial": {"1": "a"}, "rules": {}, "surprise": True,
    }))
    assert main(["validate", str(bad)]) == 3
    capsys.readouterr()


def test_byte_identical_artifacts(models_dir, tmp_path, capsys):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    for target in (one, two):
        assert main([
            "gen-tests", "psystem", str(models_dir / "ps2.json"),
            "--depth", "3", "-o", str(target),
        ]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_coverage_command(models_dir, capsys):
    assert main(["coverage", str(models_dir / "ps2.json"), "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("covered") == 7


def test_cli_subprocess_entry_point(models_dir):
    proc = run_cli(["validate", str(models_dir / "ps2.json")], models_dir)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_byte_identical_across_processes(models_dir, tmp_path):
    # separate interpreter runs get different string-hash seeds; artifacts
    # must not depend on set iteration order
    files = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        proc = run_cli(
            ["gen-tests", "heterotic", str(models_dir / "ps2_heterotic.json"),
             "--extra-states", "0", "-o", str(target)],
            models_dir,
        )
        assert proc.returncode == 0
        files.append(target.read_bytes())
    assert files[0] == files[1]


def test_simulate_heterotic_rounds(models_dir, capsys):
    code = main(["--format", "json", "simulate", str(models_dir / "ps2_heterotic.json"),
                 "--rounds", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rounds_completed"] == 2
    directions = [e["direction"] for e in doc["exchanges"]]
    assert directions == ["base_to_control", "control_to_base", "base_to_control"]


def test_simulate_heterotic_with_oracle_cmd(models_dir, tmp_path, capsys):
    script = tmp_path / "oracle.py"
    script.write_text(
        "import json,sys\n"
        "json.loads(sys.stdin.readline())\n"
        "print(json.dumps({'final': {'1': 'bdf', '2': 'b'}, 'steps': 2}))\n"
    )
    code = main([
        "--format", "json", "simulate", str(models_dir / "ps2_heterotic.json"),
        "--rounds", "1", "--oracle-cmd", f"{sys.executable} {script}",
        "--oracle-timeout-ms", "8000",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exchanges"][0]["configuration"] == {"1": "bdf", "2": "b"}


def test_simulate_psystem_requires_depth(models_dir, capsys):
    assert main(["simulate", str(models_dir / "ps2.json")]) == 2
    capsys.readouterr()


def test_env_seed_default(models_dir, capsys, monkeypatch):
    monkeypatch.setenv("HETEROTEST_SEED", "3")
    code = main(["--format", "json", "simulate", str(models_dir / "ps2.json"),
                 "--depth", "3", "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 1
    assert doc["mode"] == "seeded"


def test_env_seed_is_the_mutate_seed(models_dir, tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "mutants.json"

    def digest(*flags):
        assert main(["mutate", str(models_dir / "ps2.json"), "--count", "3", *flags,
                     "-o", str(out_file)]) == 0
        capsys.readouterr()
        return hashlib.sha256(out_file.read_bytes()).hexdigest()

    monkeypatch.delenv("HETEROTEST_SEED", raising=False)
    unset = digest()
    assert digest("--seed", "3") == (
        "d5b4256d0a55bf7901e1691005c365fff9380ee55a690d49a811c9c81f2dd495")
    monkeypatch.setenv("HETEROTEST_SEED", "3")
    assert digest() == "d5b4256d0a55bf7901e1691005c365fff9380ee55a690d49a811c9c81f2dd495"
    assert unset == "555381f23429275d0b2fbd9f1bb9040523feaba09746059d6be456b3de943823"


def test_non_integer_env_seed_is_a_usage_error(models_dir, tmp_path, capsys, monkeypatch):
    # read as seed 0, exit 0, before
    monkeypatch.setenv("HETEROTEST_SEED", "abc")
    out_file = tmp_path / "mutants.json"
    args = ["mutate", str(models_dir / "ps2.json"), "--count", "2", "-o", str(out_file)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: HETEROTEST_SEED must be an integer, got 'abc'\n"
    assert not out_file.exists()
    # a --seed flag leaves the variable unread
    assert main(args + ["--seed", "3"]) == 0
    capsys.readouterr()


def _reject_before_generating(commands, violation, tmp_path, capsys):
    out_file = tmp_path / "artifact.json"
    for args in commands:
        assert main(args + ["-o", str(out_file)]) == 1, args
        err = capsys.readouterr().err
        assert violation in err and "Traceback" not in err
        assert not out_file.exists()


def test_machine_commands_reject_model_validate_rejects(models_dir, tmp_path, capsys):
    spec = str(models_dir / "counter_testable.json")
    suite, mutants = str(tmp_path / "suite.json"), str(tmp_path / "mutants.json")
    assert main(["gen-tests", "sxm", spec, "-o", suite]) == 0
    assert main(["mutate", spec, "-o", mutants]) == 0
    doc = json.loads((models_dir / "counter_testable.json").read_text(encoding="utf-8"))
    doc["functions"][0]["cases"][0]["output"] = "zzz"
    model = tmp_path / "counter.json"
    model.write_text(json.dumps(doc))
    assert main(["validate", str(model)]) == 1
    capsys.readouterr()
    _reject_before_generating(
        [
            ["gen-tests", "sxm", str(model)],
            ["mutate", str(model)],
            ["score", str(model), "--mutants", mutants, "--suite", suite],
        ],
        "output 'zzz' not in the output alphabet",
        tmp_path,
        capsys,
    )


def test_score_reports_a_hand_edited_invalid_mutant(models_dir, tmp_path, capsys):
    # the per-mutant gate now reuses the spec's memoised function checks;
    # its report must read as the full validation's did
    spec = str(models_dir / "counter_testable.json")
    suite, mutants = str(tmp_path / "suite.json"), tmp_path / "mutants.json"
    assert main(["gen-tests", "sxm", spec, "-o", suite]) == 0
    assert main(["mutate", spec, "-o", str(mutants)]) == 0
    doc = json.loads(mutants.read_text(encoding="utf-8"))
    cases = doc["mutants"][1]["model"]["functions"][0]["cases"]
    cases[0]["output"] = "zzz"
    cases[1]["mem_next"] = "?m + 7"
    mutants.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["score", spec, "--mutants", str(mutants), "--suite", suite]) == 1
    assert capsys.readouterr().err == (
        "error: mutant case-output-swap:functions[inc].cases[1].output=z model has "
        "2 violation(s)\n"
        "  functions[inc].cases[0]: output 'zzz' not in the output alphabet\n"
        "  functions[inc]: update at memory 3, input 'i' leaves the declared domain (10)\n"
    )


def test_psystem_commands_reject_rhs_target_outside_the_membranes(models_dir, tmp_path, capsys):
    spec = str(models_dir / "ps2.json")
    testset, mutants = str(tmp_path / "testset.json"), str(tmp_path / "mutants.json")
    assert main(["gen-tests", "psystem", spec, "-o", testset]) == 0
    assert main(["mutate", spec, "-o", mutants]) == 0
    doc = json.loads((models_dir / "ps2.json").read_text(encoding="utf-8"))
    doc["rules"]["1"][2]["rhs"][1] = ["a", 5]
    model = tmp_path / "ps2.json"
    model.write_text(json.dumps(doc))
    assert main(["validate", str(model)]) == 1
    capsys.readouterr()
    _reject_before_generating(
        [
            ["simulate", str(model), "--depth", "3"],
            ["gen-tests", "psystem", str(model)],
            ["coverage", str(model), "--depth", "3"],
            ["mutate", str(model)],
            ["score", str(model), "--mutants", mutants, "--test-set", testset],
        ],
        "target 5 is neither the parent nor a child of compartment 1",
        tmp_path,
        capsys,
    )


def test_gen_tests_heterotic_k3_pinned(models_dir, tmp_path, capsys):
    out_file = tmp_path / "suite.json"
    code = main([
        "gen-tests", "heterotic", str(models_dir / "ps2_heterotic.json"),
        "--extra-states", "3", "-o", str(out_file),
    ])
    assert code == 0
    capsys.readouterr()
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == "3aa7403adc8e9cad116df2eda783cf5cd5bfeb53743d14e62f0c63edeeb5d83c"
    assert json.loads(out_file.read_text())["metadata"]["phi_sequences"] == 146_060


def test_gen_tests_heterotic_k4_pinned(models_dir, tmp_path, capsys):
    # sha256 measured when the suite listed every phi-sequence
    out_file = tmp_path / "suite.json"
    assert main(["gen-tests", "heterotic", str(models_dir / "ps2_heterotic.json"),
                 "--extra-states", "4", "-o", str(out_file)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == "8471e850cba784b49ed7bf2faa8476037fc772e053303b57ff07cffdf82a51e3"
    doc = json.loads(out_file.read_text())
    assert len(doc["cases"]) == 4_559
    assert doc["metadata"]["phi_sequences"] == 1_022_425
    assert doc["metadata"]["fallback_sequences"] == 1_019_983


# sha256 of the ``-o`` artifact and the phi-sequence count of the ps2
# heterotic suite at each k below the pin above, measured before the
# product machine stepped through the system's communicating-change rule.
@pytest.mark.parametrize("k, digest, phi", [
    (0, "bd53c4a19ef07022dedfdf478b9071153889e5e734eed3b690bc9a28ac1b666e", 425),
    (1, "9e1d0eb42a5d70cdcf37f5c5528b22a65f3de005572defd1c0a9241bad865640", 2_980),
    (2, "e25e1d06837387dd7eae3ac9f22fdbaddbc4fcb0e2190b40ed786bd8d810225b", 20_865),
])
def test_gen_tests_heterotic_pinned(models_dir, tmp_path, capsys, k, digest, phi):
    out_file = tmp_path / "suite.json"
    assert main(["gen-tests", "heterotic", str(models_dir / "ps2_heterotic.json"),
                 "--extra-states", str(k), "-o", str(out_file)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
    assert json.loads(out_file.read_text())["metadata"]["phi_sequences"] == phi


# A two-compartment P system from the benchmark's skeleton: 3,115 traces
# through 125 distinct configurations at depth 4.  ``PAST_CAP`` differs only
# in its initial multisets and grows past 10,000 branches in its last layer.
BRANCHING = {
    "schema": 1, "name": "branch2_1", "alphabet": ["a", "b", "c", "d"],
    "structure": {"id": 1, "children": [{"id": 2, "children": []}]},
    "initial": {"1": "d", "2": "acddd"},
    "rules": {
        "1": [{"name": "r11", "lhs": "b", "rhs": [["d", "here"]]},
              {"name": "r12", "lhs": "d", "rhs": [["b", "here"]]},
              {"name": "r13", "lhs": "c", "rhs": [["b", "here"]]},
              {"name": "r14", "lhs": "b", "rhs": [["a", 2]]}],
        "2": [{"name": "r21", "lhs": "a", "rhs": [["d", "here"]]},
              {"name": "r22", "lhs": "a", "rhs": [["c", 1]]},
              {"name": "r23", "lhs": "d", "rhs": [["a", "here"]]},
              {"name": "r24", "lhs": "d", "rhs": [["c", 1]]}],
    },
}
PAST_CAP = dict(BRANCHING, name="pastcap_1", initial={"1": "bbcccd", "2": "d"})


@pytest.mark.parametrize("command, flags, digest", [
    (["simulate"], ["--all-branches"],
     "44325fdc1375da806ef842fe230051635ff38b9231c72c41892cfe9a045141e5"),
    (["coverage"], [],
     "d57d569b89b572b3cd738c1e9c0439f4afbb50aa3c02275606fdbe8cb3d038e8"),
    (["gen-tests", "psystem"], [],
     "f1bb4abac58150a1f38af763de54e14ff5fa25f05640f0bb2b34ec6f1d064991"),
])
def test_all_branch_artifacts_pinned(tmp_path, capsys, command, flags, digest):
    model = tmp_path / "branch2_1.json"
    model.write_text(json.dumps(BRANCHING))
    out_file = tmp_path / "artifact.json"
    assert main(command + [str(model), "--depth", "4"] + flags + ["-o", str(out_file)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_all_branches_past_the_branch_cap_exit_two(tmp_path, capsys):
    model = tmp_path / "pastcap_1.json"
    model.write_text(json.dumps(PAST_CAP))
    out_file = tmp_path / "traces.json"
    args = ["simulate", str(model), "--depth", "4", "--all-branches", "-o", str(out_file)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "error: more than 10000 simultaneous branches\n"
    assert not out_file.exists()
    # the exploration fails before -o is opened, so a file already there
    # keeps its bytes
    out_file.write_bytes(b"an earlier artifact\n")
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: more than 10000 simultaneous branches\n"
    assert captured.out == ""
    assert out_file.read_bytes() == b"an earlier artifact\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("flags", [["--all-branches"], ["--seed", "3"]])
def test_simulate_unwritable_output_exit_three(tmp_path, capsys, fmt, flags):
    model = tmp_path / "branch2_1.json"
    model.write_text(json.dumps(BRANCHING))
    out_file = tmp_path / "missing" / "traces.json"
    code = main(["--format", fmt, "simulate", str(model), "--depth", "4", *flags,
                 "-o", str(out_file)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out_file)!r}\n"


class BreakingStdout:
    """A stdout whose reader has gone: every write after the first
    ``accepted`` raises BrokenPipeError."""

    def __init__(self, accepted):
        self.accepted, self.written = accepted, []

    def write(self, text):
        if len(self.written) >= self.accepted:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        self.written.append(text)
        return len(text)

    def flush(self):
        pass


# Text goes to stdout a line at a time, and the stdout breaks after the
# first write; a JSON document may go in one write, so there it breaks at
# the first.  Either way the -o file was finished before stdout was written.
@pytest.mark.parametrize("fmt, accepted", [("text", 1), ("json", 0)])
@pytest.mark.parametrize("flags", [["--all-branches"], ["--seed", "3"]])
def test_simulate_broken_stdout_leaves_a_complete_artifact(tmp_path, capsys, monkeypatch,
                                                           fmt, accepted, flags):
    model = tmp_path / "branch2_1.json"
    model.write_text(json.dumps(BRANCHING))
    args = ["--format", fmt, "simulate", str(model), "--depth", "4", *flags, "-o"]
    whole = tmp_path / "whole.json"
    assert main(args + [str(whole)]) == 0
    capsys.readouterr()
    out_file = tmp_path / "traces.json"
    stdout = BreakingStdout(accepted)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(args + [str(out_file)])
    monkeypatch.undo()
    assert code == 3
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert len(stdout.written) == accepted
    assert out_file.read_bytes() == whole.read_bytes()


# sha256 of the ``coverage`` artifact of ps2 at each depth, measured while
# coverage still replayed a materialised list of every computation.
@pytest.mark.parametrize("depth, digest", [
    (0, "91f01e006bf89fc6595188eb541ff6fc4e3de4f59cecf22bddf3372a4e0b380f"),
    (1, "7a3d34bca92ef630f2b8ef1f5951ebd5dea47d8e35c18e2e2c3edea0c6d95094"),
    (2, "81990732378ad581da7dc95f55a50935d93fd961d322a018e232bb35320327a9"),
    (3, "be6aefca94def2f2d7ab47fce40643ddc22e9c0fd24e74dab150c58dd3e70476"),
    (4, "be6aefca94def2f2d7ab47fce40643ddc22e9c0fd24e74dab150c58dd3e70476"),
])
def test_ps2_coverage_pinned(models_dir, tmp_path, capsys, depth, digest):
    out_file = tmp_path / "coverage.json"
    assert main(["coverage", str(models_dir / "ps2.json"), "--depth", str(depth),
                 "-o", str(out_file)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_coverage_past_the_branch_cap_exit_two(tmp_path, capsys):
    model = tmp_path / "pastcap_1.json"
    model.write_text(json.dumps(PAST_CAP))
    out_file = tmp_path / "coverage.json"
    assert main(["coverage", str(model), "--depth", "4", "-o", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: more than 10000 simultaneous branches\n"
    assert captured.out == ""
    assert not out_file.exists()


# sha256 of the ``-o`` artifact and of the text stdout of the seeded run,
# the heterotic driver and the design-for-test report, measured before the
# seeded step and the communicating case tables were given one
# implementation each.
@pytest.mark.parametrize("args, artifact, stdout", [
    (["simulate", "BRANCHING", "--depth", "4", "--seed", "0"],
     "9c117bc52d1cbe1f77b83e9436053c2441beeff0c7e7dfc06a3162a225398ce1",
     "de3b7ed32ec6287b475526059d51518c0195a9484ea33c4fff137f403709942c"),
    (["simulate", "BRANCHING", "--depth", "4", "--seed", "1"],
     "41cb6186475d113b810abf4592e6aaf7def5634cf96683a8dc75eebd725c7e2b",
     "c1934d7eed9568110de1cf1086f274d55563c02445f15a5c288f079e43c021ed"),
    (["simulate", "BRANCHING", "--depth", "4", "--seed", "2"],
     "9522fe578b2e87327830400223bbcdf5e175c86f11c0682c72153ac51bb103ef",
     "39b77fbea79966d84ea66ffe241eebf5995f054219ed5e593b541c5ca4faab1c"),
    (["simulate", "ps2_heterotic.json", "--rounds", "2"],
     "1b703ea18500c123471a4baf5d2b31546b873f855eb6b2d2d405bddc8af8bcd9",
     "172d85f732169c7e3b9dc2f0fc9e6a29db14957be5e788d2aa6d09f408a635b5"),
    (["validate", "--dft", "ps2_heterotic.json"],
     "b2dd9520c3f4b68f08acec02c0bb7fdb6086f96b0c46a6bde8479a4fd31d7dd7",
     "abadd2be2a5cd919c86c47bac1e1064ff15f703f18eb1ae28a31598b9abce281"),
])
def test_seeded_and_heterotic_outputs_pinned(models_dir, tmp_path, capsys, args, artifact, stdout):
    model = tmp_path / "branch2_1.json"
    model.write_text(json.dumps(BRANCHING))
    args = [str(model) if a == "BRANCHING" else str(models_dir / a) if a.endswith(".json") else a
            for a in args]
    out_file = tmp_path / "artifact.json"
    assert main(args + ["-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == artifact
    assert hashlib.sha256(out.encode()).hexdigest() == stdout


# sha256 of the ``-o`` artifact of W-method generation and of the
# design-for-test report, measured before minimisation named its states
# through the state-cover walk and before the three nondeterminism scans
# became one.
@pytest.mark.parametrize("k, digest", [
    (0, "7c1de5330baafb22889dcbd939fbaec63b6f01a665dba0a0e597674f9f3fe70a"),
    (1, "b4e4074c78082912058a00adccbdb2779ea6dff772a723c54d36d22f702b25e9"),
    (2, "ff68e7881200391d039fba816cd8d1d19edd2e4434eed6661875e0b16d43fa29"),
])
def test_gen_tests_sxm_pinned(models_dir, tmp_path, capsys, k, digest):
    out_file = tmp_path / "suite.json"
    assert main(["gen-tests", "sxm", str(models_dir / "counter_testable.json"),
                 "--extra-states", str(k), "-o", str(out_file)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def _multi_target_machine(models_dir, tmp_path):
    """counter_testable with three inc-targets and two reset-targets from
    q0: its associated automaton has three conflicting arcs."""
    doc = json.loads((models_dir / "counter_testable.json").read_text(encoding="utf-8"))
    doc["name"] = "two_target"
    doc["states"] = ["q0", "q1", "q2"]
    doc["next_state"] = [
        {"from": "q0", "fn": "inc", "to": ["q0", "q1", "q2"]},
        {"from": "q0", "fn": "reset", "to": ["q1", "q2"]},
    ]
    model = tmp_path / "two_target.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    return str(model)


@pytest.mark.parametrize("model, code, digest", [
    ("counter.json", 1, "c7089eca4062944959395d3d74577b91aa0d491ff4cb85d7daacc420f33eb423"),
    ("counter_testable.json", 0,
     "911cf95e130ec3c624f897a9d02b9f5e3db914f4696e717cdc68eb2cba499084"),
    ("ps2.json", 0, "362cdf32f6c05920f9fc24f1417f42384f142b77dbb803837c847fa58e0e8c03"),
    ("ps2_control.json", 0, "72afe17ac65c08baf893087087134793912672fdb5fe929d01f3948e1329ba57"),
    ("ps2_heterotic.json", 0,
     "b2dd9520c3f4b68f08acec02c0bb7fdb6086f96b0c46a6bde8479a4fd31d7dd7"),
    ("MULTI_TARGET", 1, "fbfc8dfe5442fbd6028530b44855b1d60452252bc50ea2ae1eb955cf5cf5cae2"),
])
def test_validate_dft_pinned(models_dir, tmp_path, capsys, model, code, digest):
    path = (_multi_target_machine(models_dir, tmp_path) if model == "MULTI_TARGET"
            else str(models_dir / model))
    out_file = tmp_path / "report.json"
    assert main(["validate", "--dft", path, "-o", str(out_file)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


# sha256 of the ``-o`` artifact and of the text stdout of the heterotic
# driver, in process and through the fixed-reply oracle of
# ``test_simulate_heterotic_with_oracle_cmd``, and of the P-system test set,
# mutants and score, measured while the driver still stepped the Base
# itself and each configuration reader had its own key rule.
@pytest.mark.parametrize("rounds, artifact, stdout", [
    (1, "19a4e18c64b07c7f20a54164b74ff26b1dd88bce4fc741b98b471d5f796cecab",
     "65d1e223cf1b5783940dc4dd126ddc5f3937a9b24a7115bd14782b60d85d05b1"),
    (2, "1b703ea18500c123471a4baf5d2b31546b873f855eb6b2d2d405bddc8af8bcd9",
     "172d85f732169c7e3b9dc2f0fc9e6a29db14957be5e788d2aa6d09f408a635b5"),
    (3, "e97f1afeeee4d70edfb0790c34ce0a42338ead9818fe4e997f6f06615da559ad",
     "172d85f732169c7e3b9dc2f0fc9e6a29db14957be5e788d2aa6d09f408a635b5"),
])
@pytest.mark.parametrize("oracle", [False, True], ids=["in-process", "oracle-cmd"])
def test_heterotic_driver_pinned(models_dir, tmp_path, capsys, rounds, artifact, stdout, oracle):
    flags = []
    if oracle:
        script = tmp_path / "oracle.py"
        script.write_text(
            "import json,sys\n"
            "json.loads(sys.stdin.readline())\n"
            "print(json.dumps({'final': {'1': 'bdf', '2': 'b'}, 'steps': 2}))\n"
        )
        flags = ["--oracle-cmd", f"{sys.executable} {script}"]
    out_file = tmp_path / "trace.json"
    assert main(["simulate", str(models_dir / "ps2_heterotic.json"), "--rounds", str(rounds),
                 *flags, "-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == artifact
    assert hashlib.sha256(out.encode()).hexdigest() == stdout


def test_psystem_test_set_mutants_and_score_pinned(models_dir, tmp_path, capsys):
    def digests(name, args):
        out_file = tmp_path / name
        assert main(args + ["-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        return (hashlib.sha256(out_file.read_bytes()).hexdigest(),
                hashlib.sha256(out.encode()).hexdigest())

    ps2 = str(models_dir / "ps2.json")
    assert digests("testset.json", ["gen-tests", "psystem", ps2]) == (
        "56dc952fc9eead0238f0e8dc4099ce5389d2a668d4b38a6766b8ee2036c746d2",
        "7ec9af49623d87261b304437eea13af461a936ee8fbdfe7594d125be934b2b11")
    assert digests("mutants.json", ["mutate", ps2, "--seed", "3"]) == (
        "c9d2a96cd07996f44040daadf27b86717b9bd516d105770524887ff6269a2e4c",
        "1df6bf1f80213a6ead2f84885ebf1a8557f759b26048cdf4c16c257838b48def")
    assert digests("score.json", ["score", ps2, "--mutants", str(tmp_path / "mutants.json"),
                                  "--test-set", str(tmp_path / "testset.json")]) == (
        "49eff2d87b3a3d5b041b98684d5b13755b8c902a20afe3d5281b4d03aa9a8380",
        "4baaacca5abce47c6e5f5c21bc02deae3b4ada61edfe796ee2976f27fa361d7d")
