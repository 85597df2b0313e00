"""The exploration caps, the machine branch bound, the memory-domain and
suite case caps and the communication symbol are module constants, read
where they are checked: no entry point takes one as a parameter, and a
test sets one with ``monkeypatch``."""

import inspect

from heterotest import csxms, errors, mutation, psystem, sxm, testgen

ENTRY_POINTS = (
    psystem.maximal_rule_multisets,
    psystem.step_choices,
    psystem.seeded_trace,
    psystem.explore,
    psystem.psystem_run,
    psystem.rule_coverage,
    psystem.generate_coverage_test_set,
    sxm._replay_frontiers,
    sxm.replay_outputs,
    sxm.replay_reached,
    sxm.sxm_run,
    sxm.run_outputs,
    mutation.score_sxm_suite,
    mutation._SpecRun,
    csxms.extend_for_testing,
    csxms.ExtendedCommFunction,
    testgen.build_w_suite,
    testgen.generate_sxm_test_suite,
    csxms.generate_csxms_test_suite,
)
CAP_NAMES = {"cap", "assignment_cap", "branch_cap", "branch_bound", "comm_symbol"}


def test_the_constants():
    assert (psystem.ASSIGNMENT_CAP, psystem.BRANCH_CAP) == (10_000, 10_000)
    assert sxm.BRANCH_BOUND == 256
    assert sxm.DOMAIN_CAP == 200_000
    assert testgen.CASE_CAP == 100_000
    assert csxms.COMM_SYMBOL == "a"
    assert not hasattr(errors, "DEFAULT_BRANCH_BOUND")


def test_no_entry_point_takes_a_cap_or_the_communication_symbol():
    for fn in ENTRY_POINTS:
        assert not CAP_NAMES & set(inspect.signature(fn).parameters), fn.__qualname__
    assert "comm_symbol" not in csxms.CsxmSystem._fields
    # one switch between the capped walk and the uncapped one
    assert list(inspect.signature(psystem.explore).parameters) == ["ps", "depth", "capped"]
