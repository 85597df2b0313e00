"""Command-line entry point.

One binary, subcommand style; every artifact is a JSON file so runs are
scriptable and diffable.  Exit codes: 0 success, 1 validation or
design-for-test failure, 2 generation failure (nondeterministic product,
branch explosion, ...) or usage error, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Iterable, Optional

from . import model_io
from .errors import (
    AlphabetCollision,
    DftFailure,
    HeterotestError,
    InvalidModel,
    SchemaError,
    UsageError,
    Violation,
)

# Each handler imports the modules it runs, so a command pays the start-up
# cost of its own kind of model only.


def _env_seed() -> int:
    text = os.environ.get("HETEROTEST_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"HETEROTEST_SEED must be an integer, got {text!r}") from None


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, so an
    out-of-range flag is a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _command(text: str) -> list[str]:
    """An argparse type: a non-blank command line, split on whitespace."""
    words = text.split()
    if not words:
        raise argparse.ArgumentTypeError("the command is empty")
    return words


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    rendered = model_io.canonical_json(payload)
    _write(args, lambda: (rendered,), text_lines)


def _write(args, pieces: Callable[[], Iterable[str]], text_lines: Iterable[str]) -> None:
    """Write the artifact whose text is the join of ``pieces()`` to ``-o``
    in full, and then to stdout, or in text format ``text_lines``."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for piece in pieces():
                handle.write(piece)
    if args.format == "json":
        for piece in pieces():
            sys.stdout.write(piece)
    else:
        for line in text_lines:
            print(line)


def _by_identity(make: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``make`` made once per argument object.  The memo holds each
    argument, so no other object takes its id while the memo lives."""
    memo: dict = {}

    def made(obj):
        hit = memo.get(id(obj))
        if hit is None:
            hit = memo[id(obj)] = (obj, make(obj))
        return hit[1]

    return made


_KINDS = ("sxm", "csxm", "system", "psystem", "heterotic")


def _violations(kind: str, model) -> list:
    """The structural checks ``validate`` runs on each kind of model file."""
    if kind == "sxm":
        from .sxm import validate_sxm

        return validate_sxm(model)
    if kind == "psystem":
        from .psystem import validate_psystem

        return validate_psystem(model)
    if kind == "heterotic":
        return []  # build_heterotic_system checked it while loading
    from .csxms import validate_csxm, validate_system

    if kind == "csxm":
        return validate_csxm(model)
    return validate_system(model)


def _require_valid(kind: str, model, label: str) -> None:
    violations = _violations(kind, model)
    if violations:
        raise InvalidModel(label, violations)


def _load(path: str, kinds=_KINDS, wrong_kind: str = "", gate: bool = True):
    """Load a model file and check that it is one of ``kinds``.  With
    ``gate``, stop before anything is generated from a model that
    ``validate`` rejects."""
    kind, model = model_io.load_model_file(path)
    if kind not in kinds:
        raise SchemaError(wrong_kind)
    if gate:
        _require_valid(kind, model, kind)
    return kind, model


def _cmd_validate(args) -> int:
    def component_reports(system, violations):
        from .csxms import check_csxm_dft, extend_for_testing

        # The design-for-test conditions apply to the extended components:
        # unextended communicating functions consume no input symbol and
        # would trivially fail completeness.
        try:
            extended = extend_for_testing(system)
        except AlphabetCollision as exc:
            violations.append(Violation(system.name, str(exc)))
            return {}
        return {comp.name: check_csxm_dft(comp) for comp in extended.components}

    try:
        kind, model = _load(args.model, gate=False)
    except InvalidModel as exc:
        # ungated, only a heterotic file with violations stops while
        # loading; they make its report like any other kind's
        kind, model, violations = "heterotic", None, list(exc.violations)
    else:
        violations = _violations(kind, model)
    reports = {}
    # the design-for-test conditions presuppose a structurally valid model
    if args.dft and not violations:
        if kind == "sxm":
            from .dft import check_dft

            reports[model.name] = check_dft(model)
        elif kind == "csxm":
            from .csxms import CsxmSystem

            reports = component_reports(CsxmSystem(model.name, (model,)), violations)
        elif kind != "psystem":
            reports = component_reports(model if kind == "system" else model.as_system, violations)

    payload = {
        "schema": 1,
        "kind": kind,
        "violations": [{"where": v.where, "message": v.message} for v in violations],
    }
    lines = [f"{kind}: {'valid' if not violations else f'{len(violations)} violation(s)'}"]
    lines += [f"  {v}" for v in violations]
    dft_failed = False
    if reports:
        payload["dft"] = {}
        for name, report in sorted(reports.items()):
            payload["dft"][name] = model_io.dft_report_to_dict(report)
            lines.append(f"dft [{name}]:")
            lines += [f"  {line}" for line in report.summary_lines()]
            dft_failed = dft_failed or not report.all_pass()
    _emit(args, payload, lines)
    return 1 if (violations or dft_failed) else 0


# The flags a command rejects on a kind of model file: those of the other kind.
_FOREIGN_FLAGS = {
    "simulate": {
        "psystem": ("heterotic systems", ("rounds", "oracle_cmd", "oracle_timeout_ms",
                                          "oracle_retries")),
        "heterotic": ("P systems", ("depth", "seed", "all_branches")),
    },
    "score": {
        "sxm": ("P systems", ("test_set", "depth")),
        "psystem": ("machine specs", ("suite",)),
    },
}


def _reject_foreign_flags(args, kind: str) -> None:
    owner, flags = _FOREIGN_FLAGS[args.command][kind]
    for flag in flags:
        if getattr(args, flag) is not None:
            raise UsageError(f"{args.command} --{flag.replace('_', '-')} applies to {owner} only")


def _cmd_simulate(args) -> int:
    kind, model = _load(args.model, ("psystem", "heterotic"),
                        "simulate expects a P-system or heterotic model file")
    _reject_foreign_flags(args, kind)
    if kind == "heterotic":
        return _simulate_heterotic(args, model)
    if args.depth is None:
        raise UsageError("simulate on a P system needs --depth")
    from .psystem import psystem_run, render_ptrace, render_step

    mode = "seeded" if args.seed is not None else "all"
    traces = psystem_run(model, args.depth, mode=mode, seed=args.seed)
    head = {"schema": 1, "system": model.name, "depth": args.depth, "mode": mode, "seed": args.seed}
    # Computations share the steps of the configuration DAG: each step is
    # laid out once, and each computation's text is made as it is written.
    step_json = _by_identity(lambda step: model_io.LaidOut(model_io.step_to_dict(step)))
    step_text = _by_identity(render_step)
    _write(args,
           lambda: model_io.canonical_pieces(
               head, "traces", (model_io.ptrace_to_dict(t, step_json) for t in traces)),
           (render_ptrace(t, step_text) for t in traces))
    return 0


def _simulate_heterotic(args, system) -> int:
    from .heterotic import run_heterotic, subprocess_oracle
    from .psystem import render_config

    # an oracle flag left out takes subprocess_oracle's default
    given = {flag: getattr(args, "oracle_" + flag) for flag in ("timeout_ms", "retries")
             if getattr(args, "oracle_" + flag) is not None}
    oracle = None
    if args.oracle_cmd is not None:
        oracle = subprocess_oracle(args.oracle_cmd, system.psystem, **given)
    elif given:
        flag = next(iter(given)).replace("_", "-")
        raise UsageError(f"simulate --oracle-{flag} needs --oracle-cmd")
    trace = run_heterotic(system, rounds=args.rounds or 1, oracle=oracle)
    payload = model_io.htrace_to_dict(trace)
    lines = []
    for e in trace.exchanges:
        arrow = "base -> control" if e.direction == "base_to_control" else "control -> base"
        steps = f" after {e.steps} step(s)" if e.steps is not None else ""
        lines.append(f"round {e.round}: {arrow}: {render_config(e.configuration)}{steps}")
    _emit(args, payload, lines)
    return 0


_GEN_TESTS_KINDS = {
    "sxm": "gen-tests sxm expects a machine model file",
    "psystem": "gen-tests psystem expects a P-system model file",
    "heterotic": "gen-tests heterotic expects a heterotic system file",
}


def _cmd_gen_tests(args) -> int:
    _, model = _load(args.model, (args.target,), _GEN_TESTS_KINDS[args.target])
    if args.target == "psystem":
        from .psystem import generate_coverage_test_set, render_config

        members, report = generate_coverage_test_set(model, args.depth)
        payload = model_io.testset_to_dict(members, report, args.depth)
        lines = [f"{len(members)} member(s), depth {args.depth}"]
        lines += [f"member: {render_config(cfg)}" for cfg in members]
        for entry in report.entries:
            status = "covered" if entry.covered else "UNCOVERED"
            lines.append(f"rule {entry.rule}: {status}")
        _emit(args, payload, lines)
        return 0 if report.all_covered() else 2
    if args.target == "sxm":
        from .testgen import generate_sxm_test_suite as generate
    else:
        from .heterotic import generate_integration_tests as generate
    suite = generate(model, args.extra_states)
    lines = [f"{len(suite.cases)} cases (k={args.extra_states})"]
    if args.target == "sxm":
        lines += [" ".join(case.input) or "<empty>" for case in suite.cases]
    _emit(args, model_io.suite_to_dict(suite), lines)
    return 0


def _cmd_product(args) -> int:
    _, model = _load(args.model, ("system",), "product expects a system model file")
    from .csxms import build_product_sxm

    product = build_product_sxm(model)
    payload = model_io.product_summary_to_dict(product)
    lines = [
        f"product {product.name}",
        f"inputs: {len(product.inputs)}",
        f"outputs: {len(product.outputs)}",
        f"states: {len(product.states)}",
        f"functions: {len(product.functions)}",
        f"arcs: {sum(len(t) for t in product.next_state.values())}",
        f"memory values: {payload['memory_size']}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_coverage(args) -> int:
    _, model = _load(args.model, ("psystem",), "coverage expects a P-system model file")
    from .psystem import rule_coverage

    report = rule_coverage(model, args.depth)
    payload = model_io.coverage_report_to_dict(report)
    lines = []
    for entry in report.entries:
        status = "covered" if entry.covered else "UNCOVERED"
        lines.append(f"rule {entry.rule} (compartment {entry.compartment}): {status}")
    _emit(args, payload, lines)
    return 0


def _cmd_mutate(args) -> int:
    kind, model = _load(args.model, ("sxm", "psystem"),
                        "mutate expects a machine or P-system model file")
    from . import mutation

    operators = args.ops.split(",") if args.ops else None
    seed = args.seed if args.seed is not None else _env_seed()
    batch = mutation.mutate_model(model, operators, seed=seed, count=args.count)
    payload = mutation.mutants_to_dict(kind, batch)
    lines = [f"{len(batch.mutants)} mutant(s), {batch.invalid} invalid, "
             f"{batch.duplicates} duplicate(s)"]
    lines += [f"  {m.mutant_id}" for m in batch.mutants]
    _emit(args, payload, lines)
    return 0


def _cmd_score(args) -> int:
    from . import mutation

    kind, model = _load(args.model)
    mutants_kind, batch = mutation.mutants_from_dict(model_io.load_json(args.mutants))
    if mutants_kind != kind:
        raise SchemaError(f"mutants are for a {mutants_kind} model, spec is {kind}")
    _reject_foreign_flags(args, kind)
    for mutant in batch:
        _require_valid(kind, mutant.model, f"mutant {mutant.mutant_id}")
    if kind == "sxm":
        if not args.suite:
            raise UsageError("score on a machine spec needs --suite")
        suite = model_io.suite_from_dict(model_io.load_json(args.suite), model)
        report = mutation.score_sxm_suite(model, batch, suite)
    else:
        if not args.test_set:
            raise UsageError("score on a P-system spec needs --test-set")
        testset_doc = model_io.load_json(args.test_set)
        members = model_io.testset_members_from_dict(testset_doc, model)
        depth = args.depth if args.depth is not None else testset_doc.get("depth", 3)
        report = mutation.score_psystem_testset(model, batch, members, depth)
    payload = mutation.score_to_dict(report)
    lines = [
        f"total {report.total}, killed {report.killed}, survived {report.survived}, "
        f"invalid {report.invalid}, identical {report.identical}",
    ]
    lines += [
        f"  {v.mutant_id}: {v.verdict}" + (f" (witness: {v.witness})" if v.witness else "")
        for v in report.per_mutant
    ]
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heterotest",
        description="Model and test stream X-machines, communicating systems "
                    "and cell-like P systems.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # accept --format after the subcommand as well; SUPPRESS keeps the
    # subparser from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a model file; --dft adds design-for-test checks")
    p.add_argument("model")
    p.add_argument("--dft", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("simulate", parents=[common], help="run a P system, or drive a heterotic system")
    p.add_argument("model")
    p.add_argument("--depth", type=_int_at_least(0), default=None)
    group = p.add_mutually_exclusive_group()
    # None marks a flag as absent, so a flag of the other kind is an error
    group.add_argument("--all-branches", action="store_true", default=None)
    group.add_argument("--seed", type=int, default=None)
    p.add_argument("--rounds", type=_int_at_least(1), default=None,
                   help="heterotic systems only (default 1)")
    p.add_argument("--oracle-cmd", type=_command, default=None,
                   help="external oracle command (heterotic systems only)")
    p.add_argument("--oracle-timeout-ms", type=_int_at_least(1), default=None,
                   help="heterotic systems only (default 10000)")
    p.add_argument("--oracle-retries", type=_int_at_least(0), default=None,
                   help="heterotic systems only (default 0)")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("gen-tests", parents=[common], help="generate a test suite or coverage test set")
    p.add_argument("target", choices=("sxm", "psystem", "heterotic"))
    p.add_argument("model")
    p.add_argument("--extra-states", type=_int_at_least(0), default=0)
    p.add_argument("--depth", type=_int_at_least(1), default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_gen_tests)

    p = sub.add_parser("product", parents=[common], help="fold a communicating system into one machine")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("coverage", parents=[common], help="rule coverage of the bounded branch exploration")
    p.add_argument("model")
    p.add_argument("--depth", type=_int_at_least(0), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("mutate", parents=[common], help="seed faults into a model")
    p.add_argument("model")
    p.add_argument("--ops", default=None, help="comma-separated operator names")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=_int_at_least(1), default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_mutate)

    p = sub.add_parser("score", parents=[common], help="mutation-kill scoring of a suite or test set")
    p.add_argument("model")
    p.add_argument("--mutants", required=True)
    p.add_argument("--suite")
    p.add_argument("--test-set")
    p.add_argument("--depth", type=_int_at_least(0), default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_score)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InvalidModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    except DftFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in exc.report.summary_lines():
            print(f"  {line}", file=sys.stderr)
        return 1
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HeterotestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
