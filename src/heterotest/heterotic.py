"""Two-layer heterotic systems: a wrapped P system as the Base component and
an ordinary machine as Control, exchanging configurations through ports.

The Base wrapper holds a whole P-system configuration in memory: one
ordinary function advances it by one maximally parallel step (seeded, so
the machine stays deterministic), a second puts the held configuration on
the out-port, a communicating function ships it to Control, and a final
ordinary function accepts Control's re-initialisation from the in-port.
The out-port function accepts any configuration, halted or not; only the
round driver of :func:`run_heterotic` emits halted configurations alone,
so a generated suite also ships unhalted ones, outside the Base's declared
out-port domain.  Restricting it would change the pinned integration
suites.
:func:`build_heterotic_system` alone assembles and checks the pair.

Every Base phase of the round driver runs through one oracle contract: an
oracle is any function from an initial configuration to the halting
configuration and step count.  The in-process run is the built-in seeded
simulator behind that contract, and an external executor can stand in for
it; identical answers record identical traces.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Sequence, Tuple

from .csxms import (
    COMMUNICATING,
    Csxm,
    CsxmFunction,
    CsxmResult,
    CsxmSystem,
    ORDINARY,
    generate_csxms_test_suite,
    initial_system_core,
    system_core_successors,
)
from .errors import (
    DeadlockError,
    DepthCapExceeded,
    InvalidModel,
    OracleInvalidResult,
    OracleTimeout,
    PortIncompatibility,
    SchemaError,
)
from .model_io import config_from_json, config_to_json
from .psystem import (
    PConfiguration,
    PSystem,
    config_canonical,
    config_defect,
    is_config_for,
    is_halting,
    seeded_chooser,
    seeded_trace,
)
from .records import record, replace
from .sxm import MemoryDomain, TestSuite
from .values import BOTTOM_M, NULL, render, sort_key

BASE_INPUTS = ("emit", "load", "step")
ADVANCE, EMIT, LOAD, SEND = "advance", "emit_result", "load_config", "send_result"
RUNNING, SENDING, WAITING = "running", "sending", "waiting"


def simulate_to_halt(
    ps: PSystem, start: PConfiguration, seed: int, depth_cap: int
) -> Tuple[PConfiguration, int, Tuple[PConfiguration, ...]]:
    """Seeded single-branch run to a halting configuration.

    Returns (final, steps, visited configurations).  Raises
    :class:`DepthCapExceeded` when no halt is reached within the cap.
    """
    trace = seeded_trace(ps, start, seeded_chooser(seed), depth_cap)
    if not trace.halted:
        raise DepthCapExceeded(
            f"{ps.name} did not halt within {depth_cap} steps from "
            f"{'|'.join(config_canonical(start))}"
        )
    return trace.final, len(trace.steps), trace.configurations()


class AdvanceFunction(CsxmFunction):
    """One seeded maximally parallel step; stutters at halting configurations
    so the function stays total over the sampled memory.  Each result is
    kept, as the seeded step is a pure function of the configuration."""

    kind = ORDINARY

    def __init__(self, ps: PSystem, seed: int):
        self.name = ADVANCE
        self.ps = ps
        self.choose = seeded_chooser(seed)
        self.results: Dict[PConfiguration, CsxmResult] = {}

    def evaluate(self, input_symbol, in_port, memory):
        if input_symbol != "step" or in_port != BOTTOM_M:
            return None
        result = self.results.get(memory)
        if result is None:
            if not is_config_for(self.ps, memory):
                return None
            successor = seeded_trace(self.ps, tuple(memory), self.choose, 1).final
            result = self.results[memory] = CsxmResult(memory=successor, output="ran")
        return result


class EmitFunction(CsxmFunction):
    """Move the current configuration to the out-port."""

    kind = ORDINARY

    def __init__(self, ps: PSystem):
        self.name = EMIT
        self.ps = ps

    def evaluate(self, input_symbol, in_port, memory):
        if input_symbol != "emit" or in_port != BOTTOM_M:
            return None
        if not is_config_for(self.ps, memory):
            return None
        return CsxmResult(memory=memory, output="put", set_out_port=True, out_port=memory)


class LoadFunction(CsxmFunction):
    """Adopt the configuration found on the in-port as the new memory."""

    kind = ORDINARY

    def __init__(self, ps: PSystem):
        self.name = LOAD
        self.ps = ps

    def evaluate(self, input_symbol, in_port, memory):
        if input_symbol != "load" or in_port == BOTTOM_M:
            return None
        if not is_config_for(self.ps, in_port):
            return None
        return CsxmResult(memory=in_port, output="got")


class SendFunction(CsxmFunction):
    """Ship the out-port value to the partner component."""

    kind = COMMUNICATING

    def __init__(self, target: int):
        self.name = SEND
        self.target = target

    def evaluate(self, input_symbol, in_port, memory):
        if input_symbol != NULL or in_port != BOTTOM_M:
            return None
        return CsxmResult(memory=memory, output=NULL, send_to=self.target)


def wrap_psystem_as_csxm(
    ps: PSystem,
    depth_cap: int,
    seed: int = 0,
    initial_configs: Sequence[PConfiguration] = (),
) -> Csxm:
    """Wrap a P system as a communicating component.

    The memory sample holds every configuration on the seeded trajectory
    from the P system's own initial configuration and from each declared
    re-initialisation in ``initial_configs``; each trajectory must halt
    within ``depth_cap`` steps.
    """
    for cfg in initial_configs:
        if not is_config_for(ps, cfg):
            raise PortIncompatibility(
                f"re-initialisation {render(cfg)} is not a configuration of {ps.name}"
            )
    sample, finals = set(), set()
    for start in [tuple(ps.initial)] + list(initial_configs):
        final, _, visited = simulate_to_halt(ps, start, seed, depth_cap)
        sample.update(visited)
        finals.add(final)

    functions: Dict[str, CsxmFunction] = {
        ADVANCE: AdvanceFunction(ps, seed),
        EMIT: EmitFunction(ps),
        LOAD: LoadFunction(ps),
        SEND: SendFunction(2),
    }
    states = frozenset({RUNNING, SENDING, WAITING})
    next_state: Dict[Tuple[str, str], Tuple[str, ...]] = {
        (RUNNING, ADVANCE): (RUNNING,),
        (RUNNING, EMIT): (SENDING,),
        (SENDING, SEND): (WAITING,),
        (WAITING, LOAD): (RUNNING,),
    }
    return Csxm(
        name="base",
        inputs=frozenset(BASE_INPUTS),
        outputs=frozenset({"ran", "put", "got"}),
        states=states,
        initial_states=frozenset({RUNNING}),
        terminal_states=states,
        memory_domain=MemoryDomain(kind="open", sample=tuple(sorted(sample, key=sort_key))),
        initial_memory=tuple(ps.initial),
        functions=functions,
        next_state=next_state,
        in_port_domain=tuple(sorted({tuple(c) for c in initial_configs}, key=sort_key)),
        out_port_domain=tuple(sorted(finals, key=sort_key)),
        ordinary_states=states - {SENDING},
        communicating_states=frozenset({SENDING}),
        ordinary_functions=frozenset({ADVANCE, EMIT, LOAD}),
        communicating_functions=frozenset({SEND}),
    )


@record
class HeteroticSystem:
    base: Csxm
    control: Csxm
    psystem: PSystem
    seed: int
    depth_cap: int
    as_system: CsxmSystem


def build_heterotic_system(
    ps: PSystem, control: Csxm, seed: int, depth_cap: int, name: str
) -> HeteroticSystem:
    """Validate ``ps`` and ``control``, wrap ``ps`` as the Base with ``seed``
    and ``depth_cap``, check that Control reads whatever the Base emits, and
    validate the Base and the pair's names and send targets, in that order."""
    # looked up when called, as ``cli`` looks up the validators it runs
    from .csxms import system_violations, validate_csxm
    from .psystem import validate_psystem

    violations = validate_psystem(ps) + validate_csxm(control)
    if violations:
        raise InvalidModel("heterotic", violations)
    base = wrap_psystem_as_csxm(ps, depth_cap, seed=seed,
                                initial_configs=control.out_port_domain)
    control_in = set(map(sort_key, control.in_port_domain))
    if any(sort_key(v) not in control_in for v in base.out_port_domain):
        raise PortIncompatibility(
            f"base emits a configuration outside {control.name}'s in-port domain"
        )
    system = CsxmSystem(name=name, components=(base, control))
    violations = validate_csxm(base) + system_violations(system)
    if violations:
        raise InvalidModel("heterotic", violations)
    return HeteroticSystem(base, control, ps, seed, depth_cap, system)


# --- the round driver --------------------------------------------------------


@record
class Exchange:
    round: int
    direction: str  # "base_to_control" | "control_to_base"
    configuration: PConfiguration
    steps: Optional[int] = None  # base-phase step count, base_to_control only


@record
class HeteroticTrace:
    system: str
    seed: int
    rounds_requested: int
    exchanges: Tuple[Exchange, ...]

    @property
    def rounds_completed(self) -> int:
        return sum(1 for e in self.exchanges if e.direction == "base_to_control")


# The Base-phase contract: initial configuration in, final configuration
# (plus optional step count) out.
OracleBinding = Callable[[PConfiguration], Tuple[PConfiguration, Optional[int]]]


def simulator_oracle(ps: PSystem, seed: int, depth_cap: int) -> OracleBinding:
    """The built-in simulator packaged behind the oracle contract."""

    def run(initial: PConfiguration):
        final, steps, _ = simulate_to_halt(ps, initial, seed, depth_cap)
        return final, steps

    return run


def subprocess_oracle(
    command: Sequence[str], ps: PSystem, timeout_ms: int = 10_000, retries: int = 0
) -> OracleBinding:
    """Child-process oracle: one JSON request line on stdin, one JSON
    response line on stdout, one process invocation per request."""
    import subprocess

    def run(initial: PConfiguration):
        request = json.dumps({"initial": config_to_json(initial)}, sort_keys=True)
        attempts = retries + 1
        last_error = None
        for _ in range(attempts):
            try:
                proc = subprocess.run(
                    list(command),
                    input=request + "\n",
                    capture_output=True,
                    text=True,
                    timeout=timeout_ms / 1000.0,
                )
            except subprocess.TimeoutExpired as exc:
                last_error = exc
                continue
            if proc.returncode != 0:
                stderr = proc.stderr.strip().splitlines()
                detail = f": {stderr[-1]}" if stderr else ""
                raise OracleInvalidResult(f"oracle exited with status {proc.returncode}{detail}")
            try:
                reply = json.loads(proc.stdout.strip().splitlines()[-1])
                final = config_from_json(reply["final"], ps.n_compartments, "final")
                steps = reply.get("steps")
            except (KeyError, IndexError, TypeError, ValueError, RecursionError,
                    SchemaError) as exc:
                raise OracleInvalidResult(f"malformed oracle reply: {exc}") from exc
            if steps is not None and (not isinstance(steps, int) or isinstance(steps, bool)):
                raise OracleInvalidResult(f"oracle reply steps must be an integer, got {steps!r}")
            return final, steps
        raise OracleTimeout(f"oracle timed out after {attempts} attempt(s)") from last_error

    return run


def _invoke_oracle(h: HeteroticSystem, oracle: OracleBinding, cfg: PConfiguration):
    final, steps = oracle(cfg)
    final = tuple(final)
    if not is_config_for(h.psystem, final):
        raise OracleInvalidResult(
            "oracle returned a configuration outside the declared alphabet/structure"
        )
    if not is_halting(h.psystem, final):
        raise OracleInvalidResult("oracle returned a non-halting configuration")
    return final, steps


def run_heterotic(
    h: HeteroticSystem, rounds: int, oracle: Optional[OracleBinding] = None
) -> HeteroticTrace:
    """Drive the system for up to ``rounds`` Base phases.

    Moves are chosen communicating-first, then ordinary in (component,
    function, symbol) order, skipping stutters; that realises the intended
    alternation (Base runs to halt, emits, sends; Control inspects and
    replies) without hard-coding either machine.  Each Base phase is one
    call of ``oracle``, by default the built-in simulator: its final
    configuration is injected in place of the Base's stepping, since while
    the Base can step no other move is chosen.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if oracle is None:
        oracle = simulator_oracle(h.psystem, h.seed, h.depth_cap)
    sys = h.as_system
    core = initial_system_core(sys)
    exchanges: list[Exchange] = []
    steps_this_phase = 0
    b2c = 0
    micro_cap = (h.depth_cap + 8) * (rounds + 1) * (len(sys.components) + 2) * 4

    def edge_key(edge):
        label, successor = edge
        return label, tuple(
            (sort_key(m), q, sort_key(p_in), sort_key(p_out))
            for (m, q, p_in, p_out) in successor
        )

    for _ in range(micro_cap):
        edges = sorted(system_core_successors(sys, core), key=edge_key)
        chosen = None
        for label, succ in edges:
            i, fname, _ = label
            comp = sys.components[i - 1]
            if fname in comp.communicating_functions:
                chosen = (label, succ)
                break
        if chosen is None:
            for label, succ in edges:
                if succ != core:
                    chosen = (label, succ)
                    break
        if chosen is None:
            break

        (i, fname, _), succ = chosen
        comp = sys.components[i - 1]

        if fname in comp.communicating_functions:
            value = core[i - 1][3]
            if i == 1:
                b2c += 1
                exchanges.append(Exchange(b2c, "base_to_control", tuple(value), steps_this_phase))
                steps_this_phase = 0
            else:
                if b2c >= rounds:
                    break
                defect = config_defect(h.psystem, value)
                if defect:
                    raise PortIncompatibility(f"{comp.name}'s reply{defect}")
                exchanges.append(Exchange(b2c, "control_to_base", tuple(value), None))
            core = succ
            continue

        if i == 1 and fname == ADVANCE:
            final, steps_this_phase = _invoke_oracle(h, oracle, tuple(core[0][0]))
            core = ((final,) + core[0][1:],) + core[1:]
            continue
        core = succ
    else:
        raise DeadlockError("driver exceeded its micro-step budget (livelock?)")

    if not exchanges:
        raise DeadlockError("no configuration was ever exchanged")
    for idx, ex in enumerate(exchanges):
        expected = "base_to_control" if idx % 2 == 0 else "control_to_base"
        assert ex.direction == expected, "exchanges must alternate starting base->control"
    return HeteroticTrace(
        system=sys.name,
        seed=h.seed,
        rounds_requested=rounds,
        exchanges=tuple(exchanges),
    )


def generate_integration_tests(h: HeteroticSystem, k: int) -> TestSuite:
    """W-method integration suite for the Base/Control pair."""
    suite = generate_csxms_test_suite(h.as_system, k)
    roles = {"base": h.base.name, "control": h.control.name}
    return replace(suite, metadata={**suite.metadata, "roles": roles, "seed": h.seed,
                                    "depth_cap": h.depth_cap})
