"""Seeded input generators for the heterotest benchmark.

Standard library only: the generators import neither ``heterotest`` nor the
test helpers, so the program under test sees nothing but the JSON files
written here.  The same seed always gives the same files.

Run on its own to look at the inputs of one workload:

    python3 perfbench/gen.py sxm_mutation --seed 3 --out /tmp/inputs

Every size parameter is chosen so that one pass of a workload takes a few
seconds on a 2-core machine while the amount of work stays close to the
same from one seed to the next; the comment beside each constant says why
it has its value.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
from collections import Counter

# --- stream X-machines (criterion-5 shape) -----------------------------------

# Four machines per seed, enough for mutation scoring to dominate the pass
# (as it does in criterion 5) while a pass stays near five seconds.
MACHINES = 4
# Six states and four functions: at k = 1 a machine then has a suite of
# about 400 cases and about 100 mutants, so scoring replays tens of
# thousands of input sequences per pass.
MACHINE_STATES = 6
MACHINE_FUNCTIONS = 4
# Even modulus, so memory parity survives every (?m + d) % R update and
# each seeded memory fault stays observable through the parity-split cases.
MACHINE_MODULUS = 8
MACHINE_OUTPUTS = 3
# Arcs beyond the spanning tree; with the tree, 13 of the 24 possible.
MACHINE_EXTRA_ARCS = 8
# The automaton shapes (arcs) are drawn once per machine index, whatever
# the seed; the seed draws every case table (outputs and memory updates).
# The W-method suite and the mutant set follow from the shape, so every
# seed replays the same number of cases against the same number of
# mutants; what still varies is where each mutant is first killed, about
# 6% of the scoring work between seeds, against 25% when the shapes vary
# too.
MACHINE_SHAPE_STREAM = "machine-shape"


def _parity_cases(rng: random.Random, symbol: str, outputs: list) -> list:
    o_even, o_odd = rng.sample(outputs, 2)
    return [
        {"mem_pattern": "?m where ?m % 2 == 0", "input": symbol, "output": o_even,
         "mem_next": f"(?m + {rng.randrange(MACHINE_MODULUS)}) % {MACHINE_MODULUS}"},
        {"mem_pattern": "?m where ?m % 2 == 1", "input": symbol, "output": o_odd,
         "mem_next": f"(?m + {rng.randrange(MACHINE_MODULUS)}) % {MACHINE_MODULUS}"},
    ]


def _is_minimal(states: list, arcs: dict, functions: list) -> bool:
    """Moore refinement over defined-ness: every state is terminal, so only
    the set of functions a state accepts can tell two states apart."""
    block = {q: 0 for q in states}
    while True:
        signature = {
            q: (block[q],) + tuple(block.get(arcs.get((q, f))) for f in functions)
            for q in states
        }
        numbering = {sig: i for i, sig in enumerate(sorted(set(signature.values()), key=repr))}
        refined = {q: numbering[signature[q]] for q in states}
        if len(set(refined.values())) == len(set(block.values())):
            return len(set(refined.values())) == len(states)
        block = refined


def machine(seed: int, index: int) -> dict:
    """A machine that satisfies the design-for-test conditions by
    construction: one input per function, parity-split cases with distinct
    outputs, a spanning tree from q0 and a minimal associated automaton."""
    states = [f"q{i}" for i in range(MACHINE_STATES)]
    functions = [f"f{j}" for j in range(MACHINE_FUNCTIONS)]
    outputs = [f"o{j}" for j in range(MACHINE_OUTPUTS)]
    for attempt in range(1000):
        shape = random.Random(f"{MACHINE_SHAPE_STREAM}:{index}:{attempt}")
        arcs = {}
        for i in range(1, MACHINE_STATES):
            while True:
                key = (states[shape.randrange(i)], shape.choice(functions))
                if key not in arcs:
                    arcs[key] = states[i]
                    break
        while len(arcs) < MACHINE_STATES - 1 + MACHINE_EXTRA_ARCS:
            key = (shape.choice(states), shape.choice(functions))
            arcs.setdefault(key, shape.choice(states))
        if _is_minimal(states, arcs, functions):
            break
    else:
        raise RuntimeError(f"no minimal machine shape for index {index}")
    rng = random.Random(f"machine:{seed}:{index}")
    return {
        "schema": 1,
        "name": f"m{seed}_{index}",
        "inputs": [f"i{j}" for j in range(MACHINE_FUNCTIONS)],
        "outputs": outputs,
        "states": states,
        "initial_states": ["q0"],
        "terminal_states": states,
        "memory_domain": {"range": [0, MACHINE_MODULUS - 1]},
        "initial_memory": 0,
        "functions": [
            {"name": f, "cases": _parity_cases(rng, f"i{j}", outputs)}
            for j, f in enumerate(functions)
        ],
        "next_state": [
            {"from": q, "fn": f, "to": [t]} for (q, f), t in sorted(arcs.items())
        ],
    }


def machine_outputs(model: dict, inputs: list) -> list:
    """Expected outputs of one input sequence, replayed independently of
    heterotest: ``[outputs]`` for a complete run, ``[]`` when the machine
    stops before consuming the input (every state is terminal)."""
    arcs = {(a["from"], a["fn"]): a["to"][0] for a in model["next_state"]}
    by_input = {}
    for fn in model["functions"]:
        for case in fn["cases"]:
            parity = 0 if "== 0" in case["mem_pattern"] else 1
            offset, modulus = case["mem_next"][len("(?m + "):].split(") % ")
            by_input[(case["input"], parity)] = (
                fn["name"], case["output"], int(offset), int(modulus)
            )
    state, memory, out = model["initial_states"][0], model["initial_memory"], []
    for symbol in inputs:
        fn, output, offset, modulus = by_input[(symbol, memory % 2)]
        if (state, fn) not in arcs:
            return []
        state = arcs[(state, fn)]
        memory = (memory + offset) % modulus
        out.append(output)
    return [out]


# --- communicating systems for the product --------------------------------------

# Three systems of three components each.  Three memory values and three
# port values per component give 48 (in-port, memory, out-port) triples
# each and so 48**3 product memory values.  Even so a product call is
# dominated by interpreter start-up and import, which is what product_s
# is meant to expose.
SYSTEMS = 3
COMPONENTS = 3
COMPONENT_MEMORY = 3
COMPONENT_PORTS = 3


def _component(rng: random.Random, index: int, partner: int) -> dict:
    x, y, z = f"x{index}", f"y{index}", f"z{index}"
    n = COMPONENT_MEMORY
    functions = [
        {"name": "emit", "cases": [
            {"mem_pattern": "?m", "port_pattern": "⊥_M", "input": z, "output": f"w{index}",
             "mem_next": "?m", "out_port": f"?m % {COMPONENT_PORTS}"}]},
        {"name": "loc", "cases": [
            {"mem_pattern": "?m", "port_pattern": "⊥_M", "input": x, "output": f"u{index}",
             "mem_next": f"(?m + {rng.randrange(1, n)}) % {n}"}]},
        {"name": "read", "cases": [
            {"mem_pattern": "?m", "port_pattern": "?p where ?p != ⊥_M", "input": y,
             "output": f"v{index}", "mem_next": f"(?p + ?m) % {n}"}]},
        {"name": "snd", "cases": [
            {"mem_pattern": "?m", "port_pattern": "⊥_M", "input": "λ", "output": "λ",
             "mem_next": "?m", "send_to": partner}]},
    ]
    next_state = [
        {"from": "c0", "fn": "snd", "to": [rng.choice(["p0", "p1"])]},
        {"from": "p0", "fn": "emit", "to": ["c0"]},
        {"from": "p0", "fn": "loc", "to": ["p0"]},
        {"from": "p0", "fn": "read", "to": ["p1"]},
        {"from": "p1", "fn": "loc", "to": [rng.choice(["p0", "p1"])]},
        {"from": "p1", "fn": "read", "to": ["p1"]},
    ]
    if rng.random() < 0.5:
        next_state.append({"from": "p1", "fn": "emit", "to": ["c0"]})
    ports = list(range(COMPONENT_PORTS))
    return {
        "schema": 1,
        "name": f"c{index}",
        "inputs": [x, y, z],
        "outputs": [f"u{index}", f"v{index}", f"w{index}"],
        "states": ["c0", "p0", "p1"],
        "initial_states": ["p0"],
        "terminal_states": ["c0", "p0", "p1"],
        "memory_domain": {"range": [0, n - 1]},
        "initial_memory": 0,
        "functions": functions,
        "next_state": sorted(next_state, key=lambda a: (a["from"], a["fn"])),
        "in_port_domain": ports,
        "out_port_domain": ports,
        "ordinary_states": ["p0", "p1"],
        "communicating_states": ["c0"],
        "ordinary_functions": ["emit", "loc", "read"],
        "communicating_functions": ["snd"],
    }


def csxm_system(seed: int, index: int) -> dict:
    """Components 1..3 in a ring, each sending to the next."""
    rng = random.Random(f"csxms:{seed}:{index}")
    return {
        "schema": 1,
        "name": f"sys{seed}_{index}",
        "components": [
            _component(rng, i, i % COMPONENTS + 1) for i in range(1, COMPONENTS + 1)
        ],
    }


# --- P systems with growing branching -------------------------------------------

PS_SYMBOLS = "abcd"
# Two compartments (1 holds 2), four symbols.  Each rule takes one symbol
# and gives one, so configurations keep their size; positions 0..3 stand
# for the symbols after the seed has permuted them.  Symbol 0 competes for
# two rules in compartment 1, symbols 2 and 1 each compete for two rules in
# compartment 2, and every symbol can come back to 0, so the system cycles
# and branches at every step.
PS_SKELETON = (
    ((0, 1, "here"), (0, 2, "other"), (1, 0, "here"), (3, 0, "here")),
    ((2, 3, "other"), (2, 1, "here"), (1, 2, "here"), (1, 3, "other")),
)
# Depth of every all-branch exploration: deep enough that the trace count
# rises smoothly with the initial multiset, so each band below holds many
# initial multisets to draw from.
PS_DEPTH = 4
# Trace-count bands of the ladder, about 10**2, 10**3 and 3 * 10**3, where
# the generator keeps only initial multisets under which every rule fires
# (so ``gen-tests psystem`` covers every rule and exits 0).  The
# 10**4 end is the past-cap system below: a full exploration at 10**4
# traces would take longer than a whole pass.  The bands are narrow so that
# the work differs little from one seed to the next.
PS_LADDER = ((90, 110), (900, 1100), (2800, 3200))
# heterotest refuses an exploration once a layer holds more than 10,000
# branches.  The past-cap system crosses that line in its last layer, with
# at most 12,000 branches, so the refusal costs a full-depth exploration on
# every seed.
PS_BRANCH_CAP = 10_000
PS_PAST_CAP = (10_001, 12_000)
# Initial multisets of this many symbols land in each band most often.
PS_SIZES = (3, 5, 6, 7)


def _maximal(rules: list, held: tuple) -> list:
    """Every maximal rule multiset of one compartment, as count tuples.
    ``rules`` are (lhs index, change vector) pairs."""
    out = []

    def dfs(i, left, counts):
        if i == len(rules):
            if not any(left[lhs] for lhs, _ in rules):
                out.append(tuple(counts))
            return
        lhs = rules[i][0]
        for k in range(left[lhs] + 1):
            counts.append(k)
            dfs(i + 1, left[:lhs] + (left[lhs] - k,) + left[lhs + 1:], counts)
            counts.pop()

    dfs(0, held, [])
    return out


def _compile(skeleton) -> list:
    """Per compartment: (lhs index in the compartment, change of the whole
    configuration vector) per rule.  Slot ``c * 4 + s`` counts symbol s in
    compartment c + 1."""
    width = len(PS_SYMBOLS)
    compiled = []
    for comp, rules in enumerate(skeleton):
        entries = []
        for lhs, rhs, target in rules:
            delta = [0] * (2 * width)
            delta[comp * width + lhs] -= 1
            delta[(comp if target == "here" else 1 - comp) * width + rhs] += 1
            entries.append((lhs, tuple(delta)))
        compiled.append(entries)
    return compiled


def psystem_profile(compiled: list, initial: tuple, depth: int, cache: dict) -> dict:
    """Trace count, layer widths and fired rules of an all-branch
    exploration, counting paths per distinct configuration.  Stops, as
    heterotest does, after the first layer wider than the branch cap; the
    trace count is then None."""
    width = len(PS_SYMBOLS)
    layer = {initial: 1}
    traces, widths, fired = 0, [], set()
    for _ in range(depth):
        nxt: dict = {}
        for cfg, paths in layer.items():
            if cfg not in cache:
                per_comp = [_maximal(compiled[c], cfg[c * width:(c + 1) * width]) for c in (0, 1)]
                moves = []
                for c1 in per_comp[0]:
                    for c2 in per_comp[1]:
                        new, names = list(cfg), []
                        for comp, counts in ((0, c1), (1, c2)):
                            for r, ((_, delta), k) in enumerate(zip(compiled[comp], counts)):
                                if k:
                                    names.append((comp, r))
                                    for i, d in enumerate(delta):
                                        new[i] += d * k
                        moves.append((names, tuple(new)))
                cache[cfg] = [] if moves == [([], cfg)] else moves
            if not cache[cfg]:
                traces += paths
            for names, succ in cache[cfg]:
                fired.update(names)
                nxt[succ] = nxt.get(succ, 0) + paths
        widths.append(sum(nxt.values()))
        if widths[-1] > PS_BRANCH_CAP:
            return {"traces": None, "widths": widths, "fired": fired}
        layer = nxt
    return {"traces": traces + sum(layer.values()), "widths": widths, "fired": fired}


def psystem_ladder(seed: int) -> list:
    """One seeded system per band of ``PS_LADDER`` plus one past the branch
    cap.  The seed permutes the symbols, renames the rules and draws each
    initial multiset among those whose exploration lands in the band.
    Returns ``(name, document, profile)`` triples."""
    rng = random.Random(f"psystem:{seed}")
    symbols = rng.sample(PS_SYMBOLS, len(PS_SYMBOLS))
    names = [rng.sample(range(1, 5), 4) for _ in PS_SKELETON]
    compiled, cache = _compile(PS_SKELETON), {}
    n_rules = sum(len(rules) for rules in PS_SKELETON)
    ladder = []
    bands = list(PS_LADDER) + [PS_PAST_CAP]
    for band, ((low, high), size) in enumerate(zip(bands, PS_SIZES)):
        past_cap = band == len(PS_LADDER)
        for _ in range(2000):
            slots = Counter(rng.choices(range(2 * len(PS_SYMBOLS)), k=size))
            initial = tuple(slots[i] for i in range(2 * len(PS_SYMBOLS)))
            prof = psystem_profile(compiled, initial, PS_DEPTH, cache)
            if past_cap:
                ok = (prof["traces"] is None and len(prof["widths"]) == PS_DEPTH
                      and low <= prof["widths"][-1] <= high)
            else:
                ok = (prof["traces"] is not None and low <= prof["traces"] <= high
                      and len(prof["fired"]) == n_rules)
            if ok:
                break
        else:
            raise RuntimeError(f"no P system in band {band} for seed {seed}")
        name = "pastcap" if past_cap else f"branch{band}"
        ladder.append((name, _psystem_doc(f"{name}_{seed}", symbols, names, initial), prof))
    return ladder


def _psystem_doc(name: str, symbols: list, names: list, initial: tuple) -> dict:
    width = len(PS_SYMBOLS)
    rules = {}
    for comp, skeleton in enumerate(PS_SKELETON):
        other = 2 if comp == 0 else 1
        rules[str(comp + 1)] = sorted(
            ({"name": f"r{comp + 1}{names[comp][r]}", "lhs": symbols[lhs],
              "rhs": [[symbols[rhs], "here" if target == "here" else other]]}
             for r, (lhs, rhs, target) in enumerate(skeleton)),
            key=lambda rule: rule["name"],
        )
    return {
        "schema": 1,
        "name": name,
        "alphabet": sorted(PS_SYMBOLS),
        "structure": {"id": 1, "children": [{"id": 2, "children": []}]},
        "initial": {
            str(c + 1): "".join(sorted(
                symbols[s] * initial[c * width + s] for s in range(width)))
            for c in (0, 1)
        },
        "rules": rules,
    }


# --- workloads ------------------------------------------------------------------

# The shipped ps2_heterotic.json uses the same cap; ps2 halts within 3 steps
# on every branch.
HETEROTIC_DEPTH_CAP = 10


def _write(out_dir: str, name: str, doc: dict) -> str:
    path = os.path.join(out_dir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, ensure_ascii=False, indent=1, sort_keys=True)
    return path


def write_inputs(workload: str, seed: int, out_dir: str, models_dir: str = "models") -> dict:
    """Write the input files of one workload; returns what the benchmark
    needs to know about them (paths and, where it has them, its own
    expectations)."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "sxm_mutation":
        docs = [machine(seed, i) for i in range(MACHINES)]
        return {"machines": [(_write(out_dir, d["name"], d), d) for d in docs]}
    if workload == "heterotic_suite":
        for name in ("ps2.json", "ps2_control.json"):
            shutil.copyfile(os.path.join(models_dir, name), os.path.join(out_dir, name))
        heterotic = _write(out_dir, "heterotic", {
            "schema": 1, "name": f"ps2_heterotic_{seed}", "psystem": "ps2.json",
            "control": "ps2_control.json", "seed": seed, "depth_cap": HETEROTIC_DEPTH_CAP,
        })
        systems = [_write(out_dir, f"sys{i}", csxm_system(seed, i)) for i in range(SYSTEMS)]
        return {"heterotic": heterotic, "ps2": os.path.join(out_dir, "ps2.json"),
                "depth_cap": HETEROTIC_DEPTH_CAP, "systems": systems}
    if workload == "psystem_branching":
        ps2 = os.path.join(out_dir, "ps2.json")
        shutil.copyfile(os.path.join(models_dir, "ps2.json"), ps2)
        ladder = [(name, _write(out_dir, name, doc), prof)
                  for name, doc, prof in psystem_ladder(seed)]
        return {"ps2": ps2, "ladder": ladder, "depth": PS_DEPTH}
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("sxm_mutation", "heterotic_suite", "psystem_branching"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    manifest = write_inputs(args.workload, args.seed, args.out)
    print(json.dumps(manifest, default=sorted, indent=1))


if __name__ == "__main__":
    main()
