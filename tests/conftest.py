import json
import random
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest

import numpy as np

# When a hypothesis test fails, hypothesis's pytest plugin imports this
# module to suggest a patch. The import warns (libcst reads the deprecated
# mypy_extensions.TypedDict), and under the every-warning-is-an-error filter
# below the warning would end the session with INTERNALERROR instead of
# reporting the failure. Importing it here first, with warnings off for the
# import only, leaves that filter as it is.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from tvdcamo._kernels import GUARD_V
from tvdcamo.attack import CandidateState, _inconsistent_oracle
from tvdcamo.bench import (
    ALL_ONES,
    GATE_KINDS,
    UNARY_KINDS,
    WORD_BITS,
    ZERO,
    Gate,
    Netlist,
    eval_logic,
    eval_words,
    parse_bench,
    unpack_words,
)
from tvdcamo.camo import CamoConfig, CamoGateSpec
from tvdcamo.device import BiasPoint, IsfetParams, vth_from_ph
from tvdcamo.errors import (
    BenchParseError,
    CycleError,
    DomainError,
    UnresolvableGateError,
    UsageError,
)
from tvdcamo.gates import (
    SERIES_K_FACTOR,
    BranchAssignment,
    TruthTable2,
    branch_current,
    minterm_index,
)
from tvdcamo.transient import _PROBE_V_DS, PMOS_VTH, GateTrace, _evaluate

DATA_DIR = Path(__file__).parent / "data"

BINARY_KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")


def first_difference(got: str, want: str):
    """None when the texts are equal, else ``(line number, got line, wanted
    line)`` at the first line that differs (None past a text's end).

    The CSV tests assert on this rather than on ``got == want``: pytest
    explains a failed comparison of two long texts with a line diff, which
    takes minutes for a 501-row waveform whose every row differs.
    """
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else None
        w = want_lines[i] if i < len(want_lines) else None
        if g != w:
            return i + 1, g, w


def pytest_configure(config):
    # Any warning fails the suite. Set here, not in pyproject.toml, so that
    # `python -m pytest perfbench`, run on its own, keeps the default
    # settings: perfbench/compare.py leaves files open (ResourceWarning).
    config.addinivalue_line("filterwarnings", "error")


@pytest.fixture(scope="session")
def c17_text() -> str:
    return (DATA_DIR / "c17.bench").read_text()


@pytest.fixture(scope="session")
def c17(c17_text) -> Netlist:
    return parse_bench(c17_text)


def random_netlist(
    rng: random.Random,
    max_inputs: int = 12,
    max_gates: int = 30,
    unary_weight: float = 0.15,
    wide_weight: float = 0.1,
) -> Netlist:
    """A random combinational DAG; gates only fan in to earlier nets."""
    n_in = rng.randint(1, max_inputs)
    inputs = [f"i{k}" for k in range(n_in)]
    nets = list(inputs)
    gates = []
    for j in range(rng.randint(1, max_gates)):
        name = f"g{j}"
        roll = rng.random()
        if roll < unary_weight:
            kind = rng.choice(("NOT", "BUF"))
            fanin = (rng.choice(nets),)
        elif roll < unary_weight + wide_weight:
            kind = rng.choice(BINARY_KINDS)
            fanin = tuple(rng.choice(nets) for _ in range(3))
        else:
            kind = rng.choice(BINARY_KINDS)
            fanin = tuple(rng.choice(nets) for _ in range(2))
        gates.append(Gate(name=name, kind=kind, fanin=fanin))
        nets.append(name)
    n_out = rng.randint(1, min(5, len(nets)))
    outputs = rng.sample(nets, n_out)
    return Netlist(inputs, outputs, gates)


def dag_text(rng: random.Random, n_inputs: int, n_gates: int) -> str:
    """.bench text of a random DAG of 2-input gates in topological file
    order, each reading two of the last 300 nets; its last 20 nets are the
    outputs."""
    nets = [f"i{k}" for k in range(n_inputs)]
    lines = [f"INPUT({net})" for net in nets]
    for k in range(n_gates):
        a, b = rng.sample(nets[-300:], 2)
        lines.append(f"g{k} = {rng.choice(BINARY_KINDS)}({a}, {b})")
        nets.append(f"g{k}")
    lines[n_inputs:n_inputs] = [f"OUTPUT({net})" for net in nets[-20:]]
    return "\n".join(lines) + "\n"


def slot_form_netlist(rng: random.Random) -> Netlist:
    """A random netlist, gates in shuffled file order, with every shape the
    slot compiler handles: n-ary gates (a 4-input one at least), NOT, a BUF
    chain, a primary input among the outputs and an output aliased through
    BUF."""
    base = random_netlist(
        rng, max_inputs=8, max_gates=20, unary_weight=0.3, wide_weight=0.3
    )
    gates = list(base.gates)
    nets = list(base.inputs) + [g.name for g in gates]
    wide = tuple(rng.choice(nets) for _ in range(4))
    gates.append(Gate("wide", rng.choice(BINARY_KINDS), wide))
    chain = rng.choice(nets)
    for k in range(3):
        gates.append(Gate(f"buf{k}", "BUF", (chain,)))
        chain = f"buf{k}"
    rng.shuffle(gates)
    outputs = dict.fromkeys([*base.outputs, "wide", chain, rng.choice(base.inputs)])
    return Netlist(base.inputs, list(outputs), gates)


def naive_eval(netlist: Netlist, vec, bindings=None):
    """Independent reference evaluator: memoized recursion over drivers."""
    env = dict(zip(netlist.inputs, (int(v) for v in vec)))

    ops = {
        "AND": lambda xs: int(all(xs)),
        "OR": lambda xs: int(any(xs)),
        "NAND": lambda xs: int(not all(xs)),
        "NOR": lambda xs: int(not any(xs)),
        "XOR": lambda xs: sum(xs) % 2,
        "XNOR": lambda xs: 1 - sum(xs) % 2,
        "NOT": lambda xs: 1 - xs[0],
        "BUF": lambda xs: xs[0],
    }

    def value(net):
        if net not in env:
            gate = netlist.gate_map[net]
            xs = [value(f) for f in gate.fanin]
            if gate.kind == "CAMO":
                env[net] = bindings[net].eval(xs[0], xs[1])
            else:
                env[net] = ops[gate.kind](xs)
        return env[net]

    return tuple(value(o) for o in netlist.outputs)


# The statement parser before the single-check fast path, kept verbatim
# (with its patterns and arity rule) as the reference for the parser's
# differential test, the way naive_eval serves the evaluator.
_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([A-Za-z0-9_]+)\s*\)\s*$")
_GATE_RE = re.compile(
    r"^\s*([A-Za-z0-9_]+)\s*=\s*([A-Za-z0-9_]+)\s*\(\s*([^()]*?)\s*\)\s*$"
)


def _check_arity(kind: str, n: int) -> str | None:
    if kind in UNARY_KINDS:
        if n != 1:
            return f"{kind} takes exactly 1 input, got {n}"
    elif kind == "CAMO":
        if n != 2:
            return f"CAMO takes exactly 2 inputs, got {n}"
    elif n < 2:
        return f"{kind} takes at least 2 inputs, got {n}"
    return None


def reference_parse_bench(text: str) -> Netlist:
    """Parse .bench source into a Netlist, or raise a located BenchParseError."""
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    driver_lines: dict[str, int] = {}
    output_lines: dict[str, int] = {}
    gate_lines: dict[str, int] = {}
    fanin_sites: list[tuple[str, str, int, int]] = []  # gate, net, line, col

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip("\r")
        if not line.strip():
            continue
        io_m = _IO_RE.match(line)
        if io_m:
            keyword, name = io_m.group(1), io_m.group(2)
            if keyword == "INPUT":
                if name in driver_lines:
                    raise BenchParseError(
                        f"net {name!r} already driven at line {driver_lines[name]}",
                        lineno,
                        io_m.start(2) + 1,
                    )
                driver_lines[name] = lineno
                inputs.append(name)
            else:
                if name in output_lines:
                    raise BenchParseError(
                        f"output {name!r} already listed at line {output_lines[name]}",
                        lineno,
                        io_m.start(2) + 1,
                    )
                output_lines[name] = lineno
                outputs.append(name)
            continue
        gate_m = _GATE_RE.match(line)
        if gate_m:
            name, kind_tok, args = gate_m.group(1), gate_m.group(2), gate_m.group(3)
            kind = kind_tok.upper()
            if kind not in GATE_KINDS:
                raise BenchParseError(
                    f"unknown gate kind {kind_tok!r}", lineno, gate_m.start(2) + 1
                )
            if name in driver_lines:
                raise BenchParseError(
                    f"net {name!r} already driven at line {driver_lines[name]}",
                    lineno,
                    gate_m.start(1) + 1,
                )
            fanin: list[str] = []
            args_base = gate_m.start(3)
            pos = 0
            for tok in args.split(","):
                stripped = tok.strip()
                col = args_base + pos + tok.index(stripped) + 1 if stripped else args_base + pos + 1
                if not stripped or not _NAME_RE.match(stripped):
                    raise BenchParseError(
                        f"invalid net name {stripped!r}", lineno, col
                    )
                fanin.append(stripped)
                fanin_sites.append((name, stripped, lineno, col))
                pos += len(tok) + 1
            problem = _check_arity(kind, len(fanin))
            if problem:
                raise BenchParseError(problem, lineno, gate_m.start(2) + 1)
            driver_lines[name] = lineno
            gate_lines[name] = lineno
            gates.append(Gate(name=name, kind=kind, fanin=tuple(fanin)))
            continue
        col = len(line) - len(line.lstrip()) + 1
        raise BenchParseError(f"unrecognized statement {line.strip()!r}", lineno, col)

    for gate_name, net, lineno, col in fanin_sites:
        if net not in driver_lines:
            raise BenchParseError(f"undefined net {net!r}", lineno, col)
    for name in outputs:
        if name not in driver_lines:
            raise BenchParseError(f"undefined net {name!r}", output_lines[name])

    try:
        return Netlist(inputs, outputs, gates)
    except CycleError as exc:
        first = min(exc.cycle, key=lambda n: gate_lines.get(n, 0))
        raise BenchParseError(str(exc), gate_lines.get(first, 1)) from exc


def reference_from_json(text: str) -> CamoConfig:
    """``CamoConfig.from_json``, each entry read key by key and each spec
    built through ``CamoGateSpec``'s own checks. ``function_bits`` must be
    an int, each pH and ``params`` value an int or a float, none of them a
    bool, and each name a string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed camouflage config: {exc}") from exc
    try:
        odd = set(doc["params"]) ^ {f.name for f in fields(IsfetParams)}
        if odd:
            raise DomainError(
                f"camouflage config params: missing or unknown keys {sorted(odd)}"
            )
        for key in doc["params"]:
            value = doc["params"][key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DomainError(
                    f"camouflage config params: {key} must be an int or a float, got {value!r}"
                )
        try:
            params = IsfetParams(**doc["params"])
        except UsageError as exc:
            raise DomainError(f"camouflage config params: {exc}") from exc
        gates = []
        for entry in doc["gates"]:
            bits = entry["function_bits"]
            if isinstance(bits, bool) or not isinstance(bits, int):
                raise DomainError(
                    f"gate {entry['name']!r}: function_bits must be an int, got {bits!r}"
                )
            function = TruthTable2(bits)
            if function.name != entry["function_name"]:
                raise DomainError(
                    f"gate {entry['name']!r}: function_name "
                    f"{entry['function_name']!r} does not match bits "
                    f"{entry['function_bits']}"
                )
            name = entry["name"]
            if not isinstance(name, str):
                raise DomainError(f"gate name must be a string, got {name!r}")
            assignment = BranchAssignment(tuple(entry["assignment"]))
            ph_low, ph_high = entry["ph_low"], entry["ph_high"]
            for key, value in (("ph_low", ph_low), ("ph_high", ph_high)):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise DomainError(
                        f"gate {name!r}: {key} must be an int or a float, got {value!r}"
                    )
            gates.append(
                CamoGateSpec(
                    name=name,
                    function=function,
                    assignment=assignment,
                    ph_low=ph_low,
                    ph_high=ph_high,
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed camouflage config: {exc}") from exc
    return CamoConfig(params=params, gates=tuple(gates))


def reference_topo_order(netlist) -> tuple[Gate, ...]:
    """The same version's topological order of ``netlist.gates``; only
    ``gates`` and ``gate_map`` are read."""
    # Kahn's algorithm over gate-to-gate dependencies; leftovers form a cycle.
    indeg = {g.name: 0 for g in netlist.gates}
    users: dict[str, list[str]] = {g.name: [] for g in netlist.gates}
    for g in netlist.gates:
        for f in g.fanin:
            if f in netlist.gate_map:
                indeg[g.name] += 1
                users[f].append(g.name)
    ready = [g.name for g in netlist.gates if indeg[g.name] == 0]
    order: list[Gate] = []
    while ready:
        name = ready.pop()
        order.append(netlist.gate_map[name])
        for u in users[name]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) != len(netlist.gates):
        stuck = [g.name for g in netlist.gates if indeg[g.name] > 0]
        raise CycleError(stuck)
    return tuple(order)


# The attack's query generator as it was before verification and the attack
# shared one vector source, kept verbatim (with the exhaustive index
# decoding inlined) so that the references do not share the attack's query
# order.
_EXHAUSTIVE_QUERY_LIMIT_BITS = 20


def reference_query_vectors(n_inputs: int, strategy: str, n_queries, seed):
    if strategy == "exhaustive":
        if n_inputs > _EXHAUSTIVE_QUERY_LIMIT_BITS:
            raise UsageError(
                f"exhaustive querying supports at most "
                f"{_EXHAUSTIVE_QUERY_LIMIT_BITS} inputs, netlist has {n_inputs}"
            )
        for v in range(1 << n_inputs):
            yield tuple((v >> (n_inputs - 1 - j)) & 1 for j in range(n_inputs))
        return
    if strategy == "random":
        if n_queries is None or n_queries < 0:
            raise UsageError("random strategy requires n_queries >= 0")
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(n_queries, n_inputs), dtype=np.uint8)
        for row in matrix:
            yield tuple(int(v) for v in row)
        return
    raise UsageError(f"unknown query strategy {strategy!r}")


# One index bit per call, as bench built the exhaustive input words and the
# attack's lane masks before both took every bit from one array step
# (bench.index_bit_rows). Kept as the per-bit reference for that helper and
# for reference_oracle_attack's lanes.
_LOW_INDEX_BITS = tuple(
    np.uint64(sum(1 << p for p in range(WORD_BITS) if p >> k & 1))
    for k in range(6)
)


def index_bit_words(k: int, start_word: int, n_words: int) -> np.ndarray:
    """Words whose bit for vector index i is bit k of i, from ``start_word * 64`` on."""
    if k < 6:
        return np.full(n_words, _LOW_INDEX_BITS[k], dtype=np.uint64)
    word = np.arange(start_word, start_word + n_words, dtype=np.uint64)
    return np.where((word >> np.uint64(k - 6)) & np.uint64(1), ALL_ONES, ZERO)


# Joint-mode oracle attack as it was before the cone/base split: per query,
# eval_logic over the whole oracle and eval_words over every gate of the
# camouflaged netlist. Kept as the reference for the attack's differential
# test; the capacity check and marginal mode are left out.
def reference_oracle_attack(
    camo: Netlist,
    oracle: Netlist,
    oracle_bindings=None,
    strategy: str = "exhaustive",
    n_queries: int | None = None,
    seed: int | None = None,
) -> CandidateState:
    names = camo.camo_gates
    g = len(names)
    n_lanes = 16**g
    n_words = -(-n_lanes // WORD_BITS)
    lanes = {
        nm: tuple(
            index_bit_words(4 * (g - 1 - j) + 3 - m, 0, n_words) for m in range(4)
        )
        for j, nm in enumerate(names)
    }
    alive = np.full(n_words, ALL_ONES)
    if n_lanes < WORD_BITS:
        alive[0] = (1 << n_lanes) - 1
    state = CandidateState(
        camo_gates=names,
        mode="joint",
        marginals={nm: set(TruthTable2) for nm in names},
        survivor_history=[n_lanes],
    )

    for vec in reference_query_vectors(len(camo.inputs), strategy, n_queries, seed):
        if state.survivor_history[-1] <= 1:
            break
        observed = eval_logic(oracle, vec, oracle_bindings)
        outs = eval_words(camo, [ALL_ONES if bit else ZERO for bit in vec], lanes)
        for o, obs in zip(outs, observed):
            alive &= o if obs else ~o
        state.query_log.append((tuple(vec), tuple(observed)))
        state.survivor_history.append(int(np.bitwise_count(alive).sum()))
        if state.survivor_history[-1] == 0:
            raise DomainError(
                f"oracle response {tuple(observed)} to query {tuple(vec)} "
                f"eliminates every candidate: the oracle is inconsistent "
                f"with the camouflaged netlist"
            )

    funcs = tuple(TruthTable2)
    state.survivors = [
        tuple(funcs[(lane >> 4 * (g - 1 - j)) & 15] for j in range(g))
        for lane in np.flatnonzero(unpack_words(alive, n_lanes)).tolist()
    ]
    state.marginals = {
        nm: {s[j] for s in state.survivors} for j, nm in enumerate(names)
    }
    return state


# Marginal-mode oracle attack as it was before it ran on the word engine: a
# three-valued interpreter of its own, one whole-netlist pass per candidate
# per gate per query. Kept verbatim as the reference for marginal mode's
# differential test. Three-valued (0/1/unknown) evaluation for marginal
# pruning: a value is the pair (can_be_0, can_be_1); unbound camouflaged
# gates are fully unknown.
_X = (True, True)


def _tv_apply(gate: Gate, fan, binding):
    kind = gate.kind
    if kind == "BUF":
        return fan[0]
    if kind == "NOT":
        p0, p1 = fan[0]
        return (p1, p0)
    if kind in ("AND", "NAND"):
        p1 = all(v[1] for v in fan)
        p0 = any(v[0] for v in fan)
        return (p1, p0) if kind == "NAND" else (p0, p1)
    if kind in ("OR", "NOR"):
        p1 = any(v[1] for v in fan)
        p0 = all(v[0] for v in fan)
        return (p1, p0) if kind == "NOR" else (p0, p1)
    if kind in ("XOR", "XNOR"):
        acc = fan[0]
        for v in fan[1:]:
            acc = (
                (acc[0] and v[0]) or (acc[1] and v[1]),
                (acc[0] and v[1]) or (acc[1] and v[0]),
            )
        return (acc[1], acc[0]) if kind == "XNOR" else acc
    if binding is None:
        return _X
    (a0, a1), (b0, b1) = fan
    p0 = p1 = False
    for m, possible in (
        (0, a0 and b0),
        (1, a0 and b1),
        (2, a1 and b0),
        (3, a1 and b1),
    ):
        if possible:
            if binding.minterm(m):
                p1 = True
            else:
                p0 = True
    return (p0, p1)


def _tv_eval(n: Netlist, vec, fixed_gate: str, candidate: TruthTable2):
    values = {
        name: (not bit, bool(bit)) for name, bit in zip(n.inputs, vec)
    }
    for gate in n.topo_gates:
        if gate.kind == "CAMO":
            binding = candidate if gate.name == fixed_gate else None
        else:
            binding = None
        values[gate.name] = _tv_apply(
            gate, [values[f] for f in gate.fanin], binding
        )
    return [values[o] for o in n.outputs]


def reference_marginal_attack(
    camo,
    oracle,
    oracle_bindings=None,
    strategy="exhaustive",
    n_queries=None,
    seed=None,
):
    names = camo.camo_gates
    state = CandidateState(
        camo_gates=names,
        mode="marginal",
        marginals={nm: set(TruthTable2) for nm in names},
    )
    state.survivor_history = [state.joint_survivors]
    for vec in reference_query_vectors(len(camo.inputs), strategy, n_queries, seed):
        if all(len(s) == 1 for s in state.marginals.values()):
            break
        observed = eval_logic(oracle, vec, oracle_bindings)
        for nm in names:
            doomed = []
            for candidate in state.marginals[nm]:
                outs = _tv_eval(camo, vec, nm, candidate)
                for (p0, p1), obs in zip(outs, observed):
                    determined = not (p0 and p1)
                    if determined and p1 != bool(obs):
                        doomed.append(candidate)
                        break
            for candidate in doomed:
                state.marginals[nm].discard(candidate)
        state.query_log.append((tuple(vec), tuple(observed)))
        state.survivor_history.append(state.joint_survivors)
        if state.survivor_history[-1] == 0:
            raise _inconsistent_oracle(vec, observed)
    return state


# The Euler kernel before the frozen-node tail and the block-buffered
# stores, kept verbatim as the reference for the kernel's differential test.
def reference_integrate(
    v_out,
    v_bar,
    n_pre,
    n_total,
    dt,
    vdd,
    c_node,
    k_out,
    vth_out,
    k_bar,
    vth_bar,
    k_pmos,
    vth_pmos,
):
    """Integrate the node pair over samples ``n_pre + 1 .. n_total``.

    The arguments after ``n_total`` are the circuit constants. Both arrays
    are filled from the state stored at sample ``n_pre``, so consecutive
    calls over adjacent ranges continue one another bit for bit. Returns -1
    on success or the index of the first sample whose step diverged.
    """
    # Continue from the state stored at sample n_pre. Python floats: the loop
    # runs 2.4x slower on numpy scalars.
    x = float(v_out[n_pre])
    y = float(v_bar[n_pre])
    lo = -GUARD_V
    hi = vdd + GUARD_V
    inv_c = dt / c_node
    ov_out = vdd - vth_out  # n-branch overdrives; gates driven by ideal rails
    ov_bar = vdd - vth_bar

    for i in range(n_pre, n_total):
        # Conducting pull-down branch on each side (quadratic, sat clamp).
        if ov_out <= 0.0:
            i_nx = 0.0
        elif x < ov_out:
            i_nx = k_out * (ov_out * x - 0.5 * x * x)
        else:
            i_nx = 0.5 * k_out * ov_out * ov_out
        if ov_bar <= 0.0:
            i_ny = 0.0
        elif y < ov_bar:
            i_ny = k_bar * (ov_bar * y - 0.5 * y * y)
        else:
            i_ny = 0.5 * k_bar * ov_bar * ov_bar

        # Cross-coupled PMOS pair, each gated by the opposite node.
        ov_px = vdd - y - vth_pmos
        if ov_px <= 0.0:
            i_px = 0.0
        else:
            sd = vdd - x
            if sd < ov_px:
                i_px = k_pmos * (ov_px * sd - 0.5 * sd * sd)
            else:
                i_px = 0.5 * k_pmos * ov_px * ov_px
        ov_py = vdd - x - vth_pmos
        if ov_py <= 0.0:
            i_py = 0.0
        else:
            sd = vdd - y
            if sd < ov_py:
                i_py = k_pmos * (ov_py * sd - 0.5 * sd * sd)
            else:
                i_py = 0.5 * k_pmos * ov_py * ov_py

        x = x + (i_px - i_nx) * inv_c
        y = y + (i_py - i_ny) * inv_c
        if x < lo or x > hi or y < lo or y > hi:
            return i + 1
        if x < 0.0:
            x = 0.0
        elif x > vdd:
            x = vdd
        if y < 0.0:
            y = 0.0
        elif y > vdd:
            y = vdd
        v_out[i + 1] = x
        v_bar[i + 1] = y
    return -1


# The pH pairs of perfbench's gate-char workload: the ten pairs that resolve
# at every clock, then the pair that never resolves at 2 GHz; and its clocks.
GATE_CHAR_PAIRS = (
    (2.0, 10.0), (3.0, 9.0), (2.0, 8.0), (4.0, 11.0), (1.0, 7.0),
    (5.0, 12.0), (2.0, 6.0), (6.0, 13.0), (2.0, 4.0), (3.0, 5.0), (2.0, 2.5),
)
GATE_CHAR_CLOCKS = (2e7, 1e9, 2e9)


# Each minterm's own race, built from the pH on each side of its branch pair,
# as the library did before every minterm ran its program's one race or that
# race's mirror. Kept as the reference for the mirror's differential tests.
def reference_branch_phs(program, m: int) -> tuple[float, float]:
    """Solution pH on the (V_OUT side, V̄_OUT side) branches for minterm m."""
    if program.assignment[m]:
        return program.ph_low, program.ph_high
    return program.ph_high, program.ph_low


def reference_race(program, params, cfg, a: int, b: int):
    """Circuit constants of one input pair: ``_kernels.integrate``'s
    arguments after ``n_total``."""
    ph_out, ph_bar = reference_branch_phs(program, minterm_index(a, b))
    k_eff = params.k_gain * SERIES_K_FACTOR
    return (
        cfg.dt,
        params.vdd,
        cfg.c_node,
        k_eff,
        vth_from_ph(params, ph_out),
        k_eff,
        vth_from_ph(params, ph_bar),
        params.k_gain,
        PMOS_VTH,
    )


def reference_simulate(program, params, cfg, a: int, b: int) -> GateTrace:
    """``simulate`` on the minterm's own race."""
    race = reference_race(program, params, cfg, a, b)
    v_out, v_bar, output, resolve_time = _evaluate(race, cfg, waveform=True)
    trip = cfg.trip_at(params.vdd)
    return GateTrace(
        t=np.arange(len(v_out), dtype=np.float64) * cfg.dt,
        v_out=v_out,
        v_out_bar=v_bar,
        out=np.where(v_out < trip, params.vdd, 0.0),
        out_bar=np.where(v_bar < trip, params.vdd, 0.0),
        resolved_output=output,
        resolve_time=resolve_time,
        eval_start_index=cfg.n_steps // 2,
    )


# branch_current as it was before the series stack had one owner: an IsfetParams
# of the halved gain and a BiasPoint per call, then ids and vth_from_ph of that
# version, verbatim, computing on the classes of the values given. Kept as the
# reference for branch_current's differential test.
def reference_branch_current(params, ph, v_ds):
    series = replace(params, k_gain=params.k_gain * SERIES_K_FACTOR)
    bias = BiasPoint(v_gs=params.vdd, v_ds=v_ds, ph=ph)
    v_ov = bias.v_gs - (series.vth0 + series.sensitivity * (bias.ph - series.ph_ref))
    if v_ov <= 0.0:
        return 0.0
    if bias.v_ds < v_ov:
        return series.k_gain * (v_ov * bias.v_ds - 0.5 * bias.v_ds * bias.v_ds)
    return 0.5 * series.k_gain * v_ov * v_ov


def reference_evaluate_static(program, params, a: int, b: int) -> int:
    """``evaluate_static`` from the minterm's own pair of branch currents."""
    ph_out, ph_bar = reference_branch_phs(program, minterm_index(a, b))
    i_out = branch_current(params, ph_out, params.vdd)
    i_bar = branch_current(params, ph_bar, params.vdd)
    if i_out == i_bar:
        raise UnresolvableGateError(
            f"unresolvable gate: branch currents are equal ({i_out:.6e} A) "
            f"for pH pair ({program.ph_low}, {program.ph_high})"
        )
    return int(i_out > i_bar)


# margin_report before it integrated one race per program: four resolve-only
# races, one per minterm, kept as the reference for its differential test.
def reference_margin_report(program, params, cfg) -> list[dict]:
    i_lvt = branch_current(params, program.ph_low, _PROBE_V_DS)
    i_hvt = branch_current(params, program.ph_high, _PROBE_V_DS)
    ratio = float("inf") if i_hvt == 0.0 else i_lvt / i_hvt
    rows = []
    for a in (0, 1):
        for b in (0, 1):
            race = reference_race(program, params, cfg, a, b)
            _, _, output, resolve_time = _evaluate(race, cfg, waveform=False)
            rows.append(
                {
                    "minterm": minterm_index(a, b),
                    "a": a,
                    "b": b,
                    "current_ratio": ratio,
                    "resolve_time": resolve_time,
                    "output": output,
                }
            )
    return rows
