import random
import re
from pathlib import Path

import pytest

from tvdcamo.bench import GATE_KINDS, UNARY_KINDS, Gate, Netlist, parse_bench
from tvdcamo.errors import BenchParseError, CycleError

DATA_DIR = Path(__file__).parent / "data"

BINARY_KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")


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
