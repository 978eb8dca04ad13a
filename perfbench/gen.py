"""Seeded inputs for the benchmark and an independent reference evaluator.

Everything here is plain Python and touches nothing in ``tvdcamo``: the
generator emits ``.bench`` text, and the reference evaluator answers the
output checks without going through ``tvdcamo.bench``.
"""

import random

# Every generated gate is one of these, so every gate can be camouflaged.
KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")

# Truth-table value of each kind, in TruthTable2 numbering: bit (3 - m) is
# the output for minterm m = 2*A + B.
KIND_BITS = {"AND": 1, "XOR": 6, "OR": 7, "NOR": 8, "XNOR": 9, "NAND": 14}

C17_TEXT = """# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""
C17_GATES = ("10", "11", "16", "19", "22", "23")


def random_dag(
    seed: int, n_inputs: int, n_gates: int, depth: int, max_fanout: int
) -> str:
    """A seeded combinational DAG of 2-input gates, as ``.bench`` text.

    Gates are spread evenly over ``depth`` levels. Each gate takes its first
    input from the level just below it, so the DAG has exactly that depth,
    and its second from any lower level; nets below ``max_fanout`` loads are
    preferred. Every net nobody reads becomes a primary output.
    """
    if n_inputs < 2 or n_gates < 1 or not 1 <= depth <= n_gates or max_fanout < 1:
        raise ValueError("random_dag needs n_inputs >= 2, 1 <= depth <= n_gates")
    rng = random.Random(seed)
    levels = [[f"i{k}" for k in range(n_inputs)]]
    fanout: dict[str, int] = {name: 0 for name in levels[0]}
    lines = [f"INPUT({name})" for name in levels[0]]
    gate_lines = []

    def pick(pool, avoid=None):
        open_nets = [n for n in pool if fanout[n] < max_fanout and n != avoid]
        choice = rng.choice(open_nets or [n for n in pool if n != avoid] or pool)
        fanout[choice] += 1
        return choice

    per_level, extra = divmod(n_gates, depth)
    k = 0
    for level in range(depth):
        below = [n for lv in levels for n in lv]
        current = []
        for _ in range(per_level + (1 if level < extra else 0)):
            a = pick(levels[-1])
            b = pick(below, avoid=a)
            name = f"g{k}"
            k += 1
            gate_lines.append(f"{name} = {rng.choice(KINDS)}({a}, {b})")
            fanout[name] = 0
            current.append(name)
        levels.append(current)
    outputs = [n for lv in levels[1:] for n in lv if fanout[n] == 0]
    lines.extend(f"OUTPUT({name})" for name in outputs)
    return "# random_dag\n" + "\n".join(lines + gate_lines) + "\n"


def parse_ref(text: str):
    """Parse ``.bench`` text into (inputs, outputs, gates in file order).

    A minimal parser for the subset this benchmark writes: INPUT, OUTPUT and
    2-input gate lines, including CAMO. Gates in the file are already in
    topological order.
    """
    inputs, outputs, gates = [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("INPUT("):
            inputs.append(line[6:-1].strip())
        elif line.startswith("OUTPUT("):
            outputs.append(line[7:-1].strip())
        else:
            name, rhs = (s.strip() for s in line.split("=", 1))
            kind, args = rhs.split("(", 1)
            fanin = tuple(s.strip() for s in args.rstrip(")").split(","))
            gates.append((name, kind.strip().upper(), fanin))
    return inputs, outputs, gates


def ref_eval(ref, vectors, bindings=None):
    """Evaluate a parsed netlist on many vectors at once with Python ints.

    Bit j of every net's integer holds that net's value under ``vectors[j]``
    (a sequence of 0/1 per primary input). ``bindings`` maps CAMO gate names
    to truth-table values 0..15. Returns one tuple of output bits per vector.
    """
    inputs, outputs, gates = ref
    n = len(vectors)
    full = (1 << n) - 1
    val = {}
    for i, name in enumerate(inputs):
        val[name] = sum(int(v[i]) << j for j, v in enumerate(vectors))
    for name, kind, (fa, fb) in gates:
        a, b = val[fa], val[fb]
        bits = bindings[name] if kind == "CAMO" else KIND_BITS[kind]
        out = 0
        # Minterm m = 2*A + B selects bit (3 - m) of the truth table.
        if bits & 8:
            out |= ~a & ~b
        if bits & 4:
            out |= ~a & b
        if bits & 2:
            out |= a & ~b
        if bits & 1:
            out |= a & b
        val[name] = out & full
    return [tuple((val[o] >> j) & 1 for o in outputs) for j in range(n)]
