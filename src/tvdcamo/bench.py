"""Combinational gate-level netlists in ISCAS .bench format.

Grammar (one statement per line, ``#`` starts a comment, blank lines ignored)::

    INPUT(a)
    OUTPUT(y)
    y = AND(a, b)

Gate kinds: AND, OR, NAND, NOR, XOR, XNOR (2+ inputs, XOR/XNOR n-ary parity),
NOT, BUF (1 input), plus the extension token CAMO(a, b) for a camouflaged
2-input instance whose function is supplied externally at evaluation time.
Net names are case-sensitive ``[A-Za-z0-9_]+``; CRLF input is tolerated.
"""

import operator
import re
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import (
    BenchParseError,
    CycleError,
    NetlistError,
    UnprogrammedGateError,
    UsageError,
)
from .gates import TruthTable2

GATE_KINDS = frozenset(
    {"AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "CAMO"}
)
UNARY_KINDS = frozenset({"NOT", "BUF"})

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([A-Za-z0-9_]+)\s*\)\s*$")
_GATE_RE = re.compile(
    r"^\s*([A-Za-z0-9_]+)\s*=\s*([A-Za-z0-9_]+)\s*\(\s*([^()]*?)\s*\)\s*$"
)
# A gate line whose net names are all valid, comment included: the parser's
# fast path. _GATE_RE takes any argument text so that a bad name is located.
_GATE_LINE_RE = re.compile(
    r"\s*([A-Za-z0-9_]+)\s*=\s*([A-Za-z0-9_]+)\s*"
    r"\(\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\s*\)\s*(?:#.*)?"
)
_find_names = re.compile(r"[A-Za-z0-9_]+").findall


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


@dataclass(frozen=True)
class Gate:
    """One gate: the net it drives, its kind, and its ordered fan-in nets."""

    name: str
    kind: str
    fanin: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "fanin", tuple(self.fanin))
        if not _NAME_RE.match(self.name):
            raise NetlistError(f"invalid net name {self.name!r}")
        if self.kind not in GATE_KINDS:
            raise NetlistError(f"unknown gate kind {self.kind!r}")
        problem = _check_arity(self.kind, len(self.fanin))
        if problem:
            raise NetlistError(f"gate {self.name!r}: {problem}")
        for f in self.fanin:
            if not _NAME_RE.match(f):
                raise NetlistError(f"gate {self.name!r}: invalid net name {f!r}")

    @classmethod
    def _unchecked(cls, name: str, kind: str, fanin: tuple[str, ...]) -> "Gate":
        """A gate whose name, kind, arity and fan-in names are already checked."""
        gate = object.__new__(cls)
        object.__setattr__(gate, "name", name)
        object.__setattr__(gate, "kind", kind)
        object.__setattr__(gate, "fanin", fanin)
        return gate


class Netlist:
    """An immutable combinational netlist with single-driver nets.

    Construction validates the structural invariants (every net has exactly
    one driver, every fan-in is defined, the gate graph is acyclic) and
    caches a topological gate order for evaluation.
    """

    def __init__(self, inputs, outputs, gates):
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.outputs: tuple[str, ...] = tuple(outputs)
        self.gates: tuple[Gate, ...] = tuple(gates)
        self._validate()

    @classmethod
    def _from_checked(cls, inputs, outputs, gates) -> "Netlist":
        """A netlist of nets known to be valid, single-driven and defined:
        builds only the gate map and the topological order, cycle-checked."""
        self = cls.__new__(cls)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.gates = tuple(gates)
        self.gate_map = {g.name: g for g in self.gates}
        self.topo_gates = self._topo_sort()
        return self

    def _validate(self):
        drivers: set[str] = set()
        for name in self.inputs:
            if not _NAME_RE.match(name):
                raise NetlistError(f"invalid net name {name!r}")
            if name in drivers:
                raise NetlistError(f"net {name!r} has multiple drivers")
            drivers.add(name)
        self.gate_map: dict[str, Gate] = {}
        for g in self.gates:
            if g.name in drivers:
                raise NetlistError(f"net {g.name!r} has multiple drivers")
            drivers.add(g.name)
            self.gate_map[g.name] = g
        for g in self.gates:
            for f in g.fanin:
                if f not in drivers:
                    raise NetlistError(f"undefined net {f!r} in gate {g.name!r}")
        seen_out: set[str] = set()
        for o in self.outputs:
            if o not in drivers:
                raise NetlistError(f"undefined net {o!r} in outputs")
            if o in seen_out:
                raise NetlistError(f"output {o!r} listed twice")
            seen_out.add(o)
        self.topo_gates: tuple[Gate, ...] = self._topo_sort()

    def _topo_sort(self) -> tuple[Gate, ...]:
        # Kahn's algorithm over gate-to-gate dependencies, by position in
        # self.gates; leftovers form a cycle.
        gates = self.gates
        position = {g.name: k for k, g in enumerate(gates)}
        indeg = [0] * len(gates)
        users: list[list[int]] = [[] for _ in gates]
        for k, g in enumerate(gates):
            for f in g.fanin:
                j = position.get(f)
                if j is not None:
                    indeg[k] += 1
                    users[j].append(k)
        ready = [k for k, d in enumerate(indeg) if d == 0]
        order: list[Gate] = []
        while ready:
            k = ready.pop()
            order.append(gates[k])
            for u in users[k]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if len(order) != len(gates):
            raise CycleError([g.name for g, d in zip(gates, indeg) if d > 0])
        return tuple(order)

    @property
    def camo_gates(self) -> tuple[str, ...]:
        """Names of camouflaged instances, in file order."""
        return tuple(g.name for g in self.gates if g.kind == "CAMO")

    def __eq__(self, other):
        if not isinstance(other, Netlist):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.gates == other.gates
        )

    def __repr__(self):
        return (
            f"Netlist({len(self.inputs)} inputs, {len(self.outputs)} outputs, "
            f"{len(self.gates)} gates)"
        )


def _fanin_columns(line: str) -> list[int]:
    """The 1-based column of each comma-separated fan-in token of a gate line."""
    gate_m = _GATE_RE.match(line.split("#", 1)[0])
    base = gate_m.start(3)
    cols = []
    pos = 0
    for tok in gate_m.group(3).split(","):
        stripped = tok.strip()
        cols.append(base + pos + (tok.index(stripped) if stripped else 0) + 1)
        pos += len(tok) + 1
    return cols


def _parse_statement(raw, lineno, inputs, outputs, gates, driver_lines, output_lines):
    """Parse one line the fast path did not take, locating any error in it."""
    line = raw.split("#", 1)[0]
    if not line.strip():
        return
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
        return
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
        fanin = [tok.strip() for tok in args.split(",")]
        for net, col in zip(fanin, _fanin_columns(line)):
            if not _NAME_RE.match(net):
                raise BenchParseError(f"invalid net name {net!r}", lineno, col)
        problem = _check_arity(kind, len(fanin))
        if problem:
            raise BenchParseError(problem, lineno, gate_m.start(2) + 1)
        driver_lines[name] = lineno
        gates.append(Gate._unchecked(name, kind, tuple(fanin)))
        return
    col = len(line) - len(line.lstrip()) + 1
    raise BenchParseError(f"unrecognized statement {line.strip()!r}", lineno, col)


def parse_bench(text: str) -> Netlist:
    """Parse .bench source into a Netlist, or raise a located BenchParseError.

    A well-formed gate line is checked once, by ``_GATE_LINE_RE`` and the
    kind, driver and arity tests; every other line, and a gate line failing
    one of those tests, goes through ``_parse_statement``, which locates the
    error. Columns of undefined fan-in nets are worked out only on error.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    driver_lines: dict[str, int] = {}  # net -> line of its INPUT or gate
    output_lines: dict[str, int] = {}
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        gate_m = _GATE_LINE_RE.fullmatch(raw)
        if gate_m:
            name, kind_tok, args = gate_m.groups()
            kind = kind_tok.upper()
            fanin = tuple(_find_names(args))
            if (
                kind in GATE_KINDS
                and name not in driver_lines
                and _check_arity(kind, len(fanin)) is None
            ):
                driver_lines[name] = lineno
                gates.append(Gate._unchecked(name, kind, fanin))
                continue
        _parse_statement(
            raw, lineno, inputs, outputs, gates, driver_lines, output_lines
        )

    for g in gates:
        for k, net in enumerate(g.fanin):
            if net not in driver_lines:
                lineno = driver_lines[g.name]
                col = _fanin_columns(lines[lineno - 1])[k]
                raise BenchParseError(f"undefined net {net!r}", lineno, col)
    for name in outputs:
        if name not in driver_lines:
            raise BenchParseError(f"undefined net {name!r}", output_lines[name])

    try:
        return Netlist._from_checked(inputs, outputs, gates)
    except CycleError as exc:
        first = min(exc.cycle, key=driver_lines.__getitem__)
        raise BenchParseError(str(exc), driver_lines[first]) from exc


def serialize_bench(n: Netlist) -> str:
    """Serialize a Netlist to .bench text.

    The output round-trips: parsing it yields a structurally equal Netlist.
    CAMO instances keep the CAMO token, so the text never encodes their
    function.
    """
    lines = ["# tvdcamo netlist"]
    lines.extend(f"INPUT({name})" for name in n.inputs)
    lines.extend(f"OUTPUT({name})" for name in n.outputs)
    lines.extend(
        f"{g.name} = {g.kind}({', '.join(g.fanin)})" for g in n.gates
    )
    return "\n".join(lines) + "\n"


# The word engine. Vectors are bit-packed 64 to a word: vector k sits at bit
# k % 64 of word k // 64. It uses only & | ^ ~, so one gate pass serves numpy
# uint64 word arrays, numpy uint64 scalars and Python ints alike; ~ sets the
# bits past the last vector, so callers mask those off at the end.
WORD_BITS = 64
ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
ZERO = np.uint64(0)

_REDUCERS = {
    "AND": operator.and_,
    "NAND": operator.and_,
    "OR": operator.or_,
    "NOR": operator.or_,
    "XOR": operator.xor,
    "XNOR": operator.xor,
}
_NEGATED = frozenset({"NAND", "NOR", "XNOR"})


def _camo_word(gate: Gate, a, b, bindings):
    """A CAMO gate as the minterm mux: mask m holds, in each lane, the output
    bit for minterm m = 2*A + B. A ``TruthTable2`` binding becomes constant
    masks of the type of ``a``."""
    if bindings is None or gate.name not in bindings:
        raise UnprogrammedGateError(
            f"unprogrammed camouflaged gate {gate.name!r}"
        )
    bound = bindings[gate.name]
    if isinstance(bound, tuple):
        m0, m1, m2, m3 = bound
    else:
        # Bit (3 - m) of the function is its output for minterm m. Written
        # out, not looped: this runs once per CAMO gate per eval_logic call.
        bits = int(TruthTable2(bound))
        pick = (a & ~a, a | ~a)
        m0, m1 = pick[bits >> 3], pick[bits >> 2 & 1]
        m2, m3 = pick[bits >> 1 & 1], pick[bits & 1]
    na, nb = ~a, ~b
    return (na & nb & m0) | (na & b & m1) | (a & nb & m2) | (a & b & m3)


def eval_words(n: Netlist, input_words, bindings=None) -> list:
    """Evaluate bit-packed input words in one topological pass.

    ``input_words`` holds one word (or word array) per primary input, in
    input order; returns one per primary output, in output order. A CAMO
    binding is a ``TruthTable2`` for every vector, or a tuple of four masks
    (M0, M1, M2, M3) whose bits give each vector's output for minterms
    0..3. Bits past the last vector are left unspecified.
    """
    values = dict(zip(n.inputs, input_words))
    _eval_gates(n.topo_gates, values, bindings)
    return [values[o] for o in n.outputs]


def _eval_gates(gates, values: dict, bindings) -> None:
    """Evaluate ``gates``, given in topological order, into ``values``.

    ``values`` maps every net the gates read and that none of them drives to
    its word; each gate's word is added under its name. Names are the value
    keys: net names, or node numbers for the gates the verify miter copies.
    """
    for gate in gates:
        fan = [values[f] for f in gate.fanin]
        kind = gate.kind
        if kind == "BUF":
            out = fan[0]
        elif kind == "NOT":
            out = ~fan[0]
        elif kind == "CAMO":
            out = _camo_word(gate, fan[0], fan[1], bindings)
        else:
            out = reduce(_REDUCERS[kind], fan)
            if kind in _NEGATED:
                out = ~out
        values[gate.name] = out


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into uint64 words, low bit first."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")
    n_bytes = packed.shape[-1]
    padded = np.zeros(packed.shape[:-1] + (-(-n_bytes // 8) * 8,), dtype=np.uint8)
    padded[..., :n_bytes] = packed
    return padded.view("<u8").astype(np.uint64, copy=False)


def unpack_words(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of a word array, as booleans."""
    raw = np.asarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").astype(bool)


# Bit k < 6 of a vector index is a fixed pattern inside every word.
_LOW_INDEX_BITS = tuple(
    np.uint64(sum(1 << p for p in range(WORD_BITS) if p >> k & 1))
    for k in range(6)
)


def index_bit_words(k: int, start_word: int, n_words: int) -> np.ndarray:
    """Words whose bit for vector index i is bit k of i.

    Covers indices from ``start_word * 64`` on: 0xAAAA..., 0xCCCC...,
    0xF0F0... for k = 0, 1, 2 and so on, and all-0 or all-1 words for k >= 6.
    """
    if k < 6:
        return np.full(n_words, _LOW_INDEX_BITS[k], dtype=np.uint64)
    word = np.arange(start_word, start_word + n_words, dtype=np.uint64)
    return np.where((word >> np.uint64(k - 6)) & np.uint64(1), ALL_ONES, ZERO)


def exhaustive_input_words(n_inputs: int, start_word: int, n_words: int) -> list:
    """Input words for every vector index from ``start_word * 64`` on.

    Index bit (n-1-j) drives input j, so the first-listed input is the most
    significant bit of the index.
    """
    return [
        index_bit_words(n_inputs - 1 - j, start_word, n_words)
        for j in range(n_inputs)
    ]


def eval_vectors(n: Netlist, input_arrays: dict, bindings=None) -> list[np.ndarray]:
    """Evaluate many input vectors at once.

    ``input_arrays`` maps every primary input name to a same-length boolean
    array; returns one boolean array per primary output, in output order.
    This is the boolean wrapper over ``eval_words``, and takes its bindings.
    """
    missing = [name for name in n.inputs if name not in input_arrays]
    if missing:
        raise UsageError(f"missing value arrays for inputs {missing}")
    arrays = [np.asarray(input_arrays[name], dtype=bool) for name in n.inputs]
    widths = {a.shape for a in arrays}
    if len(widths) > 1 or any(len(shape) != 1 for shape in widths):
        raise UsageError("input value arrays must be 1-D and of equal length")
    width = len(arrays[0]) if arrays else 0
    words = [pack_words(a) for a in arrays]
    outs = eval_words(n, words, bindings)
    return [unpack_words(o, width) for o in outs]


def eval_logic(n: Netlist, inputs, bindings=None) -> tuple[int, ...]:
    """Evaluate one input vector (bits in primary-input order)."""
    vec = list(inputs)
    if len(vec) != len(n.inputs):
        raise UsageError(
            f"expected {len(n.inputs)} input bits, got {len(vec)}"
        )
    for bit in vec:
        if bit not in (0, 1, False, True):
            raise UsageError(f"input bits must be 0/1, got {bit!r}")
    outs = eval_words(n, [int(bit) for bit in vec], bindings)
    return tuple(int(o) & 1 for o in outs)


# Most cells a random vector source may draw, one uint8 per input per vector:
# 2**28 cells (10**7 vectors of 26 inputs) are a 256 MiB matrix. Drawing and
# packing 2**25 cells raised peak RSS by 46 MB.
_MAX_RANDOM_CELLS = 2**28


def _input_vectors(names: tuple[str, ...], mode: str, count, seed):
    """``(total, words, vector)``: the vectors of verify or the oracle attack.

    "exhaustive" mode is every vector in index order, index bit n-1-j on
    input j; "random" is the ``count`` rows of one ``default_rng(seed)`` 0/1
    matrix, drawn on the first ``words`` or ``vector`` call, so a verify
    whose output pairs all merge draws nothing. ``words(start, n)`` holds
    words [start, start + n) per input, bits past ``total`` unspecified;
    ``vector(i)`` is vector i as a tuple.
    """
    n = len(names)
    if mode == "exhaustive":

        def words(start, n_words):
            return exhaustive_input_words(n, start, n_words)

        def vector(index):
            return tuple((index >> (n - 1 - j)) & 1 for j in range(n))

        return 1 << n, words, vector

    if count * n > _MAX_RANDOM_CELLS:
        raise UsageError(
            f"{count} random vectors of {n} inputs are {count * n} bits, "
            f"more than {_MAX_RANDOM_CELLS}"
        )

    @cache
    def packed():
        matrix = np.random.default_rng(seed).integers(0, 2, size=(count, n), dtype=np.uint8)
        return pack_words(matrix.T.view(bool))

    def words(start, n_words):
        return list(packed()[:, start : start + n_words])

    def vector(index):
        word, bit = divmod(index, WORD_BITS)
        return tuple(w >> bit & 1 for w in packed()[:, word].tolist())

    return count, words, vector
