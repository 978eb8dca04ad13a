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

import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, compress, count, repeat
from operator import lt

import numpy as np

from .errors import (
    BenchParseError,
    CycleError,
    NetlistError,
    UnprogrammedGateError,
    UsageError,
    _shown,
)
from .gates import TruthTable2

GATE_KINDS = frozenset(
    {"AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "CAMO"}
)
UNARY_KINDS = frozenset({"NOT", "BUF"})

# Each gate kind's op, a TruthTable2 value (see _WORD_OPS); an n-ary gate
# reduces its leading fan-ins by its fold op and applies its own op last.
_KIND_OPS = {
    kind: int(TruthTable2[kind]) for kind in ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")
}
_KIND_OPS.update(NOT=int(TruthTable2.NOT_A), BUF=int(TruthTable2.A))
_FOLD_OPS = {
    int(g): int(f) for f in (TruthTable2.AND, TruthTable2.OR, TruthTable2.XOR)
    for g in (f, f.complement())
}

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([A-Za-z0-9_]+)\s*\)\s*$")
_GATE_RE = re.compile(
    r"^\s*([A-Za-z0-9_]+)\s*=\s*([A-Za-z0-9_]+)\s*\(\s*([^()]*?)\s*\)\s*$"
)
_find_names = re.compile(r"[A-Za-z0-9_]+").findall


def _line_shape(body: str):
    """findall over "\\n" + text of the lines of one shape: ``body`` with
    spaces and tabs around it, then an optional comment that holds no line
    break of ``str.splitlines``. Each match starts at its "\\n", so the
    scan jumps from line to line."""
    comment = "(?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)?"
    return re.compile(rf"\n[ \t]*{body}[ \t]*{comment}(?![^\n])").findall


_NAME = "[A-Za-z0-9_]+"
_INPUT_LINES = _line_shape(rf"INPUT[ \t]*\([ \t]*({_NAME})[ \t]*\)")
_OUTPUT_LINES = _line_shape(rf"OUTPUT[ \t]*\([ \t]*({_NAME})[ \t]*\)")
# Name, kind, the first two fan-ins and the text of any more.
_GATE_LINES = _line_shape(
    rf"({_NAME})[ \t]*=[ \t]*({_NAME})[ \t]*\([ \t]*({_NAME})[ \t]*"
    rf"(?:,[ \t]*({_NAME})[ \t]*((?:,[ \t]*{_NAME}[ \t]*)*))?\)"
)
_BLANK_LINES = _line_shape("")
# serialize_bench's 2-input gate lines: _GATE_LINES rows with no blank, comment or third fan-in.
_PAIR_LINES = re.compile(rf"\n({_NAME}) = ({_NAME})\(({_NAME}), ({_NAME})\)(?![^\n])").findall


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


@dataclass(frozen=True, slots=True)
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
    one driver, every fan-in is defined, the gate graph is acyclic). The
    gates are kept as three parallel columns in file order: ``_names``,
    ``_kinds`` and ``_fanins`` (fan-in name tuples); ``gates``, ``gate_map``
    and ``topo_gates`` are views built on first read. The netlist is
    compiled into integer slots, input i at slot i and file gate k at slot
    n + k for n inputs: ``_fanin`` holds each gate's fan-in slots,
    ``_ops`` each gate's op and ``_order`` the gate order of ``_program``,
    the slot program. That order is file order when every fan-in slot lies
    below its gate's slot, else Kahn's order.
    """

    def __init__(self, inputs, outputs, gates):
        gates = tuple(gates)
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.outputs: tuple[str, ...] = tuple(outputs)
        self._names = tuple(g.name for g in gates)
        self._kinds = tuple(g.kind for g in gates)
        self._fanins = tuple(g.fanin for g in gates)
        self.__dict__["gates"] = gates  # the view, as given
        self._link(self._validate())

    @classmethod
    def _from_columns(
        cls, inputs, outputs, names, kinds, fanins, like=None, pairs=None
    ) -> "Netlist":
        """A netlist of valid names, kinds and arities, given as columns.

        Without ``like``, a duplicate driver or output raises NetlistError,
        an undefined net KeyError and a cycle CycleError, none of them
        naming a net. ``like``, a netlist with the same nets and fan-ins in
        the same places, lends its slots and order unchecked. ``pairs``, when
        every gate has two fan-ins, is the first and the second fan-in
        column, which are then linked column by column.
        """
        self = cls.__new__(cls)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self._names, self._kinds, self._fanins = names, kinds, fanins
        if like is not None:
            self._fanin, self._order = like._fanin, like._order
            self._out_slots = like._out_slots
            return self
        slot = dict(zip(chain(self.inputs, names), count()))
        if len(slot) != len(self.inputs) + len(names):
            raise NetlistError("a net has multiple drivers")
        if len(set(self.outputs)) != len(self.outputs):
            raise NetlistError("an output is listed twice")
        self._link(slot, pairs)
        return self

    def _validate(self) -> dict[str, int]:
        """Each net's slot, once the structure checks pass."""
        slot: dict[str, int] = {}
        for name in self.inputs:
            if not _NAME_RE.match(name):
                raise NetlistError(f"invalid net name {name!r}")
            if name in slot:
                raise NetlistError(f"net {name!r} has multiple drivers")
            slot[name] = len(slot)
        for name in self._names:
            if name in slot:
                raise NetlistError(f"net {name!r} has multiple drivers")
            slot[name] = len(slot)
        for name, fanin in zip(self._names, self._fanins):
            for f in fanin:
                if f not in slot:
                    raise NetlistError(f"undefined net {f!r} in gate {name!r}")
        seen_out: set[str] = set()
        for o in self.outputs:
            if o not in slot:
                raise NetlistError(f"undefined net {o!r} in outputs")
            if o in seen_out:
                raise NetlistError(f"output {o!r} listed twice")
            seen_out.add(o)
        return slot

    def _link(self, slot: dict[str, int], pairs=None) -> None:
        """Slot fan-ins and outputs, then the program's gate order.

        ``pairs``, the first and second fan-in columns of a netlist whose
        every gate has two fan-ins, is linked column by column."""
        n, slot_of = len(self.inputs), slot.__getitem__
        # Gate k is slot n + k: file order is topological when each gate's
        # fan-in slots lie below its own.
        if pairs is None:
            self._fanin = tuple(map(tuple, map(map, repeat(slot_of), self._fanins)))
            topological = all(map(lt, map(max, self._fanin), count(n)))
        else:
            firsts, seconds = [list(map(slot_of, column)) for column in pairs]
            self._fanin = tuple(zip(firsts, seconds))
            topological = all(map(lt, firsts, count(n))) and all(map(lt, seconds, count(n)))
        self._out_slots = tuple(map(slot_of, self.outputs))
        self._order = range(len(self._fanin)) if topological else self._kahn_order

    @cached_property
    def _kahn_order(self) -> tuple[int, ...]:
        # Kahn's algorithm over gate-to-gate dependencies: gate k is slot
        # n + k, so only fan-in slots from n up count. Leftovers form a cycle.
        n, fanin = len(self.inputs), self._fanin
        indeg = [0] * len(fanin)
        users: list[list[int]] = [[] for _ in fanin]
        for k, slots in enumerate(fanin):
            for s in slots:
                if s >= n:
                    indeg[k] += 1
                    users[s - n].append(k)
        ready = [k for k, d in enumerate(indeg) if d == 0]
        order: list[int] = []
        while ready:
            k = ready.pop()
            order.append(k)
            for u in users[k]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if len(order) != len(fanin):
            raise CycleError([name for name, d in zip(self._names, indeg) if d > 0])
        return tuple(order)

    @cached_property
    def _ops(self) -> tuple:
        """Each gate's op in file order: its kind's ``TruthTable2`` value, or
        for a CAMO gate its name, bound at run time."""
        return tuple(map(_KIND_OPS.get, self._kinds, self._names))

    @cached_property
    def _camo_order(self) -> tuple[int, ...]:
        """The file positions of the CAMO gates, in program order."""
        camo = compress(count(), map("CAMO".__eq__, self._kinds))
        if self._order.__class__ is range:
            return tuple(camo)
        return tuple(compress(self._order, map(set(camo).__contains__, self._order)))

    @cached_property
    def _program(self) -> tuple:
        """The slot program of ``_ops``, compiled on first use (see
        ``_slot_program``). A CAMO entry's op is the gate's name."""
        return tuple(_slot_program(self, self._ops))

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in file order."""
        return tuple(map(Gate._unchecked, self._names, self._kinds, self._fanins))

    @cached_property
    def topo_gates(self) -> tuple[Gate, ...]:
        """The gates in Kahn's topological order."""
        return tuple(map(self.gates.__getitem__, self._kahn_order))

    @cached_property
    def gate_map(self) -> dict[str, Gate]:
        """Each gate under the name of the net it drives."""
        return dict(zip(self._names, self.gates))

    @property
    def camo_gates(self) -> tuple[str, ...]:
        """Names of camouflaged instances, in file order."""
        return tuple(compress(self._names, map("CAMO".__eq__, self._kinds)))

    def __eq__(self, other):
        if not isinstance(other, Netlist):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.outputs == other.outputs
            and self._names == other._names
            and self._kinds == other._kinds
            and self._fanins == other._fanins
        )

    def __repr__(self):
        return (
            f"Netlist({len(self.inputs)} inputs, {len(self.outputs)} outputs, "
            f"{len(self._names)} gates)"
        )


def _slot_program(net: Netlist, ops) -> list:
    """``net``'s slot program, gate k taking op ``ops[k]``.

    Entry ``(op, out, a, b)`` stores word function ``op`` of slots a and b
    in slot out. NOT and BUF read one slot twice. An n-ary gate folds left
    through scratch slots from n + len(gates) on, the tree of ``reduce``
    then the negation, so n + len(program) slots serve.
    """
    n, fanin = len(net.inputs), net._fanin
    program = []
    scratch = n + len(ops)
    for k in net._order:
        op = ops[k]
        slots = fanin[k]
        a = slots[0]
        if len(slots) > 2:
            for b in slots[1:-1]:
                program.append((_FOLD_OPS[op], scratch, a, b))
                a, scratch = scratch, scratch + 1
        program.append((op, n + k, a, slots[-1]))
    return program


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


def _parse_text(text: str) -> Netlist | None:
    """The netlist of well-formed text whose only line break is "\\n", from
    findall scans by line shape and no loop per gate; None for any other
    text, which ``_parse_lines`` then reads line by line."""
    text = "\n" + text
    inputs, outputs = _INPUT_LINES(text), _OUTPUT_LINES(text)
    n_gates = text.count("\n") - len(inputs) - len(outputs) - len(_BLANK_LINES(text))
    rows = _PAIR_LINES(text)
    if len(rows) != n_gates and len(rows := _GATE_LINES(text)) != n_gates:
        return None  # a line of no shape, or another line break
    names, kind_toks, firsts, seconds, *more = zip(*rows) if rows else ((),) * 4
    tokens = set(kind_toks)
    # Tokens that are all kinds already are the kind column as written.
    kinds = kind_toks if tokens <= GATE_KINDS else tuple(map(str.upper, kind_toks))
    if all(seconds) and not any(chain(*more)):  # every gate has two fan-ins
        pairs = firsts, seconds
        fanins = tuple(zip(firsts, seconds))
        shapes = {(token.upper(), 2) for token in tokens}
    else:
        pairs = None
        fanins = tuple(map(tuple, map(_find_names, map(" ".join, zip(firsts, seconds, *more)))))
        shapes = set(zip(kinds, map(len, fanins)))
    for kind, arity in shapes:
        if kind not in GATE_KINDS or _check_arity(kind, arity):
            return None
    try:
        return Netlist._from_columns(inputs, outputs, names, kinds, fanins, pairs=pairs)
    except (KeyError, NetlistError):  # an undefined net, a double or a cycle
        return None


def _parse_lines(text: str) -> Netlist:
    """Parse .bench source line by line, locating the first error."""
    inputs: list[str] = []
    outputs: list[str] = []
    names: list[str] = []
    kinds: list[str] = []
    fanins: list[tuple[str, ...]] = []
    driver_lines: dict[str, int] = {}  # net -> line of its INPUT or gate
    output_lines: dict[str, int] = {}
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
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
            fanin = tuple(tok.strip() for tok in args.split(","))
            for net, col in zip(fanin, _fanin_columns(line)):
                if not _NAME_RE.match(net):
                    raise BenchParseError(f"invalid net name {net!r}", lineno, col)
            problem = _check_arity(kind, len(fanin))
            if problem:
                raise BenchParseError(problem, lineno, gate_m.start(2) + 1)
            driver_lines[name] = lineno
            names.append(name)
            kinds.append(kind)
            fanins.append(fanin)
            continue
        col = len(line) - len(line.lstrip()) + 1
        raise BenchParseError(f"unrecognized statement {line.strip()!r}", lineno, col)

    try:
        return Netlist._from_columns(inputs, outputs, tuple(names), tuple(kinds), tuple(fanins))
    except KeyError:
        # An undefined net: the first fan-in, then the first output.
        for name, fanin in zip(names, fanins):
            for k, net in enumerate(fanin):
                if net not in driver_lines:
                    lineno = driver_lines[name]
                    col = _fanin_columns(lines[lineno - 1])[k]
                    raise BenchParseError(f"undefined net {net!r}", lineno, col) from None
        for name in outputs:
            if name not in driver_lines:
                raise BenchParseError(f"undefined net {name!r}", output_lines[name]) from None
        raise
    except CycleError as exc:
        first = min(exc.cycle, key=driver_lines.__getitem__)
        raise BenchParseError(str(exc), driver_lines[first]) from exc


def parse_bench(text: str) -> Netlist:
    """Parse .bench source into a Netlist, or raise a located BenchParseError.

    Well-formed text whose only line break is "\\n" takes ``_parse_text``:
    the strict gate-line scan for serialize_bench's spacing, else the general
    one, then kind and arity checks per distinct (kind, fan-in count) and
    nets through the slot map. Other text, and every file with an error,
    goes through ``_parse_lines``, which locates the first error.
    """
    netlist = _parse_text(text)
    return _parse_lines(text) if netlist is None else netlist


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
        f"{name} = {kind}({', '.join(fanin)})"
        for name, kind, fanin in zip(n._names, n._kinds, n._fanins)
    )
    return "\n".join(lines) + "\n"


# The word engine. Vectors are bit-packed 64 to a word: vector k sits at bit
# k % 64 of word k // 64. It uses only & | ^ ~, so one program runs on numpy
# uint64 word arrays, numpy uint64 scalars, Python ints (any number of words
# in one int) and the attack's three-valued rails alike; ~ sets the bits past
# the last vector, so callers mask those off at the end.
WORD_BITS = 64
ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
ZERO = np.uint64(0)

# The 16 two-input word functions, indexed by TruthTable2 value.
_WORD_OPS = (
    lambda a, b: a & ~a,  # FALSE
    lambda a, b: a & b,  # AND
    lambda a, b: a & ~b,  # A_AND_NOT_B
    lambda a, b: a,  # A
    lambda a, b: ~a & b,  # NOT_A_AND_B
    lambda a, b: b,  # B
    lambda a, b: a ^ b,  # XOR
    lambda a, b: a | b,  # OR
    lambda a, b: ~(a | b),  # NOR
    lambda a, b: ~(a ^ b),  # XNOR
    lambda a, b: ~b,  # NOT_B
    lambda a, b: a | ~b,  # A_OR_NOT_B
    lambda a, b: ~a,  # NOT_A
    lambda a, b: ~a | b,  # NOT_A_OR_B
    lambda a, b: ~(a & b),  # NAND
    lambda a, b: a | ~a,  # TRUE
)


def _bound_op(name: str, bindings) -> int:
    """The op of the one function that ``bindings`` binds CAMO gate ``name`` to:
    a ``TruthTable2``, or an int in 0..15 that is not a bool."""
    if bindings is None or name not in bindings:
        raise UnprogrammedGateError(f"unprogrammed camouflaged gate {name!r}")
    bound = bindings[name]
    if bound.__class__ is TruthTable2:
        return bound._value_
    if _is_count(bound) and 0 <= bound <= 15:
        return int(bound)
    value = "per-lane masks" if isinstance(bound, tuple) else _shown(bound)
    raise UsageError(f"gate {name!r} bound to {value}, not a TruthTable2")


def _camo_op(name: str, bindings):
    """A CAMO entry's word function; per-lane masks (attack lanes) run as a mux."""
    bound = bindings.get(name) if bindings is not None else None
    if not isinstance(bound, tuple):
        return _WORD_OPS[_bound_op(name, bindings)]
    m0, m1, m2, m3 = bound

    def mux(a, b):
        na, nb = ~a, ~b
        return (na & nb & m0) | (na & b & m1) | (a & nb & m2) | (a & b & m3)

    return mux


def _eval_gates(program, values: list, bindings) -> None:
    """Run a slot program on ``values``, a list of words indexed by slot.

    ``bindings`` maps each CAMO entry's name to a ``TruthTable2``, or to a
    tuple of four masks (M0, M1, M2, M3) of the words' type: mask m holds
    each lane's output bit for minterm m = 2*A + B.
    """
    for op, out, a, b in program:
        try:
            fn = _WORD_OPS[op]
        except TypeError:  # a CAMO entry: op is the gate's name
            fn = _camo_op(op, bindings)
        values[out] = fn(values[a], values[b])


def eval_words(n: Netlist, input_words, bindings=None) -> list:
    """Evaluate bit-packed input words in one topological pass.

    ``input_words`` holds one word (or word array) per primary input, in
    input order; returns one per primary output, in output order. A CAMO
    binding is a ``TruthTable2`` for every vector, or a tuple of four masks
    (M0, M1, M2, M3) whose bits give each vector's output for minterms
    0..3. Bits past the last vector are left unspecified.
    """
    values = list(input_words)
    if len(values) != len(n.inputs):
        raise UsageError(f"expected {len(n.inputs)} input words, got {len(values)}")
    values += [None] * len(n._program)
    _eval_gates(n._program, values, bindings)
    return [values[s] for s in n._out_slots]


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


# Bit k < 6 of a vector index is a fixed pattern inside every word; bit
# k >= 6 is bit k - 6 of the word index, all-0 or all-1 across the word. A
# shift of 63 clears any word index (indices are below 2**64), so row k of
# these two gives bit k either way.
_LOW_INDEX_BITS = np.array(
    [sum(1 << p for p in range(WORD_BITS) if p >> k & 1) for k in range(6)]
    + [0] * (WORD_BITS - 6),
    dtype=np.uint64,
)
_WORD_INDEX_SHIFTS = np.array([63] * 6 + list(range(WORD_BITS - 6)), dtype=np.uint64)


def index_bit_rows(bits, start_word: int, n_words: int) -> np.ndarray:
    """A (len(bits), n_words) array whose row r has, for vector index i, bit
    ``bits[r]`` of i.

    Covers indices from ``start_word * 64`` on: 0xAAAA..., 0xCCCC...,
    0xF0F0... for bits 0, 1, 2 and so on, and all-0 or all-1 words for
    bits 6 to 63.
    """
    bits = np.asarray(bits, dtype=np.intp)
    word = np.arange(start_word, start_word + n_words, dtype=np.uint64)
    rows = (word >> _WORD_INDEX_SHIFTS[bits, None]) & np.uint64(1)
    np.subtract(ZERO, rows, out=rows)
    rows |= _LOW_INDEX_BITS[bits, None]
    return rows


def exhaustive_input_words(n_inputs: int, start_word: int, n_words: int) -> list:
    """Input words for every vector index from ``start_word * 64`` on.

    Index bit (n-1-j) drives input j, so the first-listed input is the most
    significant bit of the index.
    """
    return list(index_bit_rows(range(n_inputs - 1, -1, -1), start_word, n_words))


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


def _is_count(value) -> bool:
    """Whether ``value`` is an int and not a bool, as a count, seed or binding must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def _input_vectors(names: tuple[str, ...], mode: str, count, seed):
    """``(total, words, vector)``: the vectors of verify or the oracle attack.

    "exhaustive" mode is every vector in index order, index bit n-1-j on
    input j; "random" is the ``count`` rows of one ``default_rng(seed)`` 0/1
    matrix, drawn on the first ``words`` or ``vector`` call, so a verify
    whose output pairs all merge draws nothing. Its ``seed`` is None (fresh
    entropy) or a non-negative int, checked before anything is drawn.
    ``words(start, n)`` holds words [start, start + n) per input, bits past
    ``total`` unspecified; ``vector(i)`` is vector i as a tuple.
    """
    n = len(names)
    if mode == "exhaustive":

        def words(start, n_words):
            return exhaustive_input_words(n, start, n_words)

        def vector(index):
            return tuple((index >> (n - 1 - j)) & 1 for j in range(n))

        return 1 << n, words, vector

    if seed is not None and not (_is_count(seed) and seed >= 0):
        raise UsageError(f"seed must be a non-negative int, got {_shown(seed)}")
    if count * n > _MAX_RANDOM_CELLS:
        raise UsageError(
            f"{_shown(count)} random vectors of {n} inputs are {_shown(count * n)} bits, "
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
