"""The obfuscation compiler: swap selected gates for camouflaged instances.

The rewritten netlist carries only the CAMO token for each selected gate; the
function lives exclusively in the companion CamoConfig (the defender's
secret), together with the pH pair that programs it.
"""

import json
import math
import random
from dataclasses import asdict, dataclass, fields
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from operator import ne
from typing import Mapping, NamedTuple

import numpy as np

from .bench import (
    _FOLD_OPS,
    _KIND_OPS,
    UNARY_KINDS,
    WORD_BITS,
    Netlist,
    _bound_op,
    _eval_gates,
    _input_vectors,
    _is_count,
    _slot_program,
    eval_vectors,  # noqa: F401  (perfbench/test_perfbench.py reads camo.eval_vectors)
)
from .device import _NUMBER_TYPES, IsfetParams, _check_ph, _number
from .errors import (
    CoverageError,
    DomainError,
    NotCamouflageableError,
    SignatureMismatchError,
    UsageError,
    _shown,
)
from .gates import (
    _ASSIGNMENTS,
    BranchAssignment,
    GatePhProgram,
    TruthTable2,
    assignment_for,
    evaluate_static,
)

# Gate kinds the 2-input camouflaged cell can stand in for, and the reverse
# mapping used when a config is folded back into a plain netlist.
KIND_TO_FUNCTION = {
    kind: TruthTable2(op) for kind, op in _KIND_OPS.items() if kind not in UNARY_KINDS
}
FUNCTION_TO_KIND = {f: k for k, f in KIND_TO_FUNCTION.items()}

EXHAUSTIVE_INPUT_LIMIT = 24
# Words per evaluation pass: 2048 words are 131072 vectors, 16 KiB per net
# (32 MiB for a 2000-gate netlist). On Python ints, an exhaustive verify of
# 20 inputs x 2000 gates whose outputs do not merge took 400-550 ms at 2048
# words and 440-600 ms at 1024, against 629 ms at 512 and 815 ms (485 MB
# peak) at 16384 (best CPU time of three, 2-vCPU Xeon).
_CHUNK_WORDS = 2048


def _check_ph_pair(ph_low: float, ph_high: float, where: str) -> None:
    """DomainError unless ph_low < ph_high inside [0, 14]; UsageError for a non-number."""
    if not _number("ph_low", ph_low) < _number("ph_high", ph_high):
        raise DomainError(
            f"{where}: ph_low ({_shown(ph_low)}) must be below ph_high ({_shown(ph_high)})"
        )
    _check_ph(ph_low)
    _check_ph(ph_high)


@dataclass(frozen=True)
class CamoGateSpec:
    """Secret programming record for one camouflaged instance."""

    name: str
    function: TruthTable2
    assignment: BranchAssignment
    ph_low: float
    ph_high: float

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DomainError(f"gate name must be a string, got {self.name!r}")
        _check_ph_pair(self.ph_low, self.ph_high, f"gate {self.name!r}")
        if self.assignment != assignment_for(self.function):
            raise DomainError(
                f"gate {self.name!r}: assignment does not realize "
                f"{self.function.name}"
            )

    @classmethod
    def _unchecked(cls, name, function, assignment, ph_low, ph_high) -> "CamoGateSpec":
        """A spec whose assignment is its function's and whose pH pair is
        already checked."""
        spec = object.__new__(cls)
        spec.__dict__.update(
            name=name, function=function, assignment=assignment, ph_low=ph_low, ph_high=ph_high
        )
        return spec


@dataclass(frozen=True)
class CamoConfig:
    """The full secret: device calibration plus per-gate programming."""

    params: IsfetParams
    gates: tuple[CamoGateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        names = [g.name for g in self.gates]
        if len(names) != len(set(names)):
            raise DomainError("duplicate gate entries in camouflage config")

    def bindings(self) -> dict[str, TruthTable2]:
        return {g.name: g.function for g in self.gates}

    def to_json(self) -> str:
        """The config as ``json.dumps(doc, indent=2, sort_keys=True)`` and a
        newline, byte for byte, written from a fixed per-gate template.

        ``doc`` holds ``params`` (the ``IsfetParams`` fields) and ``gates``,
        one object per spec: ``name``, ``function_name``, ``function_bits``,
        ``assignment`` (the four flags), ``ph_low`` and ``ph_high``. The
        text of an entry up to its name is its function's row of
        ``_FUNCTION_ROWS``.
        """
        params = ",\n".join(
            f"    {_json_leaf(key, 2)}: {_json_leaf(value, 2)}"
            for key, value in sorted(asdict(self.params).items())
        )
        gates = ",\n".join(
            f"{_FUNCTION_ROWS[g.function].head}{_json_leaf(g.name, 3)},\n"
            f'      "ph_high": {_json_leaf(g.ph_high, 3)},\n'
            f'      "ph_low": {_json_leaf(g.ph_low, 3)}\n    }}'
            for g in self.gates
        )
        gates = f"[\n{gates}\n  ]" if gates else "[]"
        return f'{{\n  "gates": {gates},\n  "params": {{\n{params}\n  }}\n}}\n'

    @classmethod
    def from_json(cls, text: str) -> "CamoConfig":
        """The config that ``to_json`` wrote, or DomainError. Each
        ``params`` value must be an int or a float.

        An entry whose ``(function_bits, function_name, assignment)`` is a
        row of ``_FUNCTION_ROWS``, whose name is a string and whose pH
        values are ints or floats takes that row's function and assignment,
        and each distinct pH pair (by value) is checked once. Any other
        entry is decoded key by key (``_decode_gate``), which raises what it
        finds first.
        """
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too many digits or too deep
            raise DomainError(f"malformed camouflage config: {exc}") from exc
        try:
            odd = set(doc["params"]) ^ {f.name for f in fields(IsfetParams)}
            if odd:
                raise DomainError(
                    f"camouflage config params: missing or unknown keys {sorted(odd)}"
                )
            try:
                params = IsfetParams(**doc["params"])
            except UsageError as exc:
                raise DomainError(f"camouflage config params: {exc}") from exc
            gates = []
            checked = set()  # the pH pairs that passed
            for entry in doc["gates"]:
                try:
                    row = _ENTRY_ROWS[
                        entry["function_bits"], entry["function_name"], tuple(entry["assignment"])
                    ]
                    name, ph_low, ph_high = entry["name"], entry["ph_low"], entry["ph_high"]
                except (KeyError, TypeError):
                    row = None
                # A bool or float function_bits finds its value's row and a bool
                # pH its int's checked pair: the key-by-key path rejects them.
                if (
                    row is None
                    or entry["function_bits"].__class__ is not int
                    or name.__class__ is not str
                    or ph_low.__class__ not in _NUMBER_TYPES
                    or ph_high.__class__ not in _NUMBER_TYPES
                ):
                    gates.append(_decode_gate(entry))
                    continue
                if (ph_low, ph_high) not in checked:
                    _check_ph_pair(ph_low, ph_high, f"gate {name!r}")
                    checked.add((ph_low, ph_high))
                gates.append(
                    CamoGateSpec._unchecked(name, row.function, row.assignment, ph_low, ph_high)
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed camouflage config: {exc}") from exc
        return cls(params=params, gates=tuple(gates))


def _decode_gate(entry) -> CamoGateSpec:
    """One ``gates`` entry of a config document, read key by key."""
    bits = entry["function_bits"]
    if bits.__class__ is not int:
        raise DomainError(
            f"gate {entry['name']!r}: function_bits must be an int, got {bits!r}"
        )
    function = TruthTable2(bits)
    if function.name != entry["function_name"]:
        raise DomainError(
            f"gate {entry['name']!r}: function_name "
            f"{entry['function_name']!r} does not match bits {bits}"
        )
    name = entry["name"]
    if name.__class__ is not str:
        raise DomainError(f"gate name must be a string, got {name!r}")
    assignment = BranchAssignment(tuple(entry["assignment"]))
    try:
        return CamoGateSpec(name, function, assignment, entry["ph_low"], entry["ph_high"])
    except UsageError as exc:  # a pH that is no number
        raise DomainError(f"gate {name!r}: {exc}") from exc


def _json_leaf(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at
    ``depth`` levels of indent. Strings, finite floats and ints are written
    directly; any other type goes through the ``json`` encoder."""
    cls = value.__class__
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is float and math.isfinite(value):
        return float.__repr__(value)
    if cls is int:
        return int.__repr__(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


class _FunctionRow(NamedTuple):
    function: TruthTable2
    assignment: BranchAssignment  # the one in gates._ASSIGNMENTS
    head: str  # a config entry's text up to its name's value


# An entry of the config's "gates" list as json.dumps(indent=2,
# sort_keys=True) writes it, up to its name: the four assignment flags,
# function_bits, function_name, then the "name" key. ph_high and ph_low
# follow the name.
_GATE_HEAD = """\
    {{
      "assignment": [
        {},
        {},
        {},
        {}
      ],
      "function_bits": {},
      "function_name": {},
      "name": """

# One row per function, indexed by truth-table value.
_FUNCTION_ROWS = tuple(
    _FunctionRow(f, a, _GATE_HEAD.format(
        *map(json.dumps, a.lvt_on_out_side), int(f), _json_leaf(f.name, 3)
    ))
    for f, a in zip(TruthTable2, _ASSIGNMENTS)
)
# Each row under the (function_bits, function_name, assignment) that
# json.loads reads from its entry.
_ENTRY_ROWS = {
    (int(row.function), row.function.name, row.assignment.lvt_on_out_side): row
    for row in _FUNCTION_ROWS
}


def _eligible(kind: str, n_fanin: int) -> str | None:
    """Why a gate of this kind and fan-in count cannot be camouflaged, or None."""
    if n_fanin == 2 and kind in KIND_TO_FUNCTION:
        return None
    if kind not in KIND_TO_FUNCTION:
        return f"kind {kind} has no camouflaged equivalent"
    return f"has {n_fanin} inputs (camouflaged cell is 2-input)"


def camouflage(
    n: Netlist,
    gates: list[str] | None = None,
    fraction: float | None = None,
    seed: int | None = None,
    ph_low: float = 2.0,
    ph_high: float = 10.0,
    params: IsfetParams | None = None,
) -> tuple[Netlist, CamoConfig]:
    """Replace selected 2-input gates with camouflaged instances.

    Selection is either an explicit gate-name list or a fraction of the
    eligible gates chosen pseudo-randomly from ``seed`` (deterministic).
    Returns the rewritten netlist and the secret config that programs it
    back to the original function.
    """
    if params is None:
        params = IsfetParams()
    if (gates is None) == (fraction is None):
        raise UsageError("specify exactly one of gates= or fraction=")
    _check_ph_pair(ph_low, ph_high, "camouflage")
    # The pair programs every selected gate alike. UnresolvableGateError if its branches
    # draw equal current at full drive (as at zero sensitivity) or a non-finite one.
    program = GatePhProgram(ph_low, ph_high, assignment_for(TruthTable2.FALSE))
    evaluate_static(program, params, 0, 0)

    if "CAMO" in n._kinds:
        raise NotCamouflageableError(
            f"netlist already contains camouflaged gates: {list(n.camo_gates)}"
        )

    names, kinds, fanins = n._names, n._kinds, n._fanins
    if gates is not None:
        position = dict(zip(names, count()))
        selected: dict[str, int] = {}  # name -> file position
        for name in gates:
            if name in selected:
                raise UsageError(f"gate {name!r} selected twice")
            k = position.get(name)
            if k is None:
                raise UsageError(f"no gate named {name!r}")
            problem = _eligible(kinds[k], len(fanins[k]))
            if problem:
                raise NotCamouflageableError(
                    f"gate {name!r} not camouflageable: {problem}"
                )
            selected[name] = k
        chosen = selected.values()
    else:
        if not 0 <= _number("fraction", fraction) <= 1:
            raise UsageError(f"fraction must lie in [0, 1], got {_shown(fraction)}")
        eligible = [
            k for k, fanin in enumerate(fanins) if len(fanin) == 2 and kinds[k] in KIND_TO_FUNCTION
        ]
        rng = random.Random(seed)
        chosen = rng.sample(eligible, round(fraction * len(eligible)))

    new_kinds = list(kinds)
    specs = []
    for k in sorted(chosen):
        row = _FUNCTION_ROWS[_KIND_OPS[kinds[k]]]
        new_kinds[k] = "CAMO"
        specs.append(
            CamoGateSpec._unchecked(names[k], row.function, row.assignment, ph_low, ph_high)
        )
    # Same nets and fan-ins as the validated n: its slots and order serve.
    camo_netlist = Netlist._from_columns(
        n.inputs, n.outputs, names, tuple(new_kinds), fanins, like=n
    )
    return camo_netlist, CamoConfig(params=params, gates=tuple(specs))


def decamouflage(camo: Netlist, cfg: CamoConfig) -> Netlist:
    """Fold a config back into the netlist, restoring concrete gate kinds."""
    instance_names = set(camo.camo_gates)
    config_names = {g.name for g in cfg.gates}
    missing = sorted(instance_names - config_names)
    if missing:
        raise CoverageError(
            f"config missing entries for camouflaged gates: {missing}"
        )
    extra = sorted(config_names - instance_names)
    if extra:
        raise CoverageError(
            f"config entries with no camouflaged instance: {extra}"
        )
    return reconstruct(camo, cfg.bindings())


def reconstruct(camo: Netlist, resolution: Mapping[str, TruthTable2 | None]) -> Netlist:
    """Rebuild a netlist from resolved functions; unresolved gates stay CAMO."""
    kinds = list(camo._kinds)
    for k in compress(count(), map("CAMO".__eq__, camo._kinds)):
        name = camo._names[k]
        if resolution.get(name) is None:
            continue
        f = TruthTable2(_bound_op(name, resolution))
        kind = FUNCTION_TO_KIND.get(f)
        if kind is None:
            raise DomainError(
                f"gate {name!r}: function {f.name} has no concrete gate kind"
            )
        kinds[k] = kind
    return Netlist._from_columns(
        camo.inputs, camo.outputs, camo._names, tuple(kinds), camo._fanins, like=camo
    )


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check between two netlists."""

    equivalent: bool
    mode: str
    vectors_checked: int
    vectors_total: int
    counterexample: tuple[int, ...] | None = None
    outputs_a: tuple[int, ...] | None = None
    outputs_b: tuple[int, ...] | None = None


# Two-input functions with f(a, b) == f(b, a): minterms 1 and 2 agree.
_SYMMETRIC = frozenset(f for f in TruthTable2 if f.minterm(1) == f.minterm(2))
_A, _B = int(TruthTable2.A), int(TruthTable2.B)


def _miter(a: Netlist, ops_a, b: Netlist, ops_b):
    """One slot program for ``a`` and ``b``, their shared nodes computed once.

    The miter of a pair whose slots differ, such as a rewrite or an
    unrelated netlist; a pair that shares its slots takes ``_slot_miter``.
    Structural hashing over the gates of ``a``, then ``b``, each in its
    ``_order`` under its bound op column, so the program holds word ops
    only. Inputs are nodes 0..n-1, and a gate's node is keyed by its op and
    fan-in nodes, sorted when the op is symmetric. An A or B op (BUF, or a
    CAMO gate bound to A or B) aliases its input. An n-ary gate folds its
    fan-in nodes in sorted order, so AND(x, y, z) and AND(z, x, y) share a
    node.

    Returns ``(program, outs_a, outs_b)``: one entry per node (entry j
    writes node n + j) and each output's node. Equal nodes mean a merged
    pair.
    """
    n_in = len(a.inputs)
    hashed: dict = {}
    program: list = []

    def node_for(op, x, y):
        key = (op, y, x) if x > y and op in _SYMMETRIC else (op, x, y)
        node = hashed.get(key)
        if node is None:
            node = hashed[key] = n_in + len(program)
            program.append((op, node, x, y))
        return node

    outs = []
    for net, ops in ((a, ops_a), (b, ops_b)):
        fanin, node_of = net._fanin, list(range(n_in + len(ops)))  # slot -> node
        for k in net._order:
            op, fan = ops[k], [node_of[s] for s in fanin[k]]
            if op == _A or op == _B:
                node_of[n_in + k] = fan[0] if op == _A else fan[-1]
                continue
            if len(fan) > 2:
                fan.sort()
            x = fan[0]
            for y in fan[1:-1]:
                x = node_for(_FOLD_OPS[op], x, y)
            node_of[n_in + k] = node_for(op, x, fan[-1])
        outs.append([node_of[s] for s in net._out_slots])
    return program, outs[0], outs[1]


def _bound_ops(net: Netlist, bindings) -> list:
    """``net``'s op column with each CAMO gate bound, in program order, so
    the first unbound or malformed binding raises as evaluating it would."""
    ops = list(net._ops)
    for k in net._camo_order:
        ops[k] = _bound_op(ops[k], bindings)
    return ops


def _slot_miter(net: Netlist, ops_a, ops_b, out_slots_b):
    """The miter of ``net`` under two op columns, paired slot by slot: a
    takes ``ops_a`` and ``net``'s outputs, b ``ops_b`` and ``out_slots_b``.

    b's gate k reads a's fan-in slots, so where its op equals a's and no
    gate upstream differs it computes a's slot k. Every other gate of b,
    a differing op and its fan-out cone, gets entries of its own. The
    program is net's slot program under ``ops_a``, then those gates of b
    on fresh nodes in program order, an n-ary gate folding through nodes
    of its own by its own op's fold op. When every output pair shares a
    slot, the program is empty and none is compiled.

    Returns what ``_miter`` returns.
    """
    n_in = len(net.inputs)
    order, fanin = net._order, net._fanin
    cone = []  # b's gates downstream of a differing op, in program order
    dirty = set()  # their slots
    if ops_a != ops_b:
        differs = set(compress(count(), map(ne, ops_a, ops_b)))
        # In file order (a range), no gate before the first differing one
        # reads it.
        start = min(differs) if order.__class__ is range else 0
        for k in order[start:]:
            if k in differs or not dirty.isdisjoint(fanin[k]):
                cone.append(k)
                dirty.add(n_in + k)
    outs_a = list(net._out_slots)
    if net._out_slots == out_slots_b and dirty.isdisjoint(outs_a):
        return [], outs_a, outs_a
    program = _slot_program(net, ops_a)
    node = {}  # slot of a gate in the cone -> its node
    for k in cone:
        op = ops_b[k]
        fan = [node.get(s, s) for s in fanin[k]]
        x = fan[0]
        for y in fan[1:-1]:
            fold = n_in + len(program)
            program.append((_FOLD_OPS[op], fold, x, y))
            x = fold
        out = node[n_in + k] = n_in + len(program)
        program.append((op, out, x, fan[-1]))
    return program, outs_a, [node.get(s, s) for s in out_slots_b]


def _int_words(words) -> int:
    """A uint64 word array as one Python int, word w at bits 64w and up."""
    return int.from_bytes(np.asarray(words, dtype="<u8").tobytes(), "little")


def _first_mismatch(miter, input_words, total: int):
    """The lowest vector index below ``total`` where a and b differ.

    ``miter`` is what ``_miter`` returns and ``input_words(start, count)``
    the input words of words [start, start+count). Each chunk runs the word
    ops on Python ints, all of its words in one int, with no bindings.
    Returns (index, outputs of a, outputs of b), or None if all agree.
    """
    program, outs_a, outs_b = miter
    pairs = [(i, j) for i, j in zip(outs_a, outs_b) if i != j]
    if not pairs:
        return None
    n_words = -(-total // WORD_BITS)
    for start in range(0, n_words, _CHUNK_WORDS):
        count = min(_CHUNK_WORDS, n_words - start)
        values = [_int_words(w) for w in input_words(start, count)]
        values += [None] * len(program)
        _eval_gates(program, values, None)
        diff = 0
        for i, j in pairs:
            diff |= values[i] ^ values[j]
        diff &= (1 << count * WORD_BITS) - 1
        if diff:
            bit = (diff & -diff).bit_length() - 1
            index = start * WORD_BITS + bit
            if index >= total:
                return None
            return (
                index,
                tuple(values[i] >> bit & 1 for i in outs_a),
                tuple(values[j] >> bit & 1 for j in outs_b),
            )
    return None


def verify_equivalence(
    a: Netlist,
    b: Netlist,
    bindings=None,
    mode: str = "exhaustive",
    n_vectors: int = 1024,
    seed: int = 0,
) -> EquivalenceResult:
    """Check functional equivalence of two netlists with shared I/O signature.

    ``bindings`` maps each CAMO instance of either netlist to the one
    ``TruthTable2`` its cell realises. Exhaustive mode enumerates every
    input vector and is sound and complete up to 24 inputs; random mode
    samples ``n_vectors`` vectors from ``seed`` and reports the first
    counterexample it finds, if any. Both evaluate one miter of a and b,
    built from their op columns with each CAMO gate bound, a's then b's in
    program order (``_bound_ops``). When b has a's slots (the same fan-in
    slots and program order, as a camouflaged copy has), the miter pairs
    them slot by slot (``_slot_miter``); any other pair is structurally
    hashed (``_miter``).
    Nothing is evaluated when every output pair shares its node;
    ``vectors_checked`` counts the vectors the answer covers.
    """
    if a.inputs != b.inputs or a.outputs != b.outputs:
        raise SignatureMismatchError(
            f"I/O signatures differ: {a.inputs}/{a.outputs} vs "
            f"{b.inputs}/{b.outputs}"
        )
    n_in = len(a.inputs)
    if mode == "exhaustive" and n_in > EXHAUSTIVE_INPUT_LIMIT:
        raise UsageError(
            f"exhaustive mode supports at most {EXHAUSTIVE_INPUT_LIMIT} "
            f"inputs, netlist has {n_in}"
        )
    if mode == "random" and not (_is_count(n_vectors) and n_vectors > 0):
        need = "positive" if n_vectors is None or _is_count(n_vectors) else "an int"
        raise UsageError(f"n_vectors must be {need}, got {_shown(n_vectors)}")
    if mode not in ("exhaustive", "random"):
        raise UsageError(f"unknown equivalence mode {mode!r}")
    total, input_words, vector = _input_vectors(a.inputs, mode, n_vectors, seed)
    ops_a, ops_b = _bound_ops(a, bindings), _bound_ops(b, bindings)
    if a._fanin == b._fanin and a._order == b._order:
        miter = _slot_miter(a, ops_a, ops_b, b._out_slots)
    else:
        miter = _miter(a, ops_a, b, ops_b)
    hit = _first_mismatch(miter, input_words, total)
    if hit is None:
        return EquivalenceResult(
            equivalent=True, mode=mode, vectors_checked=total, vectors_total=total
        )
    index, outputs_a, outputs_b = hit
    return EquivalenceResult(
        equivalent=False,
        mode=mode,
        vectors_checked=index + 1,
        vectors_total=total,
        counterexample=vector(index),
        outputs_a=outputs_a,
        outputs_b=outputs_b,
    )
