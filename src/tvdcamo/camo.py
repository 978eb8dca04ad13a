"""The obfuscation compiler: swap selected gates for camouflaged instances.

The rewritten netlist carries only the CAMO token for each selected gate; the
function lives exclusively in the companion CamoConfig (the defender's
secret), together with the pH pair that programs it.
"""

import json
import random
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bench import (
    WORD_BITS,
    Gate,
    Netlist,
    eval_vectors,  # noqa: F401  (kept importable as camo.eval_vectors)
    eval_words,
    exhaustive_input_words,
    input_vector_from_index,
    pack_words,
)
from .device import PH_MAX, PH_MIN, IsfetParams
from .errors import (
    CoverageError,
    DomainError,
    NotCamouflageableError,
    PhRangeError,
    SignatureMismatchError,
    UnprogrammedGateError,
    UsageError,
)
from .gates import BranchAssignment, GatePhProgram, TruthTable2, assignment_for

# Gate kinds the 2-input camouflaged cell can stand in for, and the reverse
# mapping used when a config is folded back into a plain netlist.
KIND_TO_FUNCTION = {
    "AND": TruthTable2.AND,
    "OR": TruthTable2.OR,
    "NAND": TruthTable2.NAND,
    "NOR": TruthTable2.NOR,
    "XOR": TruthTable2.XOR,
    "XNOR": TruthTable2.XNOR,
}
FUNCTION_TO_KIND = {f: k for k, f in KIND_TO_FUNCTION.items()}

EXHAUSTIVE_INPUT_LIMIT = 24
# Words per evaluation pass: 2048 words are 131072 vectors, 16 KiB per net
# (32 MiB for a 2000-gate netlist). Exhaustive verify of 20 inputs x 2000
# gates took 226 ms at 2048 words, against 294 ms at 1024 and 359 ms at 16384
# (best CPU time of five, 2-vCPU Xeon).
_CHUNK_WORDS = 2048


def _check_ph_pair(ph_low: float, ph_high: float, where: str) -> None:
    """DomainError unless ph_low < ph_high, both inside [0, 14]."""
    if not ph_low < ph_high:
        raise DomainError(
            f"{where}: ph_low ({ph_low!r}) must be below ph_high ({ph_high!r})"
        )
    for ph in (ph_low, ph_high):
        if not PH_MIN <= ph <= PH_MAX:
            raise PhRangeError(ph)


@dataclass(frozen=True)
class CamoGateSpec:
    """Secret programming record for one camouflaged instance."""

    name: str
    function: TruthTable2
    assignment: BranchAssignment
    ph_low: float
    ph_high: float

    def __post_init__(self):
        if self.assignment != assignment_for(self.function):
            raise DomainError(
                f"gate {self.name!r}: assignment does not realize "
                f"{self.function.name}"
            )
        _check_ph_pair(self.ph_low, self.ph_high, f"gate {self.name!r}")

    def program(self) -> GatePhProgram:
        return GatePhProgram(
            ph_low=self.ph_low, ph_high=self.ph_high, assignment=self.assignment
        )


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
        doc = {
            "params": asdict(self.params),
            "gates": [
                {
                    "name": g.name,
                    "function_name": g.function.name,
                    "function_bits": int(g.function),
                    "assignment": list(g.assignment.lvt_on_out_side),
                    "ph_low": g.ph_low,
                    "ph_high": g.ph_high,
                }
                for g in self.gates
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CamoConfig":
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
            try:
                params = IsfetParams(**doc["params"])
            except UsageError as exc:
                raise DomainError(f"camouflage config params: {exc}") from exc
            gates = []
            for entry in doc["gates"]:
                function = TruthTable2(entry["function_bits"])
                if function.name != entry["function_name"]:
                    raise DomainError(
                        f"gate {entry['name']!r}: function_name "
                        f"{entry['function_name']!r} does not match bits "
                        f"{entry['function_bits']}"
                    )
                gates.append(
                    CamoGateSpec(
                        name=entry["name"],
                        function=function,
                        assignment=BranchAssignment(tuple(entry["assignment"])),
                        ph_low=entry["ph_low"],
                        ph_high=entry["ph_high"],
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed camouflage config: {exc}") from exc
        return cls(params=params, gates=tuple(gates))


def _eligible(gate: Gate) -> str | None:
    """Why a gate cannot be camouflaged, or None if it can."""
    if gate.kind == "CAMO":
        return "already camouflaged"
    if gate.kind not in KIND_TO_FUNCTION:
        return f"kind {gate.kind} has no camouflaged equivalent"
    if len(gate.fanin) != 2:
        return f"has {len(gate.fanin)} inputs (camouflaged cell is 2-input)"
    return None


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

    existing = [g.name for g in n.gates if g.kind == "CAMO"]
    if existing:
        raise NotCamouflageableError(
            f"netlist already contains camouflaged gates: {existing}"
        )

    if gates is not None:
        selected = list(gates)
        seen = set()
        for name in selected:
            if name in seen:
                raise UsageError(f"gate {name!r} selected twice")
            seen.add(name)
            if name not in n.gate_map:
                raise UsageError(f"no gate named {name!r}")
            problem = _eligible(n.gate_map[name])
            if problem:
                raise NotCamouflageableError(
                    f"gate {name!r} not camouflageable: {problem}"
                )
        chosen = set(selected)
    else:
        if not 0 <= fraction <= 1:
            raise UsageError(f"fraction must lie in [0, 1], got {fraction!r}")
        eligible = [g.name for g in n.gates if _eligible(g) is None]
        count = round(fraction * len(eligible))
        rng = random.Random(seed)
        chosen = set(rng.sample(eligible, count))

    new_gates = []
    specs = []
    for g in n.gates:
        if g.name in chosen:
            new_gates.append(Gate(name=g.name, kind="CAMO", fanin=g.fanin))
            function = KIND_TO_FUNCTION[g.kind]
            specs.append(
                CamoGateSpec(
                    name=g.name,
                    function=function,
                    assignment=assignment_for(function),
                    ph_low=ph_low,
                    ph_high=ph_high,
                )
            )
        else:
            new_gates.append(g)
    # Same nets and fan-ins as the validated n: only the order is rebuilt.
    camo_netlist = Netlist._from_checked(n.inputs, n.outputs, new_gates)
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
    kind_for = {}
    for spec in cfg.gates:
        kind = FUNCTION_TO_KIND.get(spec.function)
        if kind is None:
            raise DomainError(
                f"gate {spec.name!r}: function {spec.function.name} has no "
                f"concrete gate kind"
            )
        kind_for[spec.name] = kind
    new_gates = [
        Gate(name=g.name, kind=kind_for[g.name], fanin=g.fanin)
        if g.kind == "CAMO"
        else g
        for g in camo.gates
    ]
    return Netlist(camo.inputs, camo.outputs, new_gates)


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


class _Miter:
    """Netlist ``a`` plus the gates of ``b`` that hash to no node of ``a``.

    Structural hashing: a node's key is its function and its fan-in nodes.
    A 2-input AND/OR/NAND/NOR/XOR/XNOR gate and a CAMO gate bound to the
    same ``TruthTable2`` share a key (fan-ins sorted when the function is
    symmetric), NOT and n-ary gates key on their kind and sorted fan-ins,
    and BUF aliases its input. A CAMO gate with per-lane masks is never
    merged. Gates are hashed in ``a``'s topological order, then ``b``'s, so
    the first unbound CAMO gate raises just as evaluating a, then b would.
    """

    def __init__(self, a: Netlist, b: Netlist, bindings):
        self._inputs = a.inputs
        self._bindings = bindings
        self._keys: dict = {}
        # node -> the miter net that carries it; inputs are nodes 0..n-1.
        self._nets: list[str] = list(a.inputs)
        self._taken = set(a.inputs) | a.gate_map.keys()
        self._gates = list(a.topo_gates)
        self._fresh_bindings: dict = {}
        self.outs_a = self._hash(a, copy=False)
        self.outs_b = self._hash(b, copy=True)
        self.merged = self.outs_a == self.outs_b

    def _hash(self, n: Netlist, copy: bool) -> list[int]:
        """Hash n's gates; with ``copy``, add each new node as a renamed gate."""
        keys, nets, bindings = self._keys, self._nets, self._bindings
        node_of = dict(zip(n.inputs, range(len(n.inputs))))
        for g in n.topo_gates:
            kind, fanin = g.kind, g.fanin
            if kind == "BUF":
                node_of[g.name] = node_of[fanin[0]]
                continue
            function = KIND_TO_FUNCTION.get(kind) if len(fanin) == 2 else None
            if kind == "CAMO":
                if bindings is None or g.name not in bindings:
                    raise UnprogrammedGateError(
                        f"unprogrammed camouflaged gate {g.name!r}"
                    )
                bound = bindings[g.name]
                if not isinstance(bound, tuple):
                    function = TruthTable2(bound)
            if function is not None:
                x, y = node_of[fanin[0]], node_of[fanin[1]]
                if x > y and function in _SYMMETRIC:
                    x, y = y, x
                key = (function, x, y)
            elif kind == "CAMO":
                key = None  # per-lane masks: never merged
            else:
                key = (kind,) + tuple(sorted(node_of[f] for f in fanin))
            node = keys.get(key)
            if node is None:
                node = len(nets)
                if key is not None:
                    keys[key] = node
                nets.append(self._copy(g, node_of) if copy else g.name)
            node_of[g.name] = node
        return [node_of[o] for o in n.outputs]

    def _copy(self, g: Gate, node_of: dict) -> str:
        """Add gate g, renamed apart from a, reading the nets of its fan-in nodes."""
        name = g.name
        while name in self._taken:
            name += "_"
        self._taken.add(name)
        fanin = tuple(self._nets[node_of[f]] for f in g.fanin)
        self._gates.append(Gate._unchecked(name, g.kind, fanin))
        if g.kind == "CAMO":
            self._fresh_bindings[name] = self._bindings[g.name]
        return name

    def netlist(self) -> tuple[Netlist, dict, list[int], list[int]]:
        """The miter netlist and its CAMO bindings, with the position in its
        outputs of each output of ``a`` and of ``b``."""
        outputs = list(dict.fromkeys(self._nets[o] for o in self.outs_a + self.outs_b))
        position = {net: k for k, net in enumerate(outputs)}
        bindings = self._bindings
        if self._fresh_bindings:
            bindings = {**bindings, **self._fresh_bindings}
        miter = Netlist._from_checked(self._inputs, outputs, self._gates, ordered=True)
        return (
            miter,
            bindings,
            [position[self._nets[o]] for o in self.outs_a],
            [position[self._nets[o]] for o in self.outs_b],
        )


def _first_mismatch(miter: _Miter, input_words, total: int):
    """The lowest vector index below ``total`` where a and b differ.

    ``input_words(start, count)`` gives the input words of words
    [start, start+count). Returns (index, outputs of a, outputs of b), or
    None when every vector agrees.
    """
    net, bindings, outs_a, outs_b = miter.netlist()
    pairs = [(i, j) for i, j in zip(outs_a, outs_b) if i != j]
    n_words = -(-total // WORD_BITS)
    for start in range(0, n_words, _CHUNK_WORDS):
        count = min(_CHUNK_WORDS, n_words - start)
        outs = eval_words(net, input_words(start, count), bindings)
        diff = np.zeros(count, dtype=np.uint64)
        for i, j in pairs:
            diff |= outs[i] ^ outs[j]
        hits = np.flatnonzero(diff)
        if hits.size == 0:
            continue
        w = int(hits[0])
        word = int(diff[w])
        bit = (word & -word).bit_length() - 1
        index = (start + w) * WORD_BITS + bit
        if index >= total:
            return None
        return (
            index,
            tuple(int(outs[i][w]) >> bit & 1 for i in outs_a),
            tuple(int(outs[j][w]) >> bit & 1 for j in outs_b),
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

    ``bindings`` programs CAMO instances in either netlist (keyed by gate
    name). Exhaustive mode enumerates every input vector and is sound and
    complete up to 24 inputs; random mode samples ``n_vectors`` vectors from
    ``seed`` and reports the first counterexample it finds, if any. Both
    evaluate one structurally hashed miter of a and b, and none at all when
    every output pair hashes to the same node; ``vectors_checked`` counts
    the vectors the answer covers.
    """
    if a.inputs != b.inputs or a.outputs != b.outputs:
        raise SignatureMismatchError(
            f"I/O signatures differ: {a.inputs}/{a.outputs} vs "
            f"{b.inputs}/{b.outputs}"
        )
    n_in = len(a.inputs)

    if mode == "exhaustive":
        if n_in > EXHAUSTIVE_INPUT_LIMIT:
            raise UsageError(
                f"exhaustive mode supports at most {EXHAUSTIVE_INPUT_LIMIT} "
                f"inputs, netlist has {n_in}"
            )
        total = 1 << n_in

        def input_words(start, count):
            return exhaustive_input_words(n_in, start, count)

        def vector(index):
            return input_vector_from_index(a.inputs, index)

    elif mode == "random":
        if n_vectors <= 0:
            raise UsageError(f"n_vectors must be positive, got {n_vectors!r}")
        total = n_vectors
        matrix = np.random.default_rng(seed).integers(
            0, 2, size=(n_vectors, n_in), dtype=np.uint8
        )
        packed = pack_words(matrix.T)

        def input_words(start, count):
            return list(packed[:, start : start + count])

        def vector(index):
            return tuple(int(v) for v in matrix[index])

    else:
        raise UsageError(f"unknown equivalence mode {mode!r}")

    miter = _Miter(a, b, bindings)
    hit = None if miter.merged else _first_mismatch(miter, input_words, total)
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
