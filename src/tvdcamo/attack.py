"""Reverse-engineering attack models against camouflaged netlists.

Two attacker capabilities are modeled. Dopant profiling reads the physical
LVT/HVT pattern of implant-defined gates (and nothing of electrolyte-defined
ones). The oracle-guided attack holds the camouflaged netlist plus black-box
input/output access to a programmed chip and prunes candidate gate functions
against observed responses.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .bench import (
    ALL_ONES,
    WORD_BITS,
    ZERO,
    Gate,
    Netlist,
    eval_logic,
    eval_words,
    index_bit_words,
    input_vector_from_index,
    unpack_words,
)
from .camo import FUNCTION_TO_KIND, CamoConfig
from .errors import CapacityError, CoverageError, DomainError, UsageError
from .gates import BranchAssignment, TruthTable2, function_of

IMPLANT = "implant"
ELECTROLYTE = "electrolyte"
_MECHANISMS = (IMPLANT, ELECTROLYTE)

DEFAULT_JOINT_LIMIT = 65536
_EXHAUSTIVE_QUERY_LIMIT_BITS = 20


@dataclass(frozen=True)
class DeviceVisibility:
    """What physical inspection reveals about each camouflaged gate.

    Every gate physically carries a branch assignment; ``mechanisms`` records
    whether its thresholds are implant-defined (readable by dopant profiling)
    or electrolyte-defined (invisible to it).
    """

    mechanisms: Mapping[str, str]
    assignments: Mapping[str, BranchAssignment]

    def __post_init__(self):
        for name, mech in self.mechanisms.items():
            if mech not in _MECHANISMS:
                raise UsageError(
                    f"gate {name!r}: unknown mechanism {mech!r} "
                    f"(expected one of {_MECHANISMS})"
                )
            if name not in self.assignments:
                raise CoverageError(f"gate {name!r} has no recorded assignment")

    @classmethod
    def from_config(cls, cfg: CamoConfig, mechanism) -> "DeviceVisibility":
        """Build visibility tags from the ground-truth config.

        ``mechanism`` is a single tag for every gate or a per-gate mapping.
        """
        if isinstance(mechanism, str):
            mechanisms = {g.name: mechanism for g in cfg.gates}
        else:
            mechanisms = dict(mechanism)
            missing = sorted({g.name for g in cfg.gates} - set(mechanisms))
            if missing:
                raise CoverageError(f"no mechanism tag for gates: {missing}")
        assignments = {g.name: g.assignment for g in cfg.gates}
        return cls(mechanisms=mechanisms, assignments=assignments)


def profiling_attack(
    camo: Netlist, vis: DeviceVisibility
) -> dict[str, TruthTable2 | None]:
    """Resolve each camouflaged gate by threshold profiling, where possible.

    Implant-defined gates expose their LVT/HVT pattern, which maps directly
    to the Boolean function; electrolyte-defined gates expose nothing and
    come back unresolved (None).
    """
    resolution: dict[str, TruthTable2 | None] = {}
    for name in camo.camo_gates:
        if name not in vis.mechanisms:
            raise CoverageError(f"no visibility tag for camouflaged gate {name!r}")
        if vis.mechanisms[name] == IMPLANT:
            resolution[name] = function_of(vis.assignments[name])
        else:
            resolution[name] = None
    return resolution


def reconstruct(camo: Netlist, resolution: Mapping[str, TruthTable2 | None]) -> Netlist:
    """Rebuild a netlist from profiling results; unresolved gates stay CAMO."""
    new_gates = []
    for g in camo.gates:
        f = resolution.get(g.name) if g.kind == "CAMO" else None
        if f is None:
            new_gates.append(g)
            continue
        kind = FUNCTION_TO_KIND.get(f)
        if kind is None:
            raise DomainError(
                f"gate {g.name!r}: function {f.name} has no concrete gate kind"
            )
        new_gates.append(Gate(name=g.name, kind=kind, fanin=g.fanin))
    return Netlist(camo.inputs, camo.outputs, new_gates)


@dataclass
class CandidateState:
    """Surviving candidate functions after oracle-guided pruning.

    ``survivor_history[q]`` is the joint candidate count after q queries
    (history[0] is the pre-query count). In joint mode ``survivors`` holds
    the explicit surviving tuples, ordered like ``camo_gates``; in marginal
    mode survivors is None and the joint count is the product of the
    per-gate marginal sizes (an upper bound).
    """

    camo_gates: tuple[str, ...]
    mode: str
    marginals: dict[str, set[TruthTable2]]
    query_log: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list
    )
    survivor_history: list[int] = field(default_factory=list)
    survivors: list[tuple[TruthTable2, ...]] | None = None

    @property
    def queries(self) -> int:
        return len(self.query_log)

    @property
    def joint_survivors(self) -> int:
        if self.survivors is not None:
            return len(self.survivors)
        return math.prod(len(s) for s in self.marginals.values())

    @property
    def ambiguity_bits(self) -> float:
        return math.log2(self.joint_survivors)

    @property
    def queries_to_resolution(self) -> int:
        return self.survivor_history.index(self.survivor_history[-1])

    @property
    def resolved_gate_fraction(self) -> float:
        if not self.camo_gates:
            return 1.0
        done = sum(1 for s in self.marginals.values() if len(s) == 1)
        return done / len(self.camo_gates)


def _query_vectors(n_inputs: int, strategy: str, n_queries, seed):
    if strategy == "exhaustive":
        if n_inputs > _EXHAUSTIVE_QUERY_LIMIT_BITS:
            raise UsageError(
                f"exhaustive querying supports at most "
                f"{_EXHAUSTIVE_QUERY_LIMIT_BITS} inputs, netlist has {n_inputs}"
            )
        names = tuple(str(j) for j in range(n_inputs))
        for v in range(1 << n_inputs):
            yield input_vector_from_index(names, v)
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


def _inconsistent_oracle(vec, observed) -> DomainError:
    return DomainError(
        f"oracle response {tuple(observed)} to query {tuple(vec)} "
        f"eliminates every candidate: the oracle is inconsistent "
        f"with the camouflaged netlist"
    )


def oracle_attack(
    camo: Netlist,
    oracle: Netlist,
    oracle_bindings=None,
    strategy: str = "exhaustive",
    n_queries: int | None = None,
    seed: int | None = None,
    joint_limit: int = DEFAULT_JOINT_LIMIT,
    marginal_fallback: bool = False,
) -> CandidateState:
    """Prune camouflaged-gate candidates against a black-box oracle.

    Every query evaluates the oracle netlist (with its true bindings) on one
    input vector; joint candidate assignments whose outputs disagree are
    eliminated. With g camouflaged gates the joint space is 16^g, which must
    fit ``joint_limit`` unless ``marginal_fallback`` requests the weaker
    per-gate pruning mode (sound, but it ignores cross-gate correlations).
    Pruning stops early once a single survivor remains.
    """
    names = camo.camo_gates
    g = len(names)
    if 16**g > joint_limit and not marginal_fallback:
        raise CapacityError(
            f"{g} camouflaged gates give 16^{g} joint candidates, exceeding "
            f"joint_limit {joint_limit}; raise the limit or request "
            f"marginal_fallback"
        )

    if marginal_fallback and 16**g > joint_limit:
        return _marginal_attack(camo, oracle, oracle_bindings, strategy, n_queries, seed)

    if g == 0:
        return CandidateState(
            camo_gates=names,
            mode="joint",
            marginals={},
            survivor_history=[1],
            survivors=[()],
        )

    # Lane L is the candidate whose gate j has function digit j of L in base
    # 16 (gate 0 most significant), so lanes run in the order of
    # product(range(16), repeat=g). Bit (3 - m) of a function is its output
    # for minterm m, hence gate j's mask M_m is index bit 4(g-1-j) + 3 - m.
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

    for vec in _query_vectors(len(camo.inputs), strategy, n_queries, seed):
        if state.survivor_history[-1] <= 1:
            break
        observed = eval_logic(oracle, vec, oracle_bindings)
        outs = eval_words(camo, [ALL_ONES if bit else ZERO for bit in vec], lanes)
        for o, obs in zip(outs, observed):
            alive &= o if obs else ~o
        state.query_log.append((tuple(vec), tuple(observed)))
        state.survivor_history.append(int(np.bitwise_count(alive).sum()))
        if state.survivor_history[-1] == 0:
            raise _inconsistent_oracle(vec, observed)

    funcs = tuple(TruthTable2)
    state.survivors = [
        tuple(funcs[(lane >> 4 * (g - 1 - j)) & 15] for j in range(g))
        for lane in np.flatnonzero(unpack_words(alive, n_lanes)).tolist()
    ]
    state.marginals = {
        nm: {s[j] for s in state.survivors} for j, nm in enumerate(names)
    }
    return state


# Three-valued (0/1/unknown) evaluation for marginal pruning: a value is the
# pair (can_be_0, can_be_1); unbound camouflaged gates are fully unknown.
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


def _marginal_attack(camo, oracle, oracle_bindings, strategy, n_queries, seed):
    names = camo.camo_gates
    state = CandidateState(
        camo_gates=names,
        mode="marginal",
        marginals={nm: set(TruthTable2) for nm in names},
    )
    state.survivor_history = [state.joint_survivors]
    for vec in _query_vectors(len(camo.inputs), strategy, n_queries, seed):
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


def resilience_report(state: CandidateState) -> dict:
    """Deterministic metrics summarizing one oracle-attack run."""
    return {
        "mode": state.mode,
        "queries": state.queries,
        "joint_survivors": state.joint_survivors,
        "ambiguity_bits": state.ambiguity_bits,
        "queries_to_resolution": state.queries_to_resolution,
        "resolved_gate_fraction": state.resolved_gate_fraction,
        "per_gate_marginals": {
            nm: sorted(f.name for f in s) for nm, s in state.marginals.items()
        },
    }
