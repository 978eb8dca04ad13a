"""Reverse-engineering attack models against camouflaged netlists.

Two attacker capabilities are modeled. Dopant profiling reads the physical
LVT/HVT pattern of implant-defined gates (and nothing of electrolyte-defined
ones). The oracle-guided attack holds the camouflaged netlist plus black-box
input/output access to a programmed chip and prunes candidate gate functions
against observed responses.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .bench import (
    ALL_ONES,
    WORD_BITS,
    ZERO,
    Netlist,
    _eval_gates,
    _input_vectors,
    _is_count,
    eval_logic,
    eval_words,
    index_bit_rows,
    pack_words,
    unpack_words,
)
from .camo import CamoConfig, reconstruct  # noqa: F401  (attack.reconstruct)
from .errors import CapacityError, CoverageError, DomainError, UsageError
from .gates import BranchAssignment, TruthTable2, function_of

IMPLANT = "implant"
ELECTROLYTE = "electrolyte"
_MECHANISMS = (IMPLANT, ELECTROLYTE)

DEFAULT_JOINT_LIMIT = 65536
_EXHAUSTIVE_QUERY_LIMIT_BITS = 20
# Joint mode answers queries WORD_BITS at a time, and evaluates the CAMO cone
# for Q = min(WORD_BITS, _CONE_WORDS // n_words) of them at once (at least
# one), so that a cone net holds at most max(_CONE_WORDS, n_words) words.
_CONE_WORDS = 4096
# Before a cone pass, joint mode re-encodes the survivors as explicit lanes
# once at most 1/_COMPACT_RATIO of more than WORD_BITS lanes are alive.
_COMPACT_RATIO = 8
_FILL = np.array([ZERO, ALL_ONES])
_WORD_MASK = (1 << WORD_BITS) - 1
# Bit (3 - m) of a function's value is its output for minterm m.
_MINTERM_BITS = np.array([8, 4, 2, 1], dtype=np.uint8)[:, None]
_FUNCS = tuple(TruthTable2)


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


@dataclass
class CandidateState:
    """Surviving candidate functions after oracle-guided pruning.

    ``survivor_history[q]`` is the joint candidate count after q queries
    (history[0] is the pre-query count). In joint mode ``survivors`` holds
    the explicit surviving tuples, ordered like ``camo_gates``. In marginal
    mode each gate is pruned with the other camouflaged gates unknown:
    survivors is None and the joint count is the product of the per-gate
    marginal sizes (an upper bound).
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


def _query_vectors(inputs: tuple[str, ...], strategy: str, n_queries, seed):
    """The strategy's checks in front of ``bench._input_vectors``."""
    if strategy == "exhaustive" and len(inputs) > _EXHAUSTIVE_QUERY_LIMIT_BITS:
        raise UsageError(
            f"exhaustive querying supports at most "
            f"{_EXHAUSTIVE_QUERY_LIMIT_BITS} inputs, netlist has {len(inputs)}"
        )
    if strategy == "random" and not (_is_count(n_queries) and n_queries >= 0):
        if n_queries is None or _is_count(n_queries):
            raise UsageError("random strategy requires n_queries >= 0")
        raise UsageError(f"n_queries must be an int, got {n_queries!r}")
    if strategy not in ("exhaustive", "random"):
        raise UsageError(f"unknown query strategy {strategy!r}")
    return _input_vectors(inputs, strategy, n_queries, seed)


def _split_cone(n: Netlist) -> tuple[list, list]:
    """The program entries of the CAMO gates and their transitive fan-out,
    and every other entry, both in program order."""
    cone: list = []
    base: list = []
    cone_slots: set[int] = set()
    for entry in n._program:
        op, out, a, b = entry
        if op.__class__ is str or a in cone_slots or b in cone_slots:
            cone.append(entry)
            cone_slots.add(out)
        else:
            base.append(entry)
    return cone, base


def _bit_rows(ints) -> np.ndarray:
    """A (len(ints), 64) uint8 array whose row r holds bits 0..63 of
    ``ints[r]``, two's complement for a negative int."""
    raw = np.array([v & _WORD_MASK for v in ints], dtype="<u8")
    return np.unpackbits(raw.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")


def _all_alive(n_lanes: int) -> np.ndarray:
    """An alive mask with lanes 0..n_lanes-1 set and the padding bits zero."""
    alive = np.full(-(-n_lanes // WORD_BITS), ALL_ONES)
    if n_lanes % WORD_BITS:
        alive[-1] = (1 << n_lanes % WORD_BITS) - 1
    return alive


def _alive_ids(ids, alive: np.ndarray, n_lanes: int) -> np.ndarray:
    """The candidate index of each alive lane, in ascending order; ``ids``
    maps lane to candidate, or is None while lane L is candidate L."""
    keep = np.flatnonzero(unpack_words(alive, n_lanes))
    return keep if ids is None else ids[keep]


def _compact_lanes(names, ids, alive: np.ndarray, n_lanes: int):
    """Explicit lanes for the alive candidates: their indices, each gate's
    four masks and an all-alive word array (padding bits zero)."""
    ids = _alive_ids(ids, alive, n_lanes)
    # Row j is gate j's base-16 digit of each candidate index (gate 0 most
    # significant); uint8 keeps its low byte, whose low nibble is the digit.
    shifts = np.arange(4 * len(names) - 4, -1, -4)[:, None]
    digits = (ids >> shifts).astype(np.uint8)
    masks = pack_words(digits[:, None, :] & _MINTERM_BITS)
    lanes = {nm: tuple(m) for nm, m in zip(names, masks)}
    return ids, lanes, _all_alive(len(ids))


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
    eliminated. Joint mode answers the queries 64 at a time and evaluates
    per candidate only the fan-out cone of the camouflaged gates. Once at
    most 1/8 of more than 64 lanes survive, it rebuilds the lanes from the
    survivors alone before its next cone pass. With g
    camouflaged gates the joint space is 16^g, which must fit
    ``joint_limit`` unless ``marginal_fallback`` requests the weaker
    per-gate pruning mode (sound, but it ignores cross-gate correlations).
    Marginal mode evaluates all 16g single-gate candidates in one
    three-valued pass per query through the same gate engine. Pruning stops
    early once a single survivor remains (in marginal mode, one per gate).
    An oracle whose input or output count differs from camo's is a
    UsageError, in either mode, even when nothing is left to prune.
    """
    names = camo.camo_gates
    g = len(names)
    if 16**g > joint_limit and not marginal_fallback:
        raise CapacityError(
            f"{g} camouflaged gates give 16^{g} joint candidates, exceeding "
            f"joint_limit {joint_limit}; raise the limit or request "
            f"marginal_fallback"
        )

    # The strategy, then the oracle's shape, are checked before the survivor
    # check, so that either error is reported even when there is nothing to
    # prune.
    source = _query_vectors(camo.inputs, strategy, n_queries, seed)
    if len(camo.inputs) != len(oracle.inputs):
        raise UsageError(
            f"expected {len(oracle.inputs)} input bits, got {len(camo.inputs)}"
        )
    if len(camo.outputs) != len(oracle.outputs):
        raise UsageError(
            f"expected {len(camo.outputs)} output bits, got {len(oracle.outputs)}"
        )
    if marginal_fallback and 16**g > joint_limit:
        return _marginal_attack(camo, oracle, oracle_bindings, source)

    # Lane L is the candidate whose gate j has function digit j of L in base
    # 16 (gate 0 most significant), so lanes run in the order of
    # product(range(16), repeat=g). Bit (3 - m) of a function is its output
    # for minterm m, hence gate j's mask M_m is index bit 4(g-1-j) + 3 - m,
    # row 4j + m of the lane-index bits from 4g-1 down to 0.
    n_lanes = 16**g
    n_words = -(-n_lanes // WORD_BITS)
    masks = index_bit_rows(range(4 * g - 1, -1, -1), 0, n_words).reshape(g, 4, n_words)
    lanes = {nm: tuple(m) for nm, m in zip(names, masks)}
    alive = _all_alive(n_lanes)
    count = n_lanes
    state = CandidateState(
        camo_gates=names, mode="joint", marginals={}, survivor_history=[count]
    )

    # Only the CAMO gates and their fan-out differ between candidates. The
    # oracle and the other gates of camo answer a whole batch of queries in
    # one pass over Python ints, bit k for query k; the cone then runs on a
    # (Q, 1) all-ones/zero column per slot feeding it against the lane masks.
    cone, base = _split_cone(camo)
    cone_slots = {out for _, out, _, _ in cone}
    feeds = list({s for _, _, a, b in cone for s in (a, b)} - cone_slots)
    n_in = len(camo.inputs)
    n_log = n_in + len(camo.outputs)
    ids = None
    total, input_words, _ = source
    for first in range(0, total, WORD_BITS):
        if count <= 1:
            break
        width = min(WORD_BITS, total - first)
        words = [int(w[0]) for w in input_words(first // WORD_BITS, 1)]
        observed = eval_words(oracle, words, oracle_bindings)
        values = words + [None] * len(camo._program)
        _eval_gates(base, values, None)
        # Bit k of ``agree``: query k's outputs outside the cone match.
        agree = ~0
        flip_slots, flip_ints = [], []
        for out, obs in zip(camo._out_slots, observed):
            if out in cone_slots:
                flip_slots.append(out)
                flip_ints.append(~obs)
            else:
                agree &= ~(values[out] ^ obs)
        # One bit row per int: the batch's vectors and responses, then the
        # agree, flip and feed columns, whose row k is all ones where bit k
        # of the int is set.
        feed_ints = [values[s] for s in feeds]
        bits = _bit_rows(words + observed + [agree] + flip_ints + feed_ints)
        vectors, responses = bits[:n_in].T, bits[n_in:n_log].T
        agree, *columns = _FILL[bits[n_log:, :width, None]]
        flips = list(zip(flip_slots, columns))
        feeds_at = list(zip(feeds, columns[len(flips) :]))

        q0 = 0
        while q0 < width and count > 1:
            if n_lanes > WORD_BITS and count * _COMPACT_RATIO <= n_lanes:
                ids, lanes, alive = _compact_lanes(names, ids, alive, n_lanes)
                n_lanes, n_words = count, len(alive)
            q_rows = max(1, min(WORD_BITS, _CONE_WORDS // n_words))
            rows = slice(q0, q0 + q_rows)
            cone_values = [None] * len(values)
            for s, col in feeds_at:
                cone_values[s] = col[rows]
            _eval_gates(cone, cone_values, lanes)
            match = agree[rows] & alive
            for out, flip in flips:
                match &= cone_values[out] ^ flip[rows]
            # Running AND down the rows in log2(Q) passes; numpy buffers the
            # overlapping operands. np.bitwise_and.accumulate along axis 0
            # took 26 us on 4 x 1024 words and 2 ms on 1 x 262144, against
            # 4 us and nothing here (2-vCPU Xeon).
            step = 1
            while step < len(match):
                match[step:] &= match[:-step]
                step *= 2
            # Counts never rise down the running AND, so the queries logged
            # run up to the first count of at most one, where pruning stops.
            counts = np.bitwise_count(match).sum(axis=1)
            n = min(len(counts), int(np.count_nonzero(counts > 1)) + 1)
            done = slice(q0, q0 + n)
            state.query_log += zip(
                map(tuple, vectors[done].tolist()), map(tuple, responses[done].tolist())
            )
            state.survivor_history += counts[:n].tolist()
            count = state.survivor_history[-1]
            if count == 0:
                raise _inconsistent_oracle(*state.query_log[-1])
            alive = match[n - 1]
            q0 += q_rows

    state.survivors = [
        tuple(_FUNCS[(lane >> 4 * (g - 1 - j)) & 15] for j in range(g))
        for lane in _alive_ids(ids, alive, n_lanes).tolist()
    ]
    state.marginals = {
        nm: {s[j] for s in state.survivors} for j, nm in enumerate(names)
    }
    return state


class _Rails(NamedTuple):
    """A net in marginal mode: bit L of ``lo`` (``hi``) says it can be 0 (1)
    in lane L. The operators are the word engine's gate operations in
    three-valued logic, so ``_eval_gates`` evaluates every non-CAMO gate."""

    lo: int
    hi: int

    def __invert__(self):
        return _Rails(self.hi, self.lo)

    def __and__(self, other):
        return _Rails(self.lo | other.lo, self.hi & other.hi)

    def __or__(self, other):
        return _Rails(self.lo & other.lo, self.hi | other.hi)

    def __xor__(self, other):
        return _Rails(
            (self.lo & other.lo) | (self.hi & other.hi),
            (self.lo & other.hi) | (self.hi & other.lo),
        )


# Bit c of _MINTERM_ONES[m]: function c outputs 1 for minterm m.
_MINTERM_ONES = tuple(sum(f.minterm(m) << f for f in TruthTable2) for m in range(4))


def _marginal_attack(camo, oracle, oracle_bindings, source):
    # Lane 16j + c binds CAMO gate j to function c and leaves every other
    # CAMO gate unknown, so each gate's candidates are pruned on their own.
    names = camo.camo_gates
    index = {nm: j for j, nm in enumerate(names)}
    full = (1 << 16 * len(names)) - 1
    alive = full
    counts = [16] * len(names)
    state = CandidateState(
        camo_gates=names,
        mode="marginal",
        marginals={nm: set(TruthTable2) for nm in names},
        survivor_history=[16 ** len(names)],
    )
    total, _, vector = source
    for vec in map(vector, range(total)):
        if all(count == 1 for count in counts):
            break
        observed = eval_logic(oracle, vec, oracle_bindings)
        values = [_Rails(0, full) if bit else _Rails(full, 0) for bit in vec]
        values += [None] * len(camo._program)
        for entry in camo._program:
            name, out, x, y = entry
            if name.__class__ is not str:
                _eval_gates((entry,), values, None)
                continue
            # Output r is possible where some possible minterm gives r.
            a, b = values[x], values[y]
            shift = 16 * index[name]
            group = 0xFFFF << shift
            lo = hi = full ^ group
            minterms = (a.lo & b.lo, a.lo & b.hi, a.hi & b.lo, a.hi & b.hi)
            for can, ones in zip(minterms, _MINTERM_ONES):
                ones <<= shift
                hi |= can & ones
                lo |= can & (group ^ ones)
            values[out] = _Rails(lo, hi)
        for out, obs in zip(camo._out_slots, observed):
            alive &= values[out][obs]
        counts = [((alive >> 16 * j) & 0xFFFF).bit_count() for j in range(len(names))]
        state.query_log.append((tuple(vec), tuple(observed)))
        state.survivor_history.append(math.prod(counts))
        if state.survivor_history[-1] == 0:
            raise _inconsistent_oracle(vec, observed)
    state.marginals = {
        nm: {f for f in TruthTable2 if (alive >> 16 * j + f) & 1}
        for j, nm in enumerate(names)
    }
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
