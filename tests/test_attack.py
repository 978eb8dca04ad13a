import ast
import math
import random
import re
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BINARY_KINDS,
    naive_eval,
    random_netlist,
    reference_marginal_attack,
    reference_oracle_attack,
    reference_query_vectors,
    slot_form_netlist,
)
from tvdcamo import attack
from tvdcamo.attack import (
    ELECTROLYTE,
    IMPLANT,
    CandidateState,
    DeviceVisibility,
    oracle_attack,
    profiling_attack,
    reconstruct,
    resilience_report,
)
from tvdcamo.camo import camouflage, decamouflage, verify_equivalence
from tvdcamo.bench import Gate, Netlist, pack_words, unpack_words
from tvdcamo.errors import (
    CapacityError,
    CoverageError,
    DomainError,
    UnprogrammedGateError,
    UsageError,
)
from tvdcamo.gates import TruthTable2


def camo_c17(c17, names):
    return camouflage(c17, gates=list(names))


class TestProfilingAttack:
    def test_implant_build_fully_resolved(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=2)
        vis = DeviceVisibility.from_config(cfg, IMPLANT)
        resolution = profiling_attack(camo, vis)
        assert all(f is not None for f in resolution.values())
        assert set(resolution.values()) == {TruthTable2.NAND}
        rebuilt = reconstruct(camo, resolution)
        assert rebuilt == c17
        assert verify_equivalence(rebuilt, c17).equivalent

    def test_electrolyte_build_resolves_nothing(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=2)
        vis = DeviceVisibility.from_config(cfg, ELECTROLYTE)
        resolution = profiling_attack(camo, vis)
        assert len(resolution) == 6
        assert all(f is None for f in resolution.values())

    def test_mixed_tags_resolve_exactly_the_implant_subset(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=2)
        tags = {
            name: (IMPLANT if name in ("10", "23") else ELECTROLYTE)
            for name in camo.camo_gates
        }
        resolution = profiling_attack(camo, DeviceVisibility.from_config(cfg, tags))
        resolved = {name for name, f in resolution.items() if f is not None}
        assert resolved == {"10", "23"}

    def test_missing_tag_is_coverage_error(self, c17):
        camo, cfg = camouflage(c17, gates=["10", "16"])
        with pytest.raises(CoverageError):
            DeviceVisibility.from_config(cfg, {"10": IMPLANT})

    def test_unknown_mechanism_rejected(self, c17):
        camo, cfg = camouflage(c17, gates=["10"])
        with pytest.raises(UsageError):
            DeviceVisibility.from_config(cfg, "psychic")

    def test_partial_reconstruction_keeps_camo(self, c17):
        camo, cfg = camouflage(c17, gates=["10", "16"])
        tags = {"10": IMPLANT, "16": ELECTROLYTE}
        resolution = profiling_attack(camo, DeviceVisibility.from_config(cfg, tags))
        rebuilt = reconstruct(camo, resolution)
        assert rebuilt.gate_map["10"].kind == "NAND"
        assert rebuilt.gate_map["16"].kind == "CAMO"


class TestOracleAttackJoint:
    def test_zero_camo_gates_trivially_resolved(self, c17):
        state = oracle_attack(c17, c17)
        assert state.queries == 0
        assert state.joint_survivors == 1
        assert state.ambiguity_bits == 0.0
        assert state.survivors == [()]

    def test_two_camo_gates_no_queries(self, c17):
        camo, cfg = camo_c17(c17, ["16", "19"])
        state = oracle_attack(
            camo, camo, oracle_bindings=cfg.bindings(), strategy="random", n_queries=0
        )
        assert state.joint_survivors == 256
        assert state.ambiguity_bits == 8.0
        assert state.queries == 0

    def test_single_gate_exhaustive_survivors_all_equivalent(self, c17):
        camo, cfg = camo_c17(c17, ["16"])
        state = oracle_attack(camo, camo, oracle_bindings=cfg.bindings())
        assert state.joint_survivors >= 1
        truth = (TruthTable2.NAND,)
        assert truth in state.survivors
        for survivor in state.survivors:
            bindings = dict(zip(state.camo_gates, survivor))
            assert verify_equivalence(c17, camo, bindings=bindings).equivalent

    def test_survivor_counts_never_increase(self, c17):
        camo, cfg = camo_c17(c17, ["16", "19"])
        state = oracle_attack(camo, camo, oracle_bindings=cfg.bindings())
        history = state.survivor_history
        assert history[0] == 256
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_true_binding_survives_everywhere(self, c17):
        camo, cfg = camo_c17(c17, ["10", "23"])
        state = oracle_attack(camo, camo, oracle_bindings=cfg.bindings())
        truth = tuple(cfg.bindings()[name] for name in state.camo_gates)
        assert truth in state.survivors

    def test_capacity_error_without_fallback(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=0)  # 6 gates -> 16^6
        with pytest.raises(CapacityError):
            oracle_attack(camo, camo, oracle_bindings=cfg.bindings())

    def test_raised_joint_limit_allows_bigger_spaces(self, c17):
        camo, cfg = camo_c17(c17, ["10", "16", "19"])
        state = oracle_attack(
            camo,
            camo,
            oracle_bindings=cfg.bindings(),
            joint_limit=16**3,
        )
        truth = tuple(cfg.bindings()[name] for name in state.camo_gates)
        assert truth in state.survivors

    def test_random_strategy_deterministic(self, c17):
        camo, cfg = camo_c17(c17, ["16", "19"])
        s1 = oracle_attack(
            camo, camo, oracle_bindings=cfg.bindings(), strategy="random",
            n_queries=12, seed=7,
        )
        s2 = oracle_attack(
            camo, camo, oracle_bindings=cfg.bindings(), strategy="random",
            n_queries=12, seed=7,
        )
        assert s1.query_log == s2.query_log
        assert s1.survivors == s2.survivors

    def test_soundness_on_random_netlists(self):
        for seed in range(12):
            rng = random.Random(4000 + seed)
            n = random_netlist(rng, max_inputs=8, max_gates=18)
            eligible = [
                g.name for g in n.gates if len(g.fanin) == 2 and g.kind != "CAMO"
                and g.kind not in ("NOT", "BUF")
            ]
            if not eligible:
                continue
            picks = rng.sample(eligible, min(len(eligible), rng.randint(1, 3)))
            camo, cfg = camouflage(n, gates=picks)
            strategy = rng.choice(["exhaustive", "random"])
            state = oracle_attack(
                camo,
                camo,
                oracle_bindings=cfg.bindings(),
                strategy=strategy,
                n_queries=24,
                seed=seed,
            )
            truth = tuple(cfg.bindings()[name] for name in state.camo_gates)
            assert truth in state.survivors, f"seed {seed} lost the truth"
            history = state.survivor_history
            assert all(a >= b for a, b in zip(history, history[1:]))

    def test_exhaustive_completeness_on_random_netlists(self):
        for seed in range(6):
            rng = random.Random(7000 + seed)
            n = random_netlist(rng, max_inputs=6, max_gates=12)
            eligible = [
                g.name for g in n.gates
                if len(g.fanin) == 2 and g.kind not in ("NOT", "BUF", "CAMO")
            ]
            if not eligible:
                continue
            picks = rng.sample(eligible, min(2, len(eligible)))
            camo, cfg = camouflage(n, gates=picks)
            state = oracle_attack(camo, camo, oracle_bindings=cfg.bindings())
            for survivor in state.survivors:
                bindings = dict(zip(state.camo_gates, survivor))
                assert verify_equivalence(n, camo, bindings=bindings).equivalent


def _brute_force_joint(camo, oracle, names, vectors):
    """Filter all 16^g candidate tuples against the oracle, query by query."""
    candidates = list(product(TruthTable2, repeat=len(names)))
    history = [len(candidates)]
    for vec in vectors:
        if len(candidates) <= 1:
            break
        observed = naive_eval(oracle, vec)
        candidates = [
            c for c in candidates
            if naive_eval(camo, vec, dict(zip(names, c))) == observed
        ]
        history.append(len(candidates))
    return history, candidates


class TestOracleAttackLanes:
    @pytest.mark.parametrize(
        "names", [["16"], ["22"], ["10", "22"], ["16", "19"], ["10", "16", "23"]]
    )
    @pytest.mark.parametrize("strategy", ["exhaustive", "random"])
    def test_joint_mode_matches_brute_force(self, c17, names, strategy):
        camo, _ = camo_c17(c17, names)
        state = oracle_attack(
            camo, c17, strategy=strategy, n_queries=6, seed=len(names)
        )
        vectors = [vec for vec, _ in state.query_log]
        if strategy == "exhaustive":
            assert vectors == list(product((0, 1), repeat=5))[: len(vectors)]
        history, survivors = _brute_force_joint(camo, c17, state.camo_gates, vectors)
        assert state.survivor_history == history
        assert state.survivors == survivors
        assert state.marginals == {
            nm: {s[j] for s in survivors} for j, nm in enumerate(state.camo_gates)
        }

    def test_inconsistent_oracle_is_domain_error(self, c17):
        camo, _ = camo_c17(c17, ["10"])
        all_or = Netlist(
            c17.inputs, c17.outputs, [Gate(g.name, "OR", g.fanin) for g in c17.gates]
        )
        vectors = list(product((0, 1), repeat=5))
        history, _ = _brute_force_joint(camo, all_or, ("10",), vectors)
        assert history[-1] == 0
        emptied_by = vectors[len(history) - 2]
        with pytest.raises(DomainError, match=re.escape(str(emptied_by))):
            oracle_attack(camo, all_or)


def _outcome(fn, camo, oracle, **kwargs):
    """What one attack run returns or raises, in comparable form."""
    try:
        state = fn(camo, oracle, **kwargs)
    except Exception as exc:  # compared with the reference's error below
        return ("raised", type(exc), str(exc))
    for vec, response in state.query_log:
        assert all(type(bit) is int for bit in vec + response)
    return (
        "returned",
        state.query_log,
        state.survivor_history,
        state.survivors,
        state.marginals,
    )


def assert_matches_reference(camo, oracle, **kwargs):
    got = _outcome(oracle_attack, camo, oracle, **kwargs)
    assert got == _outcome(reference_oracle_attack, camo, oracle, **kwargs)
    return got


def _rare_minterm_netlist():
    """7 inputs; CAMO gate c sees a = 1 only for exhaustive queries 126 and
    127, so the attack keeps going past the first batch of 64. Output o is
    outside the cone; d is in it, below c."""
    inputs = [f"i{k}" for k in range(7)]
    gates = [
        Gate("t0", "AND", ("i0", "i1", "i2")),
        Gate("a", "AND", ("t0", "i3", "i4", "i5")),
        Gate("c", "CAMO", ("a", "i6")),
        Gate("d", "CAMO", ("c", "i5")),
        Gate("o", "XOR", ("i2", "i6")),
    ]
    camo = Netlist(inputs, ["o", "d", "i3"], gates)
    return camo, {"c": TruthTable2.AND, "d": TruthTable2.XOR}


class TestJointModeMatchesReference:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_every_c17_subset(self, c17, size):
        for names in combinations(c17.gate_map, size):
            camo, cfg = camo_c17(c17, names)
            assert_matches_reference(camo, camo, oracle_bindings=cfg.bindings())

    @pytest.mark.parametrize("strategy", ["exhaustive", "random"])
    def test_seeded_dags(self, strategy):
        for seed in range(16):
            rng = random.Random(9100 + seed)
            n = random_netlist(rng, max_inputs=9, max_gates=24)
            eligible = [g.name for g in n.gates if len(g.fanin) == 2]
            if not eligible:
                continue
            picks = rng.sample(eligible, min(len(eligible), rng.randint(1, 3)))
            camo, cfg = camouflage(n, gates=picks)
            assert_matches_reference(
                camo, camo, oracle_bindings=cfg.bindings(), strategy=strategy,
                n_queries=rng.randint(0, 150), seed=seed,
            )
            # The original netlist as the oracle: no bindings needed.
            assert_matches_reference(
                camo, n, strategy=strategy, n_queries=40, seed=seed
            )

    def test_exhaustive_queries_cross_the_batch_boundary(self):
        camo, truth = _rare_minterm_netlist()
        got = assert_matches_reference(camo, camo, oracle_bindings=truth)
        assert got[0] == "returned" and len(got[1]) > 64

    def test_one_query_per_cone_pass(self, c17, monkeypatch):
        monkeypatch.setattr(attack, "_CONE_WORDS", 1)
        camo, truth = _rare_minterm_netlist()
        got = assert_matches_reference(camo, camo, oracle_bindings=truth)
        assert len(got[1]) > 64
        for names in (["16"], ["10", "22"], ["11", "16", "23"], ["10", "11", "19", "22"]):
            camo, cfg = camo_c17(c17, names)
            assert_matches_reference(camo, camo, oracle_bindings=cfg.bindings())
            assert_matches_reference(
                camo, c17, strategy="random", n_queries=70, seed=len(names)
            )


@pytest.fixture
def compactions(monkeypatch):
    """Spy on joint mode's lane rebuild: (lanes before, lanes after) per call."""
    calls = []
    rebuild = attack._compact_lanes

    def spy(names, ids, alive, n_lanes):
        out = rebuild(names, ids, alive, n_lanes)
        calls.append((n_lanes, len(out[0])))
        return out

    monkeypatch.setattr(attack, "_compact_lanes", spy)
    return calls


def _gated_netlist(p_inputs=7):
    """7 inputs and 4 CAMO gates whose outputs are ANDed with i0, the most
    significant bit of an exhaustive query, so queries 0-63 prune nothing.
    c3 never sees minterm 1, so two candidates survive all 128 queries.
    p = AND of the first ``p_inputs`` inputs lies outside the cone."""
    inputs = [f"i{k}" for k in range(7)]
    gates = [
        Gate("t", "AND", ("i4", "i5")),
        Gate("c0", "CAMO", ("i1", "i2")),
        Gate("c1", "CAMO", ("i2", "i3")),
        Gate("c2", "CAMO", ("i3", "i4")),
        Gate("c3", "CAMO", ("i4", "t")),
        *(Gate(f"o{k}", "AND", (f"c{k}", "i0")) for k in range(4)),
        Gate("p", "AND", tuple(inputs[:p_inputs])),
    ]
    camo = Netlist(inputs, ["o0", "o1", "o2", "o3", "p"], gates)
    funcs = (TruthTable2.XOR, TruthTable2.NAND, TruthTable2.A_AND_NOT_B, TruthTable2.OR)
    return camo, dict(zip(("c0", "c1", "c2", "c3"), funcs))


class TestCompactedLanes:
    def test_rebuild_encodes_each_candidate(self):
        names = ("a", "b", "c")
        rng = np.random.default_rng(5)
        n_lanes = 16**3
        alive = pack_words(rng.random(n_lanes) < 0.1)
        ids, lanes, alive2 = attack._compact_lanes(names, None, alive, n_lanes)
        assert ids.tolist() == np.flatnonzero(unpack_words(alive, n_lanes)).tolist()
        # Again from explicit lanes: a partial word, with zero padding bits.
        keep = np.zeros(len(ids), dtype=bool)
        keep[rng.choice(len(ids), 40, replace=False)] = True
        ids2, lanes2, alive3 = attack._compact_lanes(
            names, ids, pack_words(keep), len(ids)
        )
        assert ids2.tolist() == ids[keep].tolist()
        for got_ids, got_lanes, got_alive in ((ids, lanes, alive2), (ids2, lanes2, alive3)):
            n = len(got_ids)
            assert len(got_alive) == -(-n // 64)
            assert unpack_words(got_alive, len(got_alive) * 64).tolist() == (
                [True] * n + [False] * (len(got_alive) * 64 - n)
            )
            for j, nm in enumerate(names):
                digits = [(int(c) >> 4 * (2 - j)) & 15 for c in got_ids]
                for m, mask in enumerate(got_lanes[nm]):
                    want = [TruthTable2(d).minterm(m) for d in digits]
                    assert unpack_words(mask, n).astype(int).tolist() == want

    @pytest.mark.parametrize("cone_words", [attack._CONE_WORDS, 1])
    def test_c17_four_gate_subsets(self, c17, compactions, monkeypatch, cone_words):
        monkeypatch.setattr(attack, "_CONE_WORDS", cone_words)
        for names in combinations(c17.gate_map, 4):
            camo, cfg = camo_c17(c17, names)
            compactions.clear()
            assert_matches_reference(camo, camo, oracle_bindings=cfg.bindings())
            assert compactions and compactions[0][0] == 16**4

    @pytest.mark.parametrize("strategy", ["exhaustive", "random"])
    def test_seeded_dags_with_four_camo_gates(self, compactions, strategy):
        runs = compacted = 0
        for seed in range(12):
            rng = random.Random(9300 + seed)
            n = random_netlist(rng, max_inputs=9, max_gates=24)
            eligible = [g.name for g in n.gates if len(g.fanin) == 2]
            if len(eligible) < 4:
                continue
            camo, cfg = camouflage(n, gates=rng.sample(eligible, 4))
            for oracle, bindings in ((camo, cfg.bindings()), (n, None)):
                compactions.clear()
                assert_matches_reference(
                    camo, oracle, oracle_bindings=bindings, strategy=strategy,
                    n_queries=rng.randint(0, 150), seed=seed,
                )
                runs += 1
                compacted += bool(compactions)
        assert runs >= 16 and compacted >= runs // 2

    def test_compaction_down_to_one_partial_word(self, c17, compactions, monkeypatch):
        # One query per cone pass: 256 lanes are 4 words, whose default
        # pass would answer every query at once and never compact.
        monkeypatch.setattr(attack, "_CONE_WORDS", 1)
        for names in combinations(c17.gate_map, 2):
            camo, cfg = camo_c17(c17, names)
            compactions.clear()
            assert_matches_reference(camo, camo, oracle_bindings=cfg.bindings())
            assert [before for before, _ in compactions] == [256]
            assert 1 < compactions[0][1] <= 32

    def test_repeated_compaction(self, compactions, monkeypatch):
        # One query per cone pass, so that compacted lanes compact again.
        monkeypatch.setattr(attack, "_CONE_WORDS", 1)
        camo, truth = _gated_netlist()
        got = assert_matches_reference(camo, camo, oracle_bindings=truth)
        assert len(got[3]) == 2 and len(compactions) >= 3
        for (_, after), (before, _) in zip(compactions, compactions[1:]):
            assert before == after

    @pytest.mark.parametrize("cone_words", [attack._CONE_WORDS, 1])
    def test_compaction_after_the_first_batch(self, compactions, monkeypatch, cone_words):
        monkeypatch.setattr(attack, "_CONE_WORDS", cone_words)
        camo, truth = _gated_netlist()
        got = assert_matches_reference(camo, camo, oracle_bindings=truth)
        history = got[2]
        assert history[64] == 16**4 and len(history) == 129
        assert compactions[0] == (16**4, history[65 if cone_words == 1 else 68])

    def test_inconsistent_oracle_found_after_compaction(self, compactions):
        camo, truth = _gated_netlist()
        oracle, _ = _gated_netlist(p_inputs=6)
        got = assert_matches_reference(camo, oracle, oracle_bindings=truth)
        assert got[:2] == ("raised", DomainError)
        assert str((1, 1, 1, 1, 1, 1, 0)) in got[2]
        assert compactions

    def test_c17_all_six_gates_exact(self, c17, compactions):
        camo, _ = camo_c17(c17, c17.gate_map)
        got = _outcome(oracle_attack, camo, c17, joint_limit=16**6)
        assert got == _outcome(reference_oracle_attack, camo, c17)
        assert got[2][:3] == [16**6, 16**5 * 4, 16**5]
        assert len(got[3]) == 16
        assert compactions[0][0] == 16**6 and len(compactions) >= 2


def _old_columns(word: int, count: int) -> np.ndarray:
    """The attack's former per-int column: a (count, 1) column whose row k is
    all ones where bit k of ``word`` is."""
    shifts = np.arange(64, dtype=np.uint64)[:count]
    bits = (np.uint64(word & ((1 << count) - 1)) >> shifts) & np.uint64(1)
    return np.array([np.uint64(0), np.uint64(2**64 - 1)])[bits][:, None]


class TestBatchSteps:
    """Each array step of a joint-mode batch against the per-item form it
    replaced."""

    @pytest.mark.parametrize("width", [1, 7, 63, 64])
    def test_columns_equal_per_int_columns(self, width):
        rng = random.Random(width)
        ints = [0, -1, ~0 << 3, -(1 << 63), 2**64 - 1, (1 << 63) | 5, ~(1 << 40)]
        ints += [rng.randrange(-(2**70), 2**70) for _ in range(20)]
        bits = attack._bit_rows(ints)
        assert bits.shape == (len(ints), 64)
        columns = attack._FILL[bits[:, :width, None]]
        for v, row, col in zip(ints, bits, columns):
            assert row.tolist() == [(v >> k) & 1 for k in range(64)]
            assert col.shape == (width, 1)
            assert col.tolist() == _old_columns(v, width).tolist()

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_compacted_masks_equal_per_gate_packing(self, g):
        names = tuple(f"c{j}" for j in range(g))
        rng = np.random.default_rng(g)
        n_lanes = 16**g
        for p_alive in (1.0, 0.3, 0.01):
            alive = pack_words(rng.random(n_lanes) < p_alive)
            ids, lanes, _ = attack._compact_lanes(names, None, alive, n_lanes)
            for j, nm in enumerate(reversed(names)):
                digit = (ids >> 4 * j).astype(np.uint8)
                want = [pack_words(digit & (8 >> m)) for m in range(4)]
                assert len(lanes[nm]) == 4
                for got, w in zip(lanes[nm], want):
                    assert got.tolist() == w.tolist()


@st.composite
def _attack_cases(draw):
    """A random DAG of 5-9 inputs with 1-3 CAMO gates, an oracle for it and
    the attack's query arguments. The oracle is the truth, another
    candidate, a mutant or the DAG with one output flipped on a rare input
    pattern; the last two may be inconsistent with the camouflaged DAG."""
    n_in = draw(st.integers(5, 9))
    nets = [f"i{k}" for k in range(n_in)]
    gates = []
    for k in range(draw(st.integers(3, 12))):
        fanin = draw(st.lists(st.sampled_from(nets), min_size=2, max_size=2, unique=True))
        gates.append(Gate(f"g{k}", draw(st.sampled_from(BINARY_KINDS)), tuple(fanin)))
        nets.append(f"g{k}")
    # Every gate that no other gate reads is an output, so that each CAMO
    # gate reaches one; a few other nets may be outputs too.
    read = {net for g in gates for net in g.fanin}
    outputs = [g.name for g in gates if g.name not in read]
    outputs += draw(st.lists(st.sampled_from(nets), max_size=2, unique=True))
    n = Netlist(nets[:n_in], list(dict.fromkeys(outputs)), gates)
    picks = draw(st.permutations([g.name for g in gates]))[: draw(st.integers(1, 3))]
    camo, cfg = camouflage(n, gates=picks)
    oracle_kind = draw(st.sampled_from(["truth", "candidate", "mutant", "rare"]))
    if oracle_kind == "truth":
        oracle, bindings = camo, cfg.bindings()
    elif oracle_kind == "candidate":
        oracle = camo
        bindings = {nm: TruthTable2(draw(st.integers(0, 15))) for nm in picks}
    elif oracle_kind == "mutant":
        k = draw(st.integers(0, len(gates) - 1))
        kind = draw(st.sampled_from([x for x in BINARY_KINDS if x != gates[k].kind]))
        mutated = gates[:k] + [Gate(gates[k].name, kind, gates[k].fanin)] + gates[k + 1 :]
        oracle, bindings = Netlist(n.inputs, n.outputs, mutated), None
    else:
        # One output flipped where 2-4 drawn inputs are all 1: an oracle
        # that is usually found out only after several queries.
        k = draw(st.integers(0, len(n.outputs) - 1))
        rare = draw(st.lists(st.sampled_from(n.inputs), min_size=2, max_size=4, unique=True))
        flipped = list(n.outputs)
        flipped[k] = "flip"
        extra = [Gate("rare", "AND", tuple(rare)), Gate("flip", "XOR", (n.outputs[k], "rare"))]
        oracle, bindings = Netlist(n.inputs, flipped, gates + extra), None
    strategy = draw(st.sampled_from(["exhaustive", "random"]))
    kwargs = {"oracle_bindings": bindings, "strategy": strategy}
    if strategy == "random":
        kwargs.update(n_queries=draw(st.integers(1, 200)), seed=draw(st.integers(0, 99)))
    cone_words = draw(st.sampled_from([attack._CONE_WORDS, 1]))
    return camo, oracle, kwargs, cone_words


def _stop_index(camo, got, kwargs):
    """The index of the query at which a run stopped pruning, or None when it
    ran out of queries with more than one candidate left."""
    if got[0] == "returned":
        return len(got[1]) - 1 if got[2][-1] == 1 else None
    if got[1] is not DomainError:
        return None
    vec = ast.literal_eval(re.search(r"to query (\([^)]*\))", got[2]).group(1))
    queries = list(reference_query_vectors(
        len(camo.inputs), kwargs["strategy"], kwargs.get("n_queries"), kwargs.get("seed")
    ))
    # A repeated query eliminates nothing, so the first one is the stop.
    return queries.index(vec)


class TestJointModeDifferential:
    def test_drawn_dags_match_reference(self):
        """Drawn DAGs, oracles and query counts against the reference. The
        draws must stop at one and at zero survivors inside a batch (before
        its last query), each with and without a compaction before it."""
        reached = set()

        @given(case=_attack_cases())
        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        def check(case):
            camo, oracle, kwargs, cone_words = case
            calls = []
            rebuild = attack._compact_lanes

            def spy(*args):
                calls.append(args)
                return rebuild(*args)

            with mock.patch.object(attack, "_compact_lanes", spy), \
                    mock.patch.object(attack, "_CONE_WORDS", cone_words):
                got = assert_matches_reference(camo, oracle, **kwargs)
            stop = _stop_index(camo, got, kwargs)
            total = kwargs.get("n_queries", 2 ** len(camo.inputs))
            if stop is not None and (stop + 1) % 64 and stop + 1 < total:
                reached.add((got[0], bool(calls)))

        check()
        assert reached == {
            ("returned", False), ("returned", True), ("raised", False), ("raised", True),
        }


class TestJointModeErrors:
    def test_oracle_with_other_inputs(self, c17):
        camo, _ = camo_c17(c17, ["16"])
        wider = Netlist(
            c17.inputs + ("extra",),
            c17.outputs,
            list(c17.gates) + [Gate("x", "NOT", ("extra",))],
        )
        for oracle in (wider, Netlist(c17.inputs[:4], ["1"], [])):
            got = assert_matches_reference(camo, oracle)
            assert got[:2] == ("raised", UsageError)

    def test_oracle_that_eliminates_every_candidate(self, c17):
        camo, _ = camo_c17(c17, ["10", "19"])
        all_or = Netlist(
            c17.inputs, c17.outputs, [Gate(g.name, "OR", g.fanin) for g in c17.gates]
        )
        got = assert_matches_reference(camo, all_or)
        assert got[:2] == ("raised", DomainError)
        # An oracle that differs only on an output outside the cone.
        camo, truth = _rare_minterm_netlist()
        other = Netlist(
            camo.inputs, camo.outputs,
            [Gate(g.name, "XNOR", g.fanin) if g.name == "o" else g for g in camo.gates],
        )
        for strategy in ("exhaustive", "random"):
            got = assert_matches_reference(
                camo, other, oracle_bindings=truth, strategy=strategy,
                n_queries=90, seed=3,
            )
            assert got[:2] == ("raised", DomainError)

    def test_random_strategy_needs_a_query_count(self, c17):
        camo, cfg = camo_c17(c17, ["16", "19"])
        for net, kwargs in ((camo, {"oracle_bindings": cfg.bindings()}), (c17, {})):
            got = assert_matches_reference(net, c17, strategy="random", **kwargs)
            assert got[:2] == ("raised", UsageError)

    def test_query_count_must_be_an_int(self, c17):
        # Checked where a missing count is, before any query is drawn: a
        # float, a bool or a string count never reaches the vector source.
        camo, cfg = camo_c17(c17, ["16", "19"])
        for n_queries in (2.5, True, "2", 2.0):
            with pytest.raises(UsageError) as exc:
                oracle_attack(
                    camo, camo, oracle_bindings=cfg.bindings(), strategy="random",
                    n_queries=n_queries,
                )
            assert str(exc.value) == f"n_queries must be an int, got {n_queries!r}"
        # An exhaustive attack reads no count.
        runs = [
            oracle_attack(camo, camo, oracle_bindings=cfg.bindings(), **count)
            for count in ({}, {"n_queries": 2.5})
        ]
        assert runs[0].query_log == runs[1].query_log
        assert runs[0].survivors == runs[1].survivors

    def test_unbound_oracle_gates(self, c17):
        camo, _ = camo_c17(c17, ["16", "19"])
        got = assert_matches_reference(camo, camo)
        assert got[:2] == ("raised", UnprogrammedGateError)
        # No CAMO gate: one candidate, so the oracle is never evaluated.
        got = assert_matches_reference(c17, camo)
        assert got == ("returned", [], [1], [()], {})


class TestOracleShape:
    """An oracle with other input or output counts is rejected once, before
    any query, in joint and in marginal mode and with no CAMO gate."""

    MODES = ({}, {"joint_limit": 0, "marginal_fallback": True})

    @pytest.fixture
    def oracles(self, c17):
        wider = Netlist(
            c17.inputs + ("extra",),
            c17.outputs,
            list(c17.gates) + [Gate("x", "NOT", ("extra",))],
        )
        # c17 without OUTPUT(23).
        short = Netlist(c17.inputs, c17.outputs[:1], c17.gates)
        return [
            (wider, "expected 6 input bits, got 5"),
            (short, "expected 2 output bits, got 1"),
        ]

    @pytest.mark.parametrize("kwargs", MODES, ids=["joint", "marginal"])
    def test_camouflaged_netlist(self, c17, oracles, kwargs):
        camo, cfg = camo_c17(c17, ["19"])
        for oracle, message in oracles:
            for queries in ({}, {"strategy": "random", "n_queries": 0}):
                with pytest.raises(UsageError) as exc:
                    oracle_attack(camo, oracle, **queries, **kwargs)
                assert str(exc.value) == message
        # The matching oracle still prunes gate 19 down to its function.
        state = oracle_attack(camo, c17, **kwargs)
        assert state.marginals == {"19": {cfg.bindings()["19"]}}

    @pytest.mark.parametrize("kwargs", MODES, ids=["joint", "marginal"])
    def test_no_camo_gate(self, c17, oracles, kwargs):
        for oracle, message in oracles:
            with pytest.raises(UsageError) as exc:
                oracle_attack(c17, oracle, **kwargs)
            assert str(exc.value) == message

    @pytest.mark.parametrize("kwargs", MODES, ids=["joint", "marginal"])
    def test_strategy_checked_first(self, c17, oracles, kwargs):
        camo, _ = camo_c17(c17, ["19"])
        for oracle, _ in oracles:
            for net in (camo, c17):
                with pytest.raises(UsageError, match="unknown query strategy 'dfs'"):
                    oracle_attack(net, oracle, strategy="dfs", **kwargs)


class TestMarginalFallback:
    def test_runs_beyond_joint_limit_and_stays_sound(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=0)
        state = oracle_attack(
            camo,
            camo,
            oracle_bindings=cfg.bindings(),
            marginal_fallback=True,
        )
        assert state.mode == "marginal"
        for name in state.camo_gates:
            assert cfg.bindings()[name] in state.marginals[name]
        history = state.survivor_history
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_marginal_prunes_something(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=0)
        state = oracle_attack(
            camo, camo, oracle_bindings=cfg.bindings(), marginal_fallback=True
        )
        assert state.joint_survivors < 16 ** 6


    def test_inconsistent_oracle_is_domain_error(self, c17):
        camo, _ = camo_c17(c17, ["22"])
        oracle = Netlist(
            c17.inputs,
            c17.outputs,
            [Gate("22", "XOR", ("1", "7")), Gate("23", "AND", ("1", "1"))],
        )
        # Gate 22's candidates fall 16 -> 8 -> 0 over the first two queries.
        emptied_by = list(product((0, 1), repeat=5))[1]
        with pytest.raises(DomainError, match=re.escape(str(emptied_by))):
            oracle_attack(camo, oracle, joint_limit=1, marginal_fallback=True)


def _marginal_outcome(fn, camo, oracle, **kwargs):
    """What one marginal-mode run returns or raises, in comparable form."""
    try:
        state = fn(camo, oracle, **kwargs)
    except Exception as exc:  # compared with the reference's error below
        return ("raised", type(exc), str(exc))
    return (
        "returned",
        state.mode,
        state.query_log,
        state.survivor_history,
        state.marginals,
        state.survivors is None,
    )


def assert_marginal_matches_reference(camo, oracle, joint_limit=1, **kwargs):
    got = _marginal_outcome(
        oracle_attack, camo, oracle, joint_limit=joint_limit,
        marginal_fallback=True, **kwargs,
    )
    assert got == _marginal_outcome(reference_marginal_attack, camo, oracle, **kwargs)
    return got


class TestMarginalModeMatchesReference:
    def test_c17_all_six(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=0)
        got = assert_marginal_matches_reference(
            camo, camo, joint_limit=16**6 - 1, oracle_bindings=cfg.bindings()
        )
        assert got[:2] == ("returned", "marginal") and got[5] is True
        assert got[3][0] == 16**6 > got[3][-1]

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_every_c17_subset(self, c17, size):
        for names in combinations(c17.gate_map, size):
            camo, cfg = camo_c17(c17, names)
            assert_marginal_matches_reference(
                camo, camo, oracle_bindings=cfg.bindings()
            )

    @pytest.mark.parametrize("strategy", ["exhaustive", "random"])
    def test_seeded_dags(self, strategy):
        # NOT, BUF and 3-input gates are common here, so that an unknown
        # CAMO output runs through every kind's three-valued rule.
        kinds_in_cones = set()
        outcomes = {"returned": 0, "raised": 0}
        for seed in range(40):
            rng = random.Random(9400 + seed)
            n = random_netlist(
                rng, max_inputs=7, max_gates=20, unary_weight=0.3, wide_weight=0.3
            )
            eligible = [g.name for g in n.gates if len(g.fanin) == 2]
            if not eligible:
                continue
            picks = rng.sample(eligible, min(len(eligible), rng.randint(1, 4)))
            camo, cfg = camouflage(n, gates=picks)
            # Gate k writes slot n + k; scratch slots of n-ary folds follow.
            cone, _ = attack._split_cone(camo)
            slots = {out - len(camo.inputs) for _, out, _, _ in cone}
            kinds_in_cones |= {
                (g.kind, len(g.fanin)) for k, g in enumerate(camo.gates) if k in slots
            }
            kwargs = {
                "strategy": strategy, "n_queries": rng.randint(0, 60), "seed": seed
            }
            # A wrong candidate as the oracle's bindings: consistent, but not
            # the original function.
            wrong = {nm: rng.choice(list(TruthTable2)) for nm in camo.camo_gates}
            # The original with one gate's kind changed: often inconsistent.
            victim = rng.choice(n.gates)
            other = rng.choice(sorted({"AND", "OR", "XOR", "XNOR"} - {victim.kind}))
            mutant = Netlist(
                n.inputs, n.outputs,
                [Gate(g.name, other, g.fanin) if g is victim and len(g.fanin) > 1
                 else g for g in n.gates],
            )
            for oracle, bindings in ((camo, cfg.bindings()), (n, None),
                                     (camo, wrong), (mutant, None)):
                got = assert_marginal_matches_reference(
                    camo, oracle, oracle_bindings=bindings, **kwargs
                )
                outcomes[got[0]] += 1
        for kind in ("AND", "OR", "NAND", "NOR", "XOR", "XNOR"):
            assert (kind, 3) in kinds_in_cones
        assert {("NOT", 1), ("BUF", 1)} <= kinds_in_cones
        assert outcomes["returned"] and outcomes["raised"]

    def test_slot_form_netlists(self):
        # The cones run n-ary folds through scratch slots, BUF chains and
        # outputs that are inputs or BUF aliases.
        folds_in_cones = 0
        for seed in range(24):
            rng = random.Random(5100 + seed)
            n = slot_form_netlist(rng)
            eligible = [g.name for g in n.gates if len(g.fanin) == 2]
            if not eligible:
                continue
            camo, cfg = camouflage(n, gates=rng.sample(eligible, min(3, len(eligible))))
            cone, _ = attack._split_cone(camo)
            folds_in_cones += any(
                out >= len(camo.inputs) + len(camo.gates) for _, out, _, _ in cone
            )
            wrong = {nm: rng.choice(list(TruthTable2)) for nm in camo.camo_gates}
            for oracle, bindings in ((camo, cfg.bindings()), (n, None), (camo, wrong)):
                assert_marginal_matches_reference(
                    camo, oracle, oracle_bindings=bindings,
                    strategy="random", n_queries=24, seed=seed,
                )
        assert folds_in_cones > 10

    def test_errors(self, c17):
        camo, cfg = camo_c17(c17, ["16", "19"])
        bound = {"oracle_bindings": cfg.bindings()}
        wider = Netlist(
            c17.inputs + ("extra",),
            c17.outputs,
            list(c17.gates) + [Gate("x", "NOT", ("extra",))],
        )
        all_or = Netlist(
            c17.inputs, c17.outputs, [Gate(g.name, "OR", g.fanin) for g in c17.gates]
        )
        cases = [
            (camo, camo, {}, UnprogrammedGateError),
            (camo, camo, {**bound, "strategy": "dfs"}, UsageError),
            (camo, camo, {**bound, "strategy": "random"}, UsageError),
            (camo, wider, {}, UsageError),
            (camo, all_or, {}, DomainError),
        ]
        for net, oracle, kwargs, error in cases:
            got = assert_marginal_matches_reference(net, oracle, **kwargs)
            assert got[:2] == ("raised", error)
        wide = Netlist([f"i{k}" for k in range(21)], ["c"],
                       [Gate("c", "CAMO", ("i0", "i20"))])
        got = assert_marginal_matches_reference(wide, wide)
        assert got[:2] == ("raised", UsageError)
        # No CAMO gate: the strategy is still checked, the oracle never run.
        for strategy, want in (("exhaustive", "returned"), ("dfs", "raised")):
            got = assert_marginal_matches_reference(
                c17, camo, joint_limit=0, strategy=strategy
            )
            assert got[0] == want
        assert got[1:] == (UsageError, "unknown query strategy 'dfs'")


class TestResilienceReport:
    def test_zero_queries_eight_bits(self, c17):
        camo, cfg = camo_c17(c17, ["16", "19"])
        state = oracle_attack(
            camo, camo, oracle_bindings=cfg.bindings(), strategy="random", n_queries=0
        )
        report = resilience_report(state)
        assert report["joint_survivors"] == 256
        assert report["ambiguity_bits"] == 8.0
        assert report["queries"] == 0
        assert report["resolved_gate_fraction"] == 0.0

    def test_fully_resolved_zero_bits(self, c17):
        state = oracle_attack(c17, c17)
        assert state.mode == "joint"
        assert state.survivor_history == [1]
        assert state.survivors == [()]
        assert state.marginals == {}
        assert state.query_log == []
        report = resilience_report(state)
        assert report["joint_survivors"] == 1
        assert report["ambiguity_bits"] == 0.0
        assert report["resolved_gate_fraction"] == 1.0

    def test_exhaustive_two_gate_bits_match_brute_force(self, c17):
        camo, cfg = camo_c17(c17, ["16", "19"])
        state = oracle_attack(camo, camo, oracle_bindings=cfg.bindings())

        # Independent brute force: enumerate all 256 joint bindings and keep
        # those matching the oracle on every one of the 32 input vectors.
        from tvdcamo.bench import eval_logic

        survivors = 0
        for f16, f19 in product(TruthTable2, repeat=2):
            bindings = {"16": f16, "19": f19}
            ok = True
            for bits in product((0, 1), repeat=5):
                if eval_logic(camo, bits, bindings) != eval_logic(
                    camo, bits, cfg.bindings()
                ):
                    ok = False
                    break
            survivors += ok
        assert state.joint_survivors == survivors
        assert resilience_report(state)["ambiguity_bits"] == math.log2(survivors)

    def test_queries_to_resolution_is_first_query_at_final_count(self):
        state = CandidateState(
            camo_gates=(), mode="joint", marginals={}, survivor_history=[16, 4, 2, 2, 2]
        )
        assert state.queries_to_resolution == 2
        state.survivor_history = [1]
        assert state.queries_to_resolution == 0

    def test_report_keys(self, c17):
        camo, cfg = camo_c17(c17, ["16"])
        report = resilience_report(
            oracle_attack(camo, camo, oracle_bindings=cfg.bindings())
        )
        assert {
            "mode",
            "queries",
            "joint_survivors",
            "ambiguity_bits",
            "queries_to_resolution",
            "resolved_gate_fraction",
            "per_gate_marginals",
        } <= set(report)
