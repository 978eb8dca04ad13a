import math
import random
import re
from itertools import product

import pytest

from conftest import naive_eval, random_netlist
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
from tvdcamo.bench import Gate, Netlist
from tvdcamo.errors import CapacityError, CoverageError, DomainError, UsageError
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
