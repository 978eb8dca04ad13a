"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
from itertools import product

import numpy as np
import pytest

from conftest import random_netlist
from tvdcamo.attack import (
    ELECTROLYTE,
    IMPLANT,
    DeviceVisibility,
    oracle_attack,
    profiling_attack,
    reconstruct,
    resilience_report,
)
from tvdcamo.camo import camouflage, verify_equivalence
from tvdcamo.device import BiasPoint, IsfetParams, ids, iv_sweep, vth_from_ph
from tvdcamo.gates import (
    GatePhProgram,
    TruthTable2,
    assignment_for,
    evaluate_static,
    function_of,
)
from tvdcamo.transient import SimConfig, simulate

PARAMS = IsfetParams()
CFG = SimConfig()


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _program(f: TruthTable2, ph_low=2.0, ph_high=10.0) -> GatePhProgram:
    return GatePhProgram(ph_low=ph_low, ph_high=ph_high, assignment=assignment_for(f))


def test_criterion_1_nernst_law():
    failures = []
    for ph in (0.0, 2.0, 7.0, 13.0):
        shift = vth_from_ph(PARAMS, ph + 1.0) - vth_from_ph(PARAMS, ph)
        if abs(shift - 0.059) > 1e-12:
            failures.append(f"shift at pH {ph} is {shift!r}")
    gap = vth_from_ph(PARAMS, 10.0) - vth_from_ph(PARAMS, 2.0)
    if abs(gap - 0.472) > 1e-12:
        failures.append(f"vth(10)-vth(2) = {gap!r}")
    _report(1, "Nernst law", failures)


def test_criterion_2_current_ordering():
    failures = []
    ratio = ids(PARAMS, BiasPoint(1.8, 0.1, 2.0)) / ids(PARAMS, BiasPoint(1.8, 0.1, 10.0))
    if abs(ratio - 1.4826) > 0.0001:
        failures.append(f"I(pH2)/I(pH10) = {ratio!r}")
    table = iv_sweep(PARAMS, [1.8], 0.1, np.linspace(0.0, 14.0, 14))
    currents = table[:, 2]
    if not np.all(np.diff(currents) <= 0):
        failures.append("I_DS not non-increasing over the 14-point pH grid")
    _report(2, "current ordering", failures)


def test_criterion_3_xor_reproduction():
    failures = []
    prog = _program(TruthTable2.XOR)
    bits = []
    for a, b in product((0, 1), repeat=2):
        trace = simulate(prog, PARAMS, CFG, a, b)
        bits.append(trace.resolved_output)
    if bits != [0, 1, 1, 0]:
        failures.append(f"XOR outputs {bits}")
    trace = simulate(prog, PARAMS, CFG, 0, 0)
    ev = trace.v_out[trace.eval_start_index :]
    bar = trace.v_out_bar[trace.eval_start_index :]
    if not bar[-1] < 0.1 * PARAMS.vdd:
        failures.append("V̄_OUT did not collapse on minterm (0,0)")
    dipped = ev.min() < PARAMS.vdd - 0.05
    recovered = ev[-1] > ev.min() + 0.05
    stayed_high = ev.min() > CFG.trip_at(PARAMS.vdd)
    if not (dipped and recovered and stayed_high):
        failures.append(
            f"V_OUT dip/recovery violated (min {ev.min():.3f}, final {ev[-1]:.3f})"
        )
    _report(3, "XOR reproduction", failures)


def test_criterion_4_universality():
    failures = []
    for f in TruthTable2:
        if function_of(assignment_for(f)) is not f:
            failures.append(f"round trip broke for {f.name}")
        prog = _program(f)
        for a, b in product((0, 1), repeat=2):
            static = evaluate_static(prog, PARAMS, a, b)
            transient = simulate(prog, PARAMS, CFG, a, b).resolved_output
            if not (static == transient == f.eval(a, b)):
                failures.append(f"{f.name}({a},{b}): static {static} transient {transient}")
    _report(4, "universality (16 functions, 64 checks)", failures)


def test_criterion_5_compiler_correctness(c17):
    failures = []
    camo, cfg = camouflage(c17, fraction=0.5, seed=17)
    result = verify_equivalence(c17, camo, bindings=cfg.bindings())
    if not (result.equivalent and result.vectors_checked == 32):
        failures.append(f"c17: {result}")
    for seed in range(200):
        rng = random.Random(90000 + seed)
        n = random_netlist(rng, max_inputs=12, max_gates=30)
        camo, cfg = camouflage(n, fraction=rng.random(), seed=seed)
        result = verify_equivalence(n, camo, bindings=cfg.bindings())
        if not result.equivalent:
            failures.append(f"seed {seed}: counterexample {result.counterexample}")
    _report(5, "compiler correctness (c17 + 200 random netlists)", failures)


def test_criterion_6_security_dichotomy(c17):
    failures = []
    camo, cfg = camouflage(c17, fraction=1.0, seed=5)
    implant = profiling_attack(camo, DeviceVisibility.from_config(cfg, IMPLANT))
    resolved = sum(1 for f in implant.values() if f is not None)
    if resolved != len(implant):
        failures.append(f"implant build resolved {resolved}/{len(implant)}")
    elif reconstruct(camo, implant) != c17:
        failures.append("implant reconstruction differs from the original")
    electrolyte = profiling_attack(camo, DeviceVisibility.from_config(cfg, ELECTROLYTE))
    leaked = sum(1 for f in electrolyte.values() if f is not None)
    if leaked != 0:
        failures.append(f"electrolyte build leaked {leaked} gates")
    _report(6, "security dichotomy (100% vs 0%)", failures)


def test_criterion_7_attack_soundness_and_ambiguity(c17):
    failures = []
    camo, cfg = camouflage(c17, gates=["16", "19"])
    truth = tuple(cfg.bindings()[name] for name in camo.camo_gates)

    blank = oracle_attack(
        camo, camo, oracle_bindings=cfg.bindings(), strategy="random", n_queries=0
    )
    if blank.joint_survivors != 256 or blank.ambiguity_bits != 8.0:
        failures.append(
            f"zero queries: {blank.joint_survivors} survivors, "
            f"{blank.ambiguity_bits} bits"
        )

    state = oracle_attack(camo, camo, oracle_bindings=cfg.bindings())
    if truth not in state.survivors:
        failures.append("true binding pruned")
    history = state.survivor_history
    if not all(a >= b for a, b in zip(history, history[1:])):
        failures.append("survivor counts increased")
    for survivor in state.survivors:
        bindings = dict(zip(state.camo_gates, survivor))
        if not verify_equivalence(c17, camo, bindings=bindings).equivalent:
            failures.append(f"survivor {survivor} not equivalent to the oracle")
    report = resilience_report(state)
    if report["ambiguity_bits"] != math.log2(state.joint_survivors):
        failures.append("ambiguity accounting inconsistent")
    _report(7, "attack soundness and ambiguity accounting", failures)


def test_criterion_8_numerical_robustness():
    failures = []
    fine = SimConfig(dt=CFG.dt / 2)
    for f in TruthTable2:
        prog = _program(f)
        for a, b in product((0, 1), repeat=2):
            coarse = simulate(prog, PARAMS, CFG, a, b)
            refined = simulate(prog, PARAMS, fine, a, b)
            if coarse.resolved_output != refined.resolved_output:
                failures.append(f"{f.name}({a},{b}) flipped under dt halving")
            elif coarse.resolve_time is not None:
                rel = abs(coarse.resolve_time - refined.resolve_time) / coarse.resolve_time
                if rel >= 0.05:
                    failures.append(f"{f.name}({a},{b}) resolve_time moved {rel:.3f}")
    _report(8, "numerical robustness (dt refinement, 64 scenarios)", failures)
