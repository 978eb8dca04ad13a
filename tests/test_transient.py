import dataclasses
import io
import math
import random
from itertools import product
from math import inf, nan

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    GATE_CHAR_CLOCKS,
    GATE_CHAR_PAIRS,
    first_difference,
    reference_integrate,
    reference_margin_report,
    reference_race,
    reference_simulate,
)
from tvdcamo import _kernels, device, transient
from tvdcamo.device import IsfetParams
from tvdcamo.errors import SimulationError, UsageError
from tvdcamo.gates import GatePhProgram, TruthTable2, assignment_for, evaluate_static
from tvdcamo.transient import (
    GateTrace,
    SimConfig,
    margin_report,
    simulate,
    write_margin_csv,
    write_trace_csv,
)

PARAMS = IsfetParams()
CFG = SimConfig()


def program_for(f: TruthTable2, ph_low=2.0, ph_high=10.0) -> GatePhProgram:
    return GatePhProgram(ph_low=ph_low, ph_high=ph_high, assignment=assignment_for(f))


XOR_PROGRAM = program_for(TruthTable2.XOR)


@pytest.fixture(scope="module")
def xor_traces() -> dict[tuple[int, int], GateTrace]:
    return {
        (a, b): simulate(XOR_PROGRAM, PARAMS, CFG, a, b)
        for a, b in product((0, 1), repeat=2)
    }


class TestXorReproduction:
    def test_output_bits(self, xor_traces):
        bits = [xor_traces[(a, b)].resolved_output for a, b in product((0, 1), repeat=2)]
        assert bits == [0, 1, 1, 0]

    def test_minterm_00_winner_dips_and_recovers(self, xor_traces):
        trace = xor_traces[(0, 0)]
        ev = trace.v_out[trace.eval_start_index :]
        bar = trace.v_out_bar[trace.eval_start_index :]
        # V̄_OUT collapses while V_OUT dips but stays above the trip point.
        assert bar[-1] < 0.1 * PARAMS.vdd
        assert ev.min() < PARAMS.vdd - 0.05
        assert ev[-1] > ev.min() + 0.05
        assert ev.min() > CFG.trip_at(PARAMS.vdd)

    def test_resolve_time_positive_and_within_eval(self, xor_traces):
        for trace in xor_traces.values():
            assert trace.resolve_time is not None
            assert 0 < trace.resolve_time < CFG.period / 2


class TestSimulateContracts:
    def test_voltage_bounds(self, xor_traces):
        for trace in xor_traces.values():
            for wave in (trace.v_out, trace.v_out_bar, trace.out, trace.out_bar):
                assert wave.min() >= 0.0
                assert wave.max() <= PARAMS.vdd

    def test_precharge_pins_nodes_high_and_outputs_low(self, xor_traces):
        trace = xor_traces[(0, 0)]
        i0 = trace.eval_start_index
        assert np.all(trace.v_out[: i0 + 1] >= 0.99 * PARAMS.vdd)
        assert np.all(trace.v_out_bar[: i0 + 1] >= 0.99 * PARAMS.vdd)
        assert np.all(trace.out[: i0 + 1] == 0.0)
        assert np.all(trace.out_bar[: i0 + 1] == 0.0)

    def test_deterministic(self):
        t1 = simulate(XOR_PROGRAM, PARAMS, CFG, 1, 0)
        t2 = simulate(XOR_PROGRAM, PARAMS, CFG, 1, 0)
        assert np.array_equal(t1.v_out, t2.v_out)
        assert np.array_equal(t1.v_out_bar, t2.v_out_bar)
        assert t1.resolved_output == t2.resolved_output
        assert t1.resolve_time == t2.resolve_time

    def test_symmetric_program_unresolved(self):
        prog = program_for(TruthTable2.XOR, ph_low=5.0, ph_high=5.0)
        trace = simulate(prog, PARAMS, CFG, 0, 0)
        assert trace.resolved_output is None
        assert trace.resolve_time is None
        assert trace.output_str == "unresolved"
        assert np.array_equal(trace.v_out, trace.v_out_bar)

    def test_and_minterm_11_high(self):
        trace = simulate(program_for(TruthTable2.AND), PARAMS, CFG, 1, 1)
        assert trace.resolved_output == 1

    def test_agrees_with_static_for_all_functions(self):
        for f in TruthTable2:
            prog = program_for(f)
            for a, b in product((0, 1), repeat=2):
                static = evaluate_static(prog, PARAMS, a, b)
                trace = simulate(prog, PARAMS, CFG, a, b)
                assert trace.resolved_output == static == f.eval(a, b)

    def test_dt_refinement_stability(self):
        fine = SimConfig(dt=CFG.dt / 2)
        for f in (TruthTable2.XOR, TruthTable2.NOR):
            prog = program_for(f)
            for a, b in product((0, 1), repeat=2):
                t1 = simulate(prog, PARAMS, CFG, a, b)
                t2 = simulate(prog, PARAMS, fine, a, b)
                assert t1.resolved_output == t2.resolved_output
                assert abs(t1.resolve_time - t2.resolve_time) < 0.05 * t1.resolve_time

    def test_supply_is_the_device_vdd(self):
        params = IsfetParams(vdd=1.5, vth0=0.3)
        for a, b in product((0, 1), repeat=2):
            trace = simulate(XOR_PROGRAM, params, CFG, a, b)
            i0 = trace.eval_start_index
            assert np.all(trace.v_out[: i0 + 1] == 1.5)
            assert np.all(trace.v_out_bar[: i0 + 1] == 1.5)
            assert set(np.unique(np.concatenate([trace.out, trace.out_bar]))) <= {0.0, 1.5}
            assert trace.resolved_output == evaluate_static(XOR_PROGRAM, params, a, b)

    def test_overcoarse_dt_raises_simulation_error(self):
        # dt = 0.4 ns passes config validation but a single Euler step then
        # overshoots the voltage corridor and must be reported.
        from tvdcamo.errors import SimulationError

        cfg = SimConfig(dt=4e-10)
        with pytest.raises(SimulationError) as exc:
            simulate(XOR_PROGRAM, PARAMS, cfg, 0, 0)
        assert "reduce dt" in str(exc.value)

    def test_bad_input_bits_rejected(self):
        with pytest.raises(ValueError):
            simulate(XOR_PROGRAM, PARAMS, CFG, 2, 0)


class TestSimConfig:
    def test_defaults(self):
        assert CFG.period == pytest.approx(5e-8)
        assert CFG.n_steps == 50000
        assert CFG.trip_at(PARAMS.vdd) == pytest.approx(0.9)

    def test_coarse_dt_rejected(self):
        with pytest.raises(UsageError):
            SimConfig(dt=1e-9)

    @pytest.mark.parametrize(
        "kwargs", [{"clock_freq": 1.0}, {"clock_freq": 1e-300}, {"dt": 1e-320}]
    )
    def test_too_many_steps_rejected(self, kwargs):
        with pytest.raises(UsageError, match="steps"):
            SimConfig(**kwargs)

    def test_step_ceiling_allows_exactly_the_ceiling(self):
        assert SimConfig(clock_freq=1e5).n_steps == transient._MAX_STEPS

    def test_bad_trip_rejected(self):
        with pytest.raises(UsageError):
            transient.check_supply(PARAMS, SimConfig(trip=2.0))

    def test_trip_too_long_to_print_is_named_by_its_digits(self):
        with pytest.raises(UsageError) as exc:
            transient.check_supply(PARAMS, SimConfig(trip=10**5000))
        assert str(exc.value) == "trip must lie inside (0, vdd), got an int of 5001 digits"

    def test_bad_margin_rejected(self):
        with pytest.raises(UsageError):
            transient.check_supply(PARAMS, SimConfig(resolve_margin=0.0))

    def test_supply_bounds_are_not_checked_at_construction(self):
        # They need the device supply, which a SimConfig does not hold.
        assert SimConfig(trip=2.0).trip == 2.0
        assert SimConfig(resolve_margin=0.0).resolve_margin == 0.0


# (device params, config) -> the UsageError that check_supply raises.
SUPPLY_BOUND_CASES = {
    "trip above vdd": (PARAMS, SimConfig(trip=2.0), "trip must lie inside (0, vdd), got 2.0"),
    "trip at zero": (PARAMS, SimConfig(trip=0.0), "trip must lie inside (0, vdd), got 0.0"),
    "trip at vdd": (
        IsfetParams(vdd=1.5), SimConfig(trip=1.5), "trip must lie inside (0, vdd), got 1.5"
    ),
    "margin at zero": (
        PARAMS, SimConfig(resolve_margin=0.0),
        "resolve_margin must lie inside (0, vdd), got 0.0",
    ),
    "margin above vdd": (
        PARAMS, SimConfig(resolve_margin=1.9),
        "resolve_margin must lie inside (0, vdd), got 1.9",
    ),
    "pmos threshold above vdd": (
        IsfetParams(vdd=0.4, vth0=0.1), CFG, "pmos_vth must lie inside (0, vdd), got 0.5"
    ),
    "pmos threshold at vdd": (
        IsfetParams(vdd=0.5, vth0=0.1), CFG, "pmos_vth must lie inside (0, vdd), got 0.5"
    ),
}


class TestSupplyBounds:
    """The trip point, the resolve margin and ``PMOS_VTH`` each lie inside
    (0, vdd) of the device supply, checked by ``check_supply`` before any
    race runs."""

    @pytest.mark.parametrize("case", sorted(SUPPLY_BOUND_CASES))
    @pytest.mark.parametrize(
        "run",
        [
            lambda p, c: transient.check_supply(p, c),
            lambda p, c: simulate(XOR_PROGRAM, p, c, 0, 1),
            lambda p, c: margin_report(XOR_PROGRAM, p, c),
        ],
        ids=["check_supply", "simulate", "margin_report"],
    )
    def test_rejected(self, case, run):
        params, cfg, message = SUPPLY_BOUND_CASES[case]
        with pytest.raises(UsageError) as exc:
            run(params, cfg)
        assert str(exc.value) == message

    def test_trip_is_checked_first(self):
        cfg = SimConfig(trip=2.0, resolve_margin=1.9)
        with pytest.raises(UsageError, match="^trip "):
            simulate(XOR_PROGRAM, IsfetParams(vdd=0.4, vth0=0.1), cfg, 0, 1)

    def test_pmos_threshold_is_a_constant(self):
        assert transient.PMOS_VTH == 0.5
        assert reference_race(XOR_PROGRAM, PARAMS, CFG, 0, 1)[-1] == transient.PMOS_VTH
        assert transient._race(XOR_PROGRAM, PARAMS, CFG)[-1] == transient.PMOS_VTH

    def test_sim_config_fields(self):
        names = [f.name for f in dataclasses.fields(SimConfig)]
        assert names == ["clock_freq", "c_node", "dt", "trip", "resolve_margin"]


class TestMarginReport:
    def test_default_ratio(self):
        rows = margin_report(XOR_PROGRAM, PARAMS, CFG)
        assert len(rows) == 4
        for row in rows:
            assert row["current_ratio"] == pytest.approx(1.4826, abs=1e-4)
            assert row["resolve_time"] is not None

    def test_outputs_follow_function(self):
        rows = margin_report(XOR_PROGRAM, PARAMS, CFG)
        assert [r["output"] for r in rows] == [0, 1, 1, 0]

    def test_degenerate_ratio_exactly_one(self):
        rows = margin_report(program_for(TruthTable2.XOR, 5.0, 5.0), PARAMS, CFG)
        assert all(r["current_ratio"] == 1.0 for r in rows)
        assert all(r["output"] is None for r in rows)

    def test_raising_ph_high_raises_ratio(self):
        r10 = margin_report(XOR_PROGRAM, PARAMS, CFG)[0]["current_ratio"]
        r12 = margin_report(program_for(TruthTable2.XOR, 2.0, 12.0), PARAMS, CFG)[0][
            "current_ratio"
        ]
        assert r12 > r10

    def test_csv_shape(self):
        buf = io.StringIO()
        write_margin_csv(margin_report(XOR_PROGRAM, PARAMS, CFG), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "minterm,a,b,current_ratio,resolve_time,output"
        assert len(lines) == 5


# name -> (program, config, passes the divergence bound, outcome). Only a
# config that passes the bound may stop before the end of the period.
RESOLVE_CASES = {
    "20MHz": (XOR_PROGRAM, CFG, True, "resolved"),
    "1GHz": (XOR_PROGRAM, SimConfig(clock_freq=1e9), True, "resolved"),
    "2GHz": (XOR_PROGRAM, SimConfig(clock_freq=2e9), True, "resolved"),
    "ph2-2.5-2GHz": (
        program_for(TruthTable2.AND, 2.0, 2.5), SimConfig(clock_freq=2e9), True, "unresolved"
    ),
    "symmetric": (
        program_for(TruthTable2.XOR, 5.0, 5.0), SimConfig(clock_freq=1e9), True, "unresolved"
    ),
    "diverging": (XOR_PROGRAM, SimConfig(dt=4e-10), False, "diverged"),
    # One step can move a node by 0.056 V: not provably inside the guard
    # band, so the whole half is integrated, but it never leaves it.
    "fallback": (
        program_for(TruthTable2.NOR),
        SimConfig(clock_freq=1e9, c_node=1.5e-15),
        False,
        "resolved",
    ),
}


class TestResolveOnly:
    @pytest.mark.parametrize("case", sorted(RESOLVE_CASES))
    def test_margin_report_matches_full_simulation(self, case):
        program, cfg, bounded, outcome = RESOLVE_CASES[case]
        assert transient._cannot_diverge(reference_race(program, PARAMS, cfg, 0, 0)) is bounded
        if outcome == "diverged":
            with pytest.raises(SimulationError) as slow:
                simulate(program, PARAMS, cfg, 0, 0)
            with pytest.raises(SimulationError) as fast:
                margin_report(program, PARAMS, cfg)
            assert str(fast.value) == str(slow.value)
            return
        full = [simulate(program, PARAMS, cfg, a, b) for a, b in product((0, 1), repeat=2)]
        rows = margin_report(program, PARAMS, cfg)
        assert [r["output"] for r in rows] == [t.resolved_output for t in full]
        assert [r["resolve_time"] for r in rows] == [t.resolve_time for t in full]
        assert all(t.is_resolved == (outcome == "resolved") for t in full)

    @pytest.mark.parametrize("cfg", [CFG, SimConfig(dt=4e-10)], ids=["stable", "diverging"])
    def test_chunked_kernel_calls_continue_one_call(self, cfg):
        race = reference_race(XOR_PROGRAM, PARAMS, cfg, 0, 1)
        n_total = cfg.n_steps
        n_pre = n_total // 2
        whole = [np.full(n_total + 1, PARAMS.vdd) for _ in range(2)]
        chunked = [np.full(n_total + 1, PARAMS.vdd) for _ in range(2)]
        bad_whole = _kernels.integrate(*whole, n_pre, n_total, *race)
        bounds = [n_pre, n_pre + 1, n_pre + 8, n_pre + 300, n_pre + 4097, n_total]
        bad_chunked = -1
        for start, stop in zip(bounds, bounds[1:]):
            bad_chunked = _kernels.integrate(*chunked, start, stop, *race)
            if bad_chunked >= 0:
                break
        assert bad_chunked == bad_whole
        if bad_whole < 0:
            for w, c in zip(whole, chunked):
                assert w.tobytes() == c.tobytes()
            trace = simulate(XOR_PROGRAM, PARAMS, cfg, 0, 1)
            assert trace.v_out.tobytes() == whole[0].tobytes()


@pytest.fixture
def tails(monkeypatch):
    """Every frozen-node tail the kernel runs, as (moving array, first
    sample, last sample, n_total); run_both names the frozen node instead."""
    log = []
    run_tail = _kernels._frozen_tail

    def spy(v_move, v_frozen, i, n_total, *rest):
        end, m = run_tail(v_move, v_frozen, i, n_total, *rest)
        log.append((v_move, i, end, n_total))
        return end, m

    monkeypatch.setattr(_kernels, "_frozen_tail", spy)
    return log


@pytest.fixture
def bare(monkeypatch):
    """Every block of bare decay steps the kernel computes, as (steps, kept):
    ``_frozen_tail`` keeps a block when none of its values is negative."""
    log = []
    decay = _kernels._decay

    def spy(m, n, *rest):
        ms = decay(m, n, *rest)
        log.append((n, min(ms) >= 0.0))
        return ms

    monkeypatch.setattr(_kernels, "_decay", spy)
    return log


def run_both(race, n_pre, n_total, tails, start=None, bounds=None):
    """Run the reference kernel over the whole range and the kernel, whole or
    in calls over ``bounds``; assert the same return value and array bytes.
    The tails of this run are logged with "out" or "bar", the frozen node."""
    arrays = []
    for _ in range(2):
        # -7.0 marks the samples a kernel leaves unwritten.
        pair = [np.full(n_total + 1, -7.0), np.full(n_total + 1, -7.0)]
        pair[0][n_pre], pair[1][n_pre] = (race[1], race[1]) if start is None else start
        arrays.append(pair)
    (ref_out, ref_bar), (v_out, v_bar) = arrays
    expect = reference_integrate(ref_out, ref_bar, n_pre, n_total, *race)
    k = len(tails)
    bounds = bounds or [n_pre, n_total]
    for lo, hi in zip(bounds, bounds[1:]):
        got = _kernels.integrate(v_out, v_bar, lo, hi, *race)
        if got >= 0:
            break
    tails[k:] = [("bar" if t[0] is v_out else "out", *t[1:]) for t in tails[k:]]
    assert got == expect
    assert v_out.tobytes() == ref_out.tobytes()
    assert v_bar.tobytes() == ref_bar.tobytes()
    return expect, v_out, v_bar


def random_race(rng: random.Random):
    """Circuit constants drawn wide enough that some races diverge, some
    branches never conduct and some nodes freeze."""
    vdd = rng.uniform(0.5, 3.0)
    k = 10 ** rng.uniform(-6, -3)
    return (
        rng.choice((1e-12, 1e-11, 1e-10, 4e-10)),
        vdd,
        10 ** rng.uniform(-15, -13),
        k * rng.choice((0.5, 1.0)),
        rng.uniform(0.0, 1.2 * vdd),
        k * rng.choice((0.5, 1.0)),
        rng.uniform(0.0, 1.2 * vdd),
        10 ** rng.uniform(-6, -3),
        rng.uniform(-0.2, 1.1 * vdd),
    )


VDD = PARAMS.vdd
# Races on a V_OUT held at the rail: no pull-down (threshold above vdd) and
# no p-current (zero source-drain voltage), so V_OUT freezes on the first
# step while a depletion PMOS (negative threshold) feeds V̄_OUT a constant
# current. name -> (race, start state, return value, tails run).
RAIL_RACES = {
    # 1e-18 V a step: past half an ulp of vdd after about 110 steps.
    "rises": ((1e-12, VDD, 1e-14, 1e-4, 2.0, 1e-4, 2.0, 5e-19, -0.2), (VDD, 0.0), -1, 1),
    # 1e-17 V a step into a branch that drains 3x the node's voltage a step.
    "clamped": ((1e-12, VDD, 1e-14, 1e-4, 2.0, 0.02, 0.3, 5e-18, -0.2), (VDD, 0.0), -1, 1),
    # The same at 2e16x: the entry step clamps V̄_OUT to 0, the first tail
    # step gives 1e-17 V and the second falls out of the guard band.
    "falls-out": (
        (1e-12, VDD, 1e-14, 1e-4, 2.0, 4e14 / 3, 0.3, 5e-18, -0.2), (VDD, 1e-18), 3, 1
    ),
    # 2 V a step against a drain of 2.01 V: the entry step clamps V̄_OUT to
    # 0 and the first tail step rises out of the guard band.
    "rises-out": (
        (1e-12, VDD, 1e-14, 1e-4, 2.0, 1.34e15, 0.3, 1.0, -0.2), (VDD, 1e-17), 2, 1
    ),
    # A triode p-current of 1e-5 V a step takes V̄_OUT past the bound on
    # the first step, so no tail starts.
    "leaves": ((1e-12, VDD, 1e-14, 1e-4, 2.0, 1e-4, 2.0, 5e-8, -2.0), (VDD, 0.0), -1, 0),
}


def decaying_race(r, ov=1.5, k=1.0, dt=1e-12):
    """A race whose V_OUT has no pull-down and sits at the rail, so it
    freezes on the first step, while V̄_OUT, whose PMOS that rail keeps off,
    decays through a branch of overdrive ``ov`` by about
    ``r = k * ov * dt / c_node`` of its value a step."""
    return (dt, VDD, dt * k * ov / r, 1e-4, 2.0, k, VDD - ov, 1e-4, 0.3)


# name -> (race, V̄_OUT's value at the start), under ov * 2**-55 from the
# first step unless named "late". Each reaches subnormals within one
# 25,000-step half. At ov = 0.55, ov * m rounds up far enough at the bottom
# of the subnormal range that the node reaches exact 0.0; at r = 0.96 that
# rounding overshoots below 0, so one bare block is replayed step by step.
DECAYS = {
    "r0.05": (decaying_race(0.05), 1e-17),
    "r0.1": (decaying_race(0.1), 1e-17),
    "r0.3": (decaying_race(0.3), 1e-17),
    "r0.3-to-zero": (decaying_race(0.3, ov=0.55), 1e-17),
    "r0.96-overshoot": (decaying_race(0.96, ov=0.6), 1e-17),
    # Stays above ov * 2**-55 = 4.2e-17 for its first 20 to 30 steps.
    "r0.05-late": (decaying_race(0.05), 1e-16),
    # Stiff: the entry step overshoots below 0 and clamps to 0.0.
    "r1.5-stiff": (decaying_race(1.5), 1e-17),
    "r2.5-stiff": (decaying_race(2.5), 3e-17),
}
# A race whose finite constants overflow: k * (ov * m) is inf for m > 2e-22.
OVERFLOW_RACE = (1e-12, VDD, 1e-14, 1e-4, 2.0, 1e30, -1e300, 1e-4, 0.3)
MIN_NORMAL = 2.0**-1022


class TestKernelMatchesReference:
    """The kernel against ``reference_integrate``, the loop it replaced."""

    def test_every_gate_char_race(self, tails):
        # 16 functions x 11 pH pairs x 3 clocks x 4 minterms; equal circuit
        # constants and step counts make the same call, so each runs once.
        calls = {}
        for clock in GATE_CHAR_CLOCKS:
            cfg = SimConfig(clock_freq=clock)
            for f, pair, m in product(TruthTable2, GATE_CHAR_PAIRS, range(4)):
                race = reference_race(program_for(f, *pair), PARAMS, cfg, m >> 1, m & 1)
                calls[race, cfg.n_steps] = clock, pair
        assert len(calls) == 66
        for (race, n_total), (clock, pair) in calls.items():
            del tails[:]
            assert run_both(race, n_total // 2, n_total, tails)[0] == -1
            if clock == CFG.clock_freq and pair != GATE_CHAR_PAIRS[-1]:
                # At 20 MHz a resolving pair freezes one node within the
                # first quarter of the evaluation half, for good.
                [(_, first, last, _)] = tails
                assert last == n_total
                assert first - n_total // 2 < (n_total - n_total // 2) // 4

    def test_both_orientations(self, tails):
        n_total = CFG.n_steps
        for a, b, frozen in ((0, 0, "out"), (0, 1, "bar")):
            del tails[:]
            race = reference_race(XOR_PROGRAM, PARAMS, CFG, a, b)
            _, v_out, v_bar = run_both(race, n_total // 2, n_total, tails)
            [(side, first, last, _)] = tails
            assert (side, last) == (frozen, n_total)
            fixed, moving = (v_out, v_bar) if frozen == "out" else (v_bar, v_out)
            assert np.all(fixed[first:] == fixed[first])
            assert np.all(PARAMS.vdd - moving[first:] == PARAMS.vdd)

    def test_start_states(self, tails):
        # Every pair of start values, on races whose branches conduct or never
        # do (threshold above the rail): the kernel keeps the old loop's
        # ov <= 0 tests exact for negative, NaN and infinite nodes too.
        values = (1.8, 0.9, 0.0, -0.0, -0.05, 1e-17, 5e-324, nan, inf, -inf)
        xor = reference_race(XOR_PROGRAM, PARAMS, CFG, 0, 0)
        no_pull_down = xor[:4] + (2.0,) + xor[5:6] + (2.0,) + xor[7:]
        no_pmos = xor[:8] + (2.0,)
        for race in (xor, no_pull_down, no_pmos):
            for start in product(values, repeat=2):
                run_both(race, 0, 300, tails, start)

    def test_seeded_random_races(self, tails):
        rng = random.Random(10)
        starts = (0.0, -0.0, -0.05, 1e-17, 5e-324, nan, inf, -inf)
        outcomes = set()
        for _ in range(300):
            race = random_race(rng)
            vdd = race[1]
            start = None
            if rng.random() < 0.5:
                start = [rng.choice((vdd, rng.uniform(0.0, vdd)) + starts) for _ in range(2)]
            n_pre = rng.randrange(3)
            bad = run_both(race, n_pre, n_pre + rng.randrange(1, 3000), tails, start)[0]
            outcomes.add(bad >= 0)
        assert outcomes == {True, False}
        assert {side for side, *_ in tails} == {"out", "bar"}

    def test_chunks_split_a_tail(self, tails):
        race = reference_race(XOR_PROGRAM, PARAMS, CFG, 0, 1)
        n_total = CFG.n_steps
        n_pre = n_total // 2
        run_both(race, n_pre, n_total, tails)
        [(_, first, _, _)] = tails
        del tails[:]
        # Boundaries one and two steps into the tail, then a call in which
        # the tail crosses two of its own buffer blocks.
        block = _kernels._BLOCK
        bounds = [n_pre, first + 1, first + 2, first + 3000, first + 3000 + 2 * block + 5]
        run_both(race, n_pre, n_total, tails, bounds=bounds + [n_total])
        # Each call after the first re-enters the tail after one full step.
        assert [t[1] for t in tails] == [first] + [b + 1 for b in bounds[1:]]
        assert [t[2] for t in tails] == bounds[1:] + [n_total]

    @pytest.mark.parametrize("frozen", ["out", "bar"])
    @pytest.mark.parametrize("case", sorted(RAIL_RACES))
    def test_rail_races(self, tails, bare, case, frozen):
        race, start, bad, n_tails = RAIL_RACES[case]
        if frozen == "bar":
            race = race[:3] + race[5:7] + race[3:5] + race[7:]
            start = start[::-1]
        got, v_out, v_bar = run_both(race, 0, 1000, tails, start)
        assert got == bad
        # A depletion PMOS feeds the moving node: no bare decay.
        assert bare == []
        assert [(side, first) for side, first, *_ in tails] == [(frozen, 1)] * n_tails
        moving = v_bar if frozen == "out" else v_out
        if case == "rises":
            # The tail hands back once the moving node passes the bound.
            last = tails[0][2]
            assert 50 < last < 1000
            assert VDD - moving[last - 1] == VDD and VDD - moving[last] != VDD
            assert np.all(np.diff(moving) > 0)
        elif case == "clamped":
            # Every other tail step overshoots below 0 and is clamped.
            assert tails[0][2] == 1000
            assert set(moving[1::2]) == {moving[1]} and set(moving[2::2]) == {0.0}
        elif bad >= 0:
            assert tails[0][2] == -bad

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("frozen", ["out", "bar"])
    @pytest.mark.parametrize("case", sorted(DECAYS))
    def test_decaying_tails(self, tails, bare, monkeypatch, case, frozen, block):
        # Blocks of 1 and 7 steps start on, straddle and end at the switch
        # to the bare phase; 4096 is the kernel's own block.
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        race, m0 = DECAYS[case]
        start = (VDD, m0)
        if frozen == "bar":
            race, start = mirror(race), start[::-1]
        got, v_out, v_bar = run_both(race, 0, 25000, tails, start)
        assert got == -1
        assert [(side, first, last) for side, first, last, _ in tails] == [(frozen, 1, 25000)]
        moving = v_bar if frozen == "out" else v_out
        kept = sum(n for n, ok in bare if ok)
        replayed = [ok for _, ok in bare].count(False)
        if "stiff" in case:
            assert np.all(moving[1:] == 0.0)
            assert (kept, replayed) == (24999, 0)
            return
        assert 0.0 < moving[moving > 0.0].min() < MIN_NORMAL
        assert (moving[-1] == 0.0) == (case in ("r0.3-to-zero", "r0.96-overshoot"))
        assert replayed == (case == "r0.96-overshoot")
        if replayed:
            assert kept >= 24999 - block - 10
        else:
            assert kept >= 0.95 * 24999
        if case == "r0.05-late":
            # Step by step until the node falls under ov * 2**-55, which
            # the step to sample `switch` does; bare blocks run from there.
            small = (VDD - race[6 if frozen == "out" else 4]) * 2**-55
            switch = 25000 - kept
            assert moving[switch - 1] > small >= moving[switch]
            assert 10 < switch < 100

    def test_calls_split_a_bare_block(self, tails, bare):
        race = reference_race(XOR_PROGRAM, PARAMS, CFG, 0, 1)
        n_total = CFG.n_steps
        n_pre = n_total // 2
        run_both(race, n_pre, n_total, tails)
        [(_, first, _, _)] = tails
        # The last sample of the step-by-step phase: bare blocks fill the rest.
        switch = n_total - sum(n for n, _ in bare)
        assert 0 < switch - first < 200
        del tails[:], bare[:]
        # Boundaries one and two steps into the first bare block, and one
        # inside each of the next two blocks.
        block = _kernels._BLOCK
        bounds = [n_pre, switch + 1, switch + 2, switch + 100, switch + block + 200]
        run_both(race, n_pre, n_total, tails, bounds=bounds + [n_total])
        assert [t[1] for t in tails] == [first] + [b + 1 for b in bounds[1:]]
        # Each later call re-enters the tail after one full step, under the
        # bound, and runs bare at once.
        assert all(ok for _, ok in bare)
        assert sum(n for n, _ in bare) == n_total - switch - (len(bounds) - 1)

    @pytest.mark.parametrize("m0", [0.0, 5e-324, 1e-17])
    @pytest.mark.parametrize(
        "race",
        [
            # dt / c_node overflows, so every step is NaN or infinite.
            (1e-12, VDD, 5e-324, 1e-4, 2.0, 1e-4, 0.3, 1e-4, 0.3),
            (1e-12, VDD, 5e-324, 1e-4, 2.0, 1e-4, 0.3, 1e-4, -0.2),
            # An infinite gain on the decaying branch.
            (1e-12, VDD, 1e-14, 1e-4, 2.0, inf, 0.3, 1e-4, 0.3),
            OVERFLOW_RACE,
        ],
        ids=["inv-c-inf", "inv-c-inf-depletion", "k-inf", "k-ov-inf"],
    )
    def test_overflowing_constants(self, tails, bare, race, m0):
        for constants, start in ((race, (VDD, m0)), (mirror(race), (m0, VDD))):
            run_both(constants, 0, 400, tails, start)
        if race[0] / race[2] == inf or inf in race:
            assert bare == []

    @pytest.mark.parametrize("m0", [-0.0, 0.0, 5e-324, 1e-17])
    @pytest.mark.parametrize("signs", [(-1, -1), (-1, 1), (1, -1)], ids=["k-and-c", "k", "c"])
    def test_negative_constants(self, tails, bare, signs, m0):
        # A negative gain or node capacitance keeps the tail step by step.
        # With both negative the node decays, but the entry step leaves -0.0
        # at -0.0, where the bare update would give +0.0.
        race = decaying_race(0.1)
        race = race[:2] + (signs[1] * race[2],) + race[3:5] + (signs[0] * race[5],) + race[6:]
        for constants, start in ((race, (VDD, m0)), (mirror(race), (m0, VDD))):
            got, v_out, v_bar = run_both(constants, 0, 2000, tails, start)
        assert tails and bare == []
        if signs == (-1, -1) and m0 == 0.0:
            # v_out moves in the mirrored race; a zero keeps its sign.
            assert v_out[-1] == 0.0 and math.copysign(1.0, v_out[-1]) == math.copysign(1.0, m0)

    # (case, V̄_OUT's value where the tail starts): DECAYS races, and
    # OVERFLOW_RACE, whose step from 1e-17 is -inf, so that its bare block
    # holds -inf and then NaN.
    @pytest.mark.parametrize(
        "case, m0",
        [
            (case, m0)
            for case in ("r0.05", "r0.3-to-zero", "r2.5-stiff")
            for m0 in (-0.0, 0.0, 5e-324, 1e-17, "small", "above")
        ]
        + [("overflow", m0) for m0 in (-0.0, 0.0, 5e-324, 1e-17)],
    )
    def test_tail_entry_values(self, bare, case, m0):
        # _frozen_tail called directly from the value the tail starts at,
        # against reference_integrate from that value with V_OUT at the
        # rail. On a decaying branch the kernel's own entry step never
        # leaves -0.0, so only a direct call reaches it.
        race = OVERFLOW_RACE if case == "overflow" else DECAYS[case][0]
        dt, vdd, c_node, _, _, k, vth, _, _ = race
        ov = vdd - vth
        small = ov * 2**-55
        m0 = {"small": small, "above": math.nextafter(small, inf)}.get(m0, m0)
        n_total = 3000
        ref_out = np.full(n_total + 1, -7.0)
        ref_bar = np.full(n_total + 1, -7.0)
        ref_out[0], ref_bar[0] = vdd, m0
        bad = reference_integrate(ref_out, ref_bar, 0, n_total, *race)
        v_out = np.full(n_total + 1, -7.0)
        v_bar = np.full(n_total + 1, -7.0)
        v_out[0], v_bar[0] = vdd, m0
        end, m = _kernels._frozen_tail(
            v_bar, v_out, 0, n_total, m0, vdd, 0.0, k, ov, ov, 0.5 * k * ov * ov,
            dt / c_node, -_kernels.GUARD_V, vdd + _kernels.GUARD_V, vdd,
        )
        assert end == (n_total if bad < 0 else -bad)
        assert v_out.tobytes() == ref_out.tobytes()
        assert v_bar.tobytes() == ref_bar.tobytes()
        # The first block is bare exactly when the tail starts in range, and
        # it is replayed exactly when its first step overshoots below 0.
        assert (bare[0][0] == n_total) == (0.0 <= m0 <= small)
        overshoots = case in ("r2.5-stiff", "overflow") and m0 > 0.0
        assert [ok for _, ok in bare].count(False) == (overshoots and m0 <= small)
        if case == "overflow" and m0 == 1e-17:
            assert (bad, m) == (1, -inf)
        elif bad < 0:
            assert m == ref_bar[-1]

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(1e-4, 4.0),
        ov=st.floats(1e-3, 1.7),
        k=st.sampled_from((1e-4, 1.0, 1e4)),
        dt=st.sampled_from((1e-12, 1e-10)),
        vth_pmos=st.sampled_from((0.3, 0.0, -1e-9)),
        m0=st.one_of(
            st.floats(0.0, 1e-16),
            st.sampled_from((0.0, -0.0, 5e-324, 1e-17, 1e-300, 1e-16, 2e-16)),
        ),
        n_total=st.integers(1, 3000),
        block=st.sampled_from((1, 2, 7, 64, 4096)),
        mirrored=st.booleans(),
        sign=st.sampled_from((1.0, 1.0, 1.0, -1.0)),
    )
    def test_random_decays(self, r, ov, k, dt, vth_pmos, m0, n_total, block, mirrored, sign):
        # A depletion PMOS (threshold below 0) gives the moving node a
        # p-current, which keeps it out of the bare phase, and so do a
        # negative gain and node capacitance (sign -1). At threshold 0.0
        # the p-current is exactly 0.0.
        race = decaying_race(r, ov, sign * k, dt)[:8] + (vth_pmos,)
        start = (VDD, m0)
        if mirrored:
            race, start = mirror(race), start[::-1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK", block)
            run_both(race, 0, n_total, [], start)

    def test_rounding_lemma(self):
        # ov * m - 0.5 * m * m rounds to ov * m for 0 <= m <= ov * 2**-55,
        # where ov * m is normal or subnormal, and with room to spare: it
        # still holds at 4x the bound and fails at 8x.
        rng = np.random.default_rng(20)
        ov = 10.0 ** rng.uniform(-3.0, 3.0, 100_000)
        small = ov * 2.0**-55

        def rounds(m):
            return ov * m - 0.5 * m * m == ov * m

        below = np.nextafter(small, 0.0)
        above = np.nextafter(small, inf)
        for m in (small, below, above, small * rng.uniform(0.0, 1.0, ov.size)):
            assert np.all(ov * m >= MIN_NORMAL) and np.all(rounds(m))
        for scale in (2.0**-1000, 2.0**-1040, 2.0**-1060):
            for m in (small * scale, below * scale, above * scale):
                assert np.all(ov * m < MIN_NORMAL) and np.all(rounds(m))
        for m in (5e-324, 1e-310, 0.0):
            assert np.all(rounds(np.full(ov.size, m)))
        assert np.all(rounds(4 * small))
        assert not np.any(rounds(8 * small))

    def test_bare_blocks_in_gate_char_races(self, tails, bare):
        # At 20 MHz at least 95% of the steps of every resolving pair's tail
        # run bare, and no block is replayed; no 1 or 2 GHz race runs one.
        calls = {}
        for clock in GATE_CHAR_CLOCKS:
            cfg = SimConfig(clock_freq=clock)
            for f, pair, m in product(TruthTable2, GATE_CHAR_PAIRS, range(4)):
                race = reference_race(program_for(f, *pair), PARAMS, cfg, m >> 1, m & 1)
                calls[race, cfg.n_steps] = clock, pair
        assert len(calls) == 66
        for (race, n_total), (clock, pair) in calls.items():
            del tails[:], bare[:]
            v_out = np.full(n_total + 1, race[1])
            v_bar = np.full(n_total + 1, race[1])
            assert _kernels.integrate(v_out, v_bar, n_total // 2, n_total, *race) == -1
            steps = sum(last - first for _, first, last, _ in tails)
            kept = sum(n for n, ok in bare if ok)
            if clock == CFG.clock_freq and pair != GATE_CHAR_PAIRS[-1]:
                assert all(ok for _, ok in bare)
                assert kept >= 0.95 * steps > 0
            else:
                assert bare == []


def reference_half(race, cfg: SimConfig):
    """One ``reference_integrate`` call over the whole evaluation half, from
    both nodes at the rail: ``(return value, v_out, v_bar)``."""
    n_total = cfg.n_steps
    v_out = np.full(n_total + 1, race[1])
    v_bar = np.full(n_total + 1, race[1])
    bad = reference_integrate(v_out, v_bar, n_total // 2, n_total, *race)
    return bad, v_out, v_bar


# Beside the gate-char matrix, two 20 MHz configs whose frozen-node tail
# crosses chunk boundaries: a resolve margin no sample meets, so the race
# runs to the end in doubling chunks, and a trip point that the winner
# crosses only 9,376 steps in, in the chunk after the tail starts.
LATE_CASES = {
    "never": (SimConfig(resolve_margin=1.79), None),
    "late": (SimConfig(trip=1e-30), 1),
}


class TestChunkedSimulate:
    """``simulate`` integrates the evaluation half in doubling chunks; its
    waveforms and outcome against one call of the kernel it replaced."""

    def assert_matches_one_call(self, program, cfg, a, b):
        trace = simulate(program, PARAMS, cfg, a, b)
        bad, v_out, v_bar = reference_half(reference_race(program, PARAMS, cfg, a, b), cfg)
        assert bad == -1
        assert trace.v_out.tobytes() == v_out.tobytes()
        assert trace.v_out_bar.tobytes() == v_bar.tobytes()
        n_pre = cfg.n_steps // 2
        output, i = transient._first_resolved(
            v_out[n_pre:], v_bar[n_pre:], cfg, cfg.trip_at(PARAMS.vdd)
        )
        assert trace.resolved_output == output
        assert trace.resolve_time == (None if i is None else i * cfg.dt)
        return trace

    def test_every_gate_char_race(self):
        races = {}
        for clock in GATE_CHAR_CLOCKS:
            cfg = SimConfig(clock_freq=clock)
            for f, pair, m in product(TruthTable2, GATE_CHAR_PAIRS, range(4)):
                program = program_for(f, *pair)
                race = reference_race(program, PARAMS, cfg, m >> 1, m & 1)
                races.setdefault((race, cfg.n_steps), (program, cfg, m))
        assert len(races) == 66
        outcomes = set()
        for program, cfg, m in races.values():
            trace = self.assert_matches_one_call(program, cfg, m >> 1, m & 1)
            outcomes.add(trace.is_resolved)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("case", sorted(LATE_CASES))
    def test_tail_across_chunk_boundaries(self, tails, case):
        cfg, output = LATE_CASES[case]
        trace = self.assert_matches_one_call(XOR_PROGRAM, cfg, 0, 1)
        assert trace.resolved_output == output
        # Chunk k ends at sample n_pre + _FIRST_CHUNK * (2**k - 1); the tail
        # that starts 5,082 steps in is re-entered one step past each end.
        n_pre = cfg.n_steps // 2
        ends = {n_pre + transient._FIRST_CHUNK * (2**k - 1) for k in range(1, 8)}
        [first, *later] = [t[1] for t in tails]
        assert first - n_pre == 5082
        assert len(later) == 2 and all(i - 1 in ends for i in later)

    # The small-c-node race resolves one step before it diverges, so a run in
    # chunks would stop before the error; _FIRST_CHUNK = 1 puts a chunk end
    # between the two.
    @pytest.mark.parametrize("first_chunk", [1, transient._FIRST_CHUNK])
    @pytest.mark.parametrize(
        "cfg, resolves_first",
        [(SimConfig(dt=4e-10), False), (SimConfig(clock_freq=1e9, c_node=5e-17), True)],
        ids=["coarse-dt", "small-c-node"],
    )
    def test_diverging_config_raises_the_reference_error(
        self, monkeypatch, cfg, resolves_first, first_chunk
    ):
        monkeypatch.setattr(transient, "_FIRST_CHUNK", first_chunk)
        race = reference_race(XOR_PROGRAM, PARAMS, cfg, 0, 0)
        assert not transient._cannot_diverge(race)
        bad, v_out, v_bar = reference_half(race, cfg)
        assert bad >= 0
        n_pre = cfg.n_steps // 2
        resolved, _ = transient._first_resolved(
            v_out[n_pre:bad], v_bar[n_pre:bad], cfg, cfg.trip_at(PARAMS.vdd)
        )
        assert (resolved is not None) == resolves_first
        want = (
            f"node voltage diverged at t={bad * cfg.dt:.3e} s; reduce dt "
            f"(currently {cfg.dt:.3e} s)"
        )
        for run in (lambda: simulate(XOR_PROGRAM, PARAMS, cfg, 0, 0),
                    lambda: margin_report(XOR_PROGRAM, PARAMS, cfg)):
            with pytest.raises(SimulationError) as exc:
                run()
            assert str(exc.value) == want


def mirror(race):
    """The race with the two branches' constants swapped."""
    return race[:3] + race[5:7] + race[3:5] + race[7:]


@st.composite
def kernel_calls(draw, bounded: bool):
    """``(race, n_pre, n_total, start)`` for one ``_kernels.integrate`` call:
    a ``random_race`` that passes ``_cannot_diverge`` exactly when
    ``bounded``, and a start state at the rail, inside the band or at a
    special value."""
    race = random_race(draw(st.randoms(use_true_random=False)))
    assume(transient._cannot_diverge(race) == bounded)
    vdd = race[1]
    node = st.one_of(
        st.just(vdd),
        st.floats(0.0, vdd),
        st.sampled_from((0.0, -0.0, -0.05, 1e-17, 5e-324, nan, inf, -inf)),
    )
    n_pre = draw(st.integers(0, 2))
    n_total = n_pre + draw(st.integers(1, 1500))
    return race, n_pre, n_total, (draw(node), draw(node))


def assert_same_trace(got: GateTrace, want: GateTrace):
    for name in ("t", "v_out", "v_out_bar", "out", "out_bar"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.resolved_output == want.resolved_output
    assert got.resolve_time == want.resolve_time
    assert got.eval_start_index == want.eval_start_index


class TestMirroredRaces:
    """``simulate`` and ``margin_report`` integrate one race per program and
    give each minterm that race or its mirror image: swapping the two
    branches' constants swaps the waveforms bit for bit. Checked here on the
    kernel, on ``_evaluate``, and on ``simulate`` and ``margin_report``
    against ``reference_simulate`` and ``reference_margin_report``, which
    integrate each minterm's own race."""

    @pytest.mark.parametrize("bounded", [True, False], ids=["bounded", "unbounded"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kernel_swaps_the_arrays(self, bounded, data):
        race, n_pre, n_total, start = data.draw(kernel_calls(bounded))
        runs = []
        for constants, state in ((race, start), (mirror(race), start[::-1])):
            # -7.0 marks the samples the kernel leaves unwritten.
            v_out = np.full(n_total + 1, -7.0)
            v_bar = np.full(n_total + 1, -7.0)
            v_out[n_pre], v_bar[n_pre] = state
            bad = _kernels.integrate(v_out, v_bar, n_pre, n_total, *constants)
            runs.append((bad, v_out, v_bar))
        (bad, v_out, v_bar), (m_bad, m_out, m_bar) = runs
        assert m_bad == bad
        assert m_out.tobytes() == v_bar.tobytes()
        assert m_bar.tobytes() == v_out.tobytes()

    def assert_mirror_flips(self, race, cfg):
        v_out, v_bar, output, resolve_time = transient._evaluate(race, cfg, waveform=True)
        m_out, m_bar, m_output, m_time = transient._evaluate(mirror(race), cfg, waveform=True)
        assert m_out.tobytes() == v_bar.tobytes()
        assert m_bar.tobytes() == v_out.tobytes()
        assert m_output == (None if output is None else 1 - output)
        assert m_time == resolve_time
        return output

    def test_every_gate_char_race(self):
        races = {}
        for clock in GATE_CHAR_CLOCKS:
            cfg = SimConfig(clock_freq=clock)
            for f, pair, m in product(TruthTable2, GATE_CHAR_PAIRS, range(4)):
                race = reference_race(program_for(f, *pair), PARAMS, cfg, m >> 1, m & 1)
                races[race, cfg.n_steps] = cfg
        assert len(races) == 66
        outputs = {self.assert_mirror_flips(race, cfg) for (race, _), cfg in races.items()}
        assert outputs == {0, 1, None}

    @pytest.mark.parametrize("case", sorted(LATE_CASES))
    def test_tail_across_chunk_boundaries(self, case):
        cfg, output = LATE_CASES[case]
        race = reference_race(XOR_PROGRAM, PARAMS, cfg, 0, 1)
        assert self.assert_mirror_flips(race, cfg) == output

    def test_margin_report_matches_reference(self):
        # Every function at every gate-char clock and pH pair, the pair that
        # never resolves at 2 GHz and the symmetric program among them.
        outputs = set()
        for clock in GATE_CHAR_CLOCKS:
            cfg = SimConfig(clock_freq=clock)
            for f in TruthTable2:
                for pair in GATE_CHAR_PAIRS + ((5.0, 5.0),):
                    program = program_for(f, *pair)
                    rows = margin_report(program, PARAMS, cfg)
                    assert rows == reference_margin_report(program, PARAMS, cfg)
                    outputs.update(r["output"] for r in rows)
        assert outputs == {0, 1, None}

    def test_simulate_matches_reference(self, monkeypatch):
        # Every gate-char program and the symmetric 5/5 one, minterm by
        # minterm. Every program of one pH pair and clock runs the same race,
        # so simulate's _evaluate calls are memoized: each distinct race is
        # integrated once, and there must be exactly one per pair and clock.
        evaluate = transient._evaluate
        runs = {}

        def once(race, cfg, waveform):
            if (race, cfg, waveform) not in runs:
                runs[race, cfg, waveform] = evaluate(race, cfg, waveform)
            v_out, v_bar, output, resolve_time = runs[race, cfg, waveform]
            return v_out.copy(), v_bar.copy(), output, resolve_time

        monkeypatch.setattr(transient, "_evaluate", once)
        pairs = GATE_CHAR_PAIRS + ((5.0, 5.0),)
        want = {}
        outputs = set()
        for clock in GATE_CHAR_CLOCKS:
            cfg = SimConfig(clock_freq=clock)
            for f, pair, m in product(TruthTable2, pairs, range(4)):
                program = program_for(f, *pair)
                a, b = m >> 1, m & 1
                key = reference_race(program, PARAMS, cfg, a, b), cfg
                if key not in want:
                    want[key] = reference_simulate(program, PARAMS, cfg, a, b)
                trace = simulate(program, PARAMS, cfg, a, b)
                assert_same_trace(trace, want[key])
                outputs.add(trace.resolved_output)
        assert len(runs) == len(GATE_CHAR_CLOCKS) * len(pairs)
        assert len(want) == len(GATE_CHAR_CLOCKS) * (2 * len(pairs) - 1)
        assert outputs == {0, 1, None}

    @pytest.mark.parametrize("case", ["diverging", "fallback"])
    def test_unbounded_configs_match_reference(self, case):
        program, cfg, _, outcome = RESOLVE_CASES[case]
        if outcome == "diverged":
            with pytest.raises(SimulationError) as want:
                reference_margin_report(program, PARAMS, cfg)
            with pytest.raises(SimulationError) as got:
                margin_report(program, PARAMS, cfg)
            assert str(got.value) == str(want.value)
        else:
            assert margin_report(program, PARAMS, cfg) == reference_margin_report(
                program, PARAMS, cfg
            )
        # simulate, for every function and minterm at this pH pair.
        for f, m in product(TruthTable2, range(4)):
            each = program_for(f, program.ph_low, program.ph_high)
            if outcome == "diverged":
                with pytest.raises(SimulationError) as want:
                    reference_simulate(each, PARAMS, cfg, m >> 1, m & 1)
                with pytest.raises(SimulationError) as got:
                    simulate(each, PARAMS, cfg, m >> 1, m & 1)
                assert str(got.value) == str(want.value)
            else:
                assert_same_trace(
                    simulate(each, PARAMS, cfg, m >> 1, m & 1),
                    reference_simulate(each, PARAMS, cfg, m >> 1, m & 1),
                )

    @pytest.mark.parametrize("pair", [(2.0, 10.0), (5.0, 5.0)], ids=["resolving", "symmetric"])
    def test_one_race_per_program(self, monkeypatch, pair):
        calls = []
        evaluate = transient._evaluate

        def spy(race, cfg, waveform):
            calls.append(waveform)
            return evaluate(race, cfg, waveform)

        monkeypatch.setattr(transient, "_evaluate", spy)
        cfg = SimConfig(clock_freq=1e9)
        for f in TruthTable2:
            del calls[:]
            margin_report(program_for(f, *pair), PARAMS, cfg)
            assert calls == [False]


def savetxt_reference(trace: GateTrace) -> str:
    buf = io.StringIO()
    buf.write("t,v_out,v_out_bar,out,out_bar\n")
    data = np.column_stack([trace.t, trace.v_out, trace.v_out_bar, trace.out, trace.out_bar])
    np.savetxt(buf, data, fmt="%.6e", delimiter=",")
    return buf.getvalue()


def csv_text(trace: GateTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def savetxt_mismatch(trace: GateTrace):
    return first_difference(csv_text(trace), savetxt_reference(trace))


def trace_of(v_out, v_out_bar, out, out_bar, dt=1e-12) -> GateTrace:
    return GateTrace(
        t=np.arange(len(v_out)) * dt,
        v_out=np.asarray(v_out, dtype=np.float64),
        v_out_bar=np.asarray(v_out_bar, dtype=np.float64),
        out=np.asarray(out, dtype=np.float64),
        out_bar=np.asarray(out_bar, dtype=np.float64),
        resolved_output=None,
        resolve_time=None,
        eval_start_index=len(v_out) // 2,
    )


def runs(*pairs) -> np.ndarray:
    """A column of runs: ``runs((value, length), ...)``."""
    return np.concatenate([np.full(length, value) for value, length in pairs])


def changing_blocks(trace: GateTrace) -> int:
    """Blocks of the CSV writer in which v_out, v_out_bar, out or out_bar
    changes."""
    columns = np.array([trace.v_out, trace.v_out_bar, trace.out, trace.out_bar])
    size = device._CSV_BLOCK_ROWS
    starts = range(0, len(trace.t), size)
    blocks = [columns[:, start : start + size].view(np.uint64) for start in starts]
    return sum(bool(np.any(block[:, 1:] != block[:, :-1])) for block in blocks)


@pytest.fixture
def fallback_blocks(monkeypatch):
    """Every block the CSV writer formats row by row through "%", with an
    empty first-column cache."""
    blocks = []
    format_rows = device._format_rows

    def spy(block):
        blocks.append(block.copy())
        return format_rows(block)

    monkeypatch.setattr(device, "_format_rows", spy)
    monkeypatch.setattr(device, "_first_column_cache", [])
    return blocks


class TestTraceCsv:
    def test_gate_char_matrix_matches_savetxt(self, fallback_blocks, monkeypatch):
        # Every waveform of the benchmark's gate-char matrix: 16 functions x
        # 11 pH pairs x 4 minterms make 22 distinct races a clock.
        digits_calls = []
        digits = device._digits

        def spy(x):
            digits_calls.append(len(x))
            return digits(x)

        monkeypatch.setattr(device, "_digits", spy)
        for clock in GATE_CHAR_CLOCKS:
            cfg = SimConfig(clock_freq=clock)
            races = {}
            for f, pair, m in product(TruthTable2, GATE_CHAR_PAIRS, range(4)):
                race = reference_race(program_for(f, *pair), PARAMS, cfg, m >> 1, m & 1)
                races.setdefault(race, (f, pair, m))
            assert len(races) == 22
            for i, (f, pair, m) in enumerate(races.values()):
                trace = simulate(program_for(f, *pair), PARAMS, cfg, m >> 1, m & 1)
                # 2/2.5 never resolves at 2 GHz; every other race does.
                assert trace.is_resolved == (clock != 2e9 or pair != GATE_CHAR_PAIRS[-1])
                digits_calls.clear()
                assert savetxt_mismatch(trace) is None, (clock, f, pair, m)
                if i:
                    # t comes from the cache, and a block whose other
                    # columns are one run each is one row of "%" text.
                    assert len(digits_calls) == changing_blocks(trace)
                if clock == GATE_CHAR_CLOCKS[0]:
                    # 13 blocks; the 6 of the precharge half are one row.
                    assert changing_blocks(trace) <= 7
        # Their cells are 12 characters, near-ties included: no fallback block.
        assert fallback_blocks == []

    @pytest.mark.parametrize("m", range(4))
    def test_gate_char_20mhz_trace_matches_savetxt(self, m):
        program = program_for(TruthTable2(m + 6), *GATE_CHAR_PAIRS[m])
        trace = simulate(program, PARAMS, CFG, m >> 1, m & 1)
        assert trace.resolved_output == TruthTable2(m + 6).minterm(m)
        assert savetxt_mismatch(trace) is None

    def test_runs_across_block_boundaries(self, fallback_blocks):
        block = device._CSV_BLOCK_ROWS
        n = 3 * block + 5
        trace = trace_of(
            runs((0.5, 3000), (1.25, 3000), (0.75, 3000), (1.8, n - 9000)),
            np.full(n, 1.8),
            runs((0.0, block), (1.8, n - block)),
            np.tile([0.0, 1.8], n)[:n],
        )
        assert savetxt_mismatch(trace) is None
        assert fallback_blocks == []

    def test_signed_zero_runs(self, fallback_blocks):
        block = device._CSV_BLOCK_ROWS
        n = 3 * block
        v_out = runs((0.0, 5000), (-0.0, 1000), (0.0, n - 6000))
        trace = trace_of(v_out, v_out[::-1].copy(), np.zeros(n), np.full(n, 1.8))
        text = csv_text(trace)
        assert first_difference(text, savetxt_reference(trace)) is None
        assert text.count(",-0.000000e+00,") == 2000
        # Only the block that holds a -0.0 falls back: rows 4096-8191.
        assert [len(b) for b in fallback_blocks] == [block]
        assert np.signbit(fallback_blocks[0][:, 1]).sum() == 1000
        # A fallback block leaves the t column uncached, so a trace with
        # the same t and no -0.0 formats it afresh.
        assert device._first_column_cache == []
        clean = trace_of(np.full(n, 0.5), np.full(n, 0.25), np.zeros(n), np.full(n, 1.8))
        assert savetxt_mismatch(clean) is None
        assert len(device._first_column_cache) == 1

    def test_fallback_block_writes_the_cached_first_column(self, fallback_blocks):
        block = device._CSV_BLOCK_ROWS
        n = 2 * block + 7
        clean = trace_of(np.full(n, 0.5), np.full(n, 0.25), np.zeros(n), np.full(n, 1.8))
        assert savetxt_mismatch(clean) is None
        [(stored, _)] = device._first_column_cache
        # Same t, so its cells come from the cache; the -1.5 in rows
        # 4096-4105 sends the second block to "%" row by row, t included.
        v_out = runs((0.5, block), (-1.5, 10), (0.5, n - block - 10))
        signed = trace_of(v_out, np.full(n, 0.25), np.zeros(n), np.full(n, 1.8))
        assert savetxt_mismatch(signed) is None
        assert [len(b) for b in fallback_blocks] == [block]
        assert np.array_equal(fallback_blocks[0][:, 0], signed.t[block : 2 * block])
        assert len(device._first_column_cache) == 1
        assert device._first_column_cache[0][0] is stored

    def test_nan_runs_with_two_payloads(self, fallback_blocks):
        nan_a, nan_b, nan_neg = np.array(
            [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000], dtype=np.uint64
        ).view(np.float64)
        n = 2 * device._CSV_BLOCK_ROWS + 100
        v_out = runs((0.5, 1000), (nan_a, 3000), (nan_b, 3000), (nan_neg, 50), (1.5, n - 7050))
        trace = trace_of(v_out, np.full(n, 1.8), np.zeros(n), np.full(n, 1.8))
        assert savetxt_mismatch(trace) is None
        assert len(fallback_blocks) == 2

    def test_negative_and_3_digit_cells_inside_long_runs(self, fallback_blocks):
        block = device._CSV_BLOCK_ROWS
        n = 4 * block
        v_out = runs((1.5, 5000), (-1.5, 100), (1.5, 4000), (1e-120, 100), (1.5, n - 9200))
        v_out_bar = runs((1.8, 3 * block + 10), (2.5e150, 20), (1.8, block - 30))
        trace = trace_of(v_out, v_out_bar, np.zeros(n), np.full(n, 1.8))
        assert savetxt_mismatch(trace) is None
        # Blocks 1, 2 and 3 hold the negative, the 1e-120 and the 2.5e150.
        assert [len(b) for b in fallback_blocks] == [block] * 3

    def test_first_column_cache_misses_on_another_dt(self, fallback_blocks):
        fast = SimConfig(clock_freq=1e9)
        slow = SimConfig(clock_freq=5e8, dt=2e-12)
        assert fast.n_steps == slow.n_steps
        traces = [simulate(XOR_PROGRAM, PARAMS, cfg, 0, 1) for cfg in (fast, slow)]
        for trace in traces + traces:
            assert savetxt_mismatch(trace) is None
        assert len(device._first_column_cache) == 2

    def test_first_column_cache_copies_the_column(self, fallback_blocks):
        trace = simulate(XOR_PROGRAM, PARAMS, SimConfig(clock_freq=1e9), 1, 1)
        assert savetxt_mismatch(trace) is None
        trace.t[1:] *= 3
        assert savetxt_mismatch(trace) is None
        trace.t[500] = 0.25
        assert savetxt_mismatch(trace) is None
        assert len(device._first_column_cache) == 3

    def test_first_column_cache_stays_at_its_bound(self, fallback_blocks, monkeypatch):
        clocks = (1e9, 1.25e9, 2e9, 2.5e9, 4e9, 5e9)
        assert len(clocks) > device._FIRST_COLUMN_ENTRIES
        for i, clock in enumerate(clocks):
            trace = simulate(XOR_PROGRAM, PARAMS, SimConfig(clock_freq=clock), 1, 0)
            assert savetxt_mismatch(trace) is None
            assert len(device._first_column_cache) == min(i + 1, device._FIRST_COLUMN_ENTRIES)
        # Newest first; the oldest clocks were dropped.
        assert [len(stored) for stored, _ in device._first_column_cache] == [201, 251, 401, 501]
        # A column longer than the row bound is never cached.
        monkeypatch.setattr(device, "_FIRST_COLUMN_ROWS", 1000)
        trace = simulate(XOR_PROGRAM, PARAMS, SimConfig(clock_freq=1e9), 1, 0)
        assert savetxt_mismatch(trace) is None
        assert [len(stored) for stored, _ in device._first_column_cache] == [201, 251, 401, 501]

    def test_columns_of_unequal_length_rejected(self):
        trace = trace_of(np.zeros(10), np.zeros(10), np.zeros(10), np.zeros(11))
        with pytest.raises(ValueError):
            csv_text(trace)

    def test_resolved_20mhz_trace_matches_savetxt(self):
        trace = simulate(XOR_PROGRAM, PARAMS, CFG, 1, 0)
        assert trace.is_resolved
        assert len(trace.t) % device._CSV_BLOCK_ROWS != 0
        assert savetxt_mismatch(trace) is None

    def test_unresolved_2ghz_trace_matches_savetxt(self):
        cfg = SimConfig(clock_freq=2e9)
        trace = simulate(program_for(TruthTable2.AND, 2.0, 2.5), PARAMS, cfg, 1, 1)
        assert not trace.is_resolved
        assert savetxt_mismatch(trace) is None

    def test_partial_last_block_and_special_values(self, monkeypatch):
        monkeypatch.setattr(device, "_CSV_BLOCK_ROWS", 4)
        values = np.array([0.0, -0.0, -1.5, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.5])
        trace = trace_of(values, values[::-1].copy(), np.zeros(9), np.full(9, 1.8))
        assert savetxt_mismatch(trace) is None
        assert ",-0.000000e+00," in csv_text(trace)

    def test_header_and_row_count(self):
        trace = simulate(XOR_PROGRAM, PARAMS, CFG, 0, 1)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,v_out,v_out_bar,out,out_bar"
        assert len(lines) == len(trace.t) + 1
        assert lines[1].startswith("0.000000e+00,1.800000e+00,1.800000e+00")


class TestRaceOnFloats:
    def test_kernel_gets_python_floats_from_numpy_scalar_fields(self, monkeypatch):
        # Every field an np.float64: the kernel still gets Python floats, and
        # the waveforms and margins keep their bits.
        f64_params = IsfetParams(
            **{k: np.float64(v) for k, v in dataclasses.asdict(PARAMS).items()}
        )
        cfg = SimConfig(clock_freq=1e9, trip=0.9)
        f64_cfg = SimConfig(**{k: np.float64(v) for k, v in dataclasses.asdict(cfg).items()})
        classes = set()
        integrate = _kernels.integrate

        def spy(v_out, v_bar, n_pre, n_total, *constants):
            classes.update(c.__class__ for c in constants)
            return integrate(v_out, v_bar, n_pre, n_total, *constants)

        for pair in GATE_CHAR_PAIRS:
            program = program_for(TruthTable2.XOR, *pair)
            want = simulate(program, PARAMS, cfg, 0, 1), margin_report(program, PARAMS, cfg)
            with monkeypatch.context() as m:
                m.setattr(_kernels, "integrate", spy)
                got = simulate(program, f64_params, f64_cfg, 0, 1)
                rows = margin_report(program, f64_params, f64_cfg)
            assert got.v_out.tobytes() == want[0].v_out.tobytes()
            assert got.v_out_bar.tobytes() == want[0].v_out_bar.tobytes()
            assert got.resolved_output == want[0].resolved_output
            assert rows == want[1]
        assert classes == {float}


class TestKernelBackends:
    def test_active_backend_reported(self):
        assert _kernels.get_backend() == "python"
