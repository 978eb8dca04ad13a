import io
from itertools import product

import numpy as np
import pytest

from tvdcamo import _kernels, transient
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
        assert bar[-1] < 0.1 * CFG.vdd
        assert ev.min() < CFG.vdd - 0.05
        assert ev[-1] > ev.min() + 0.05
        assert ev.min() > CFG.trip_voltage

    def test_resolve_time_positive_and_within_eval(self, xor_traces):
        for trace in xor_traces.values():
            assert trace.resolve_time is not None
            assert 0 < trace.resolve_time < CFG.period / 2


class TestSimulateContracts:
    def test_voltage_bounds(self, xor_traces):
        for trace in xor_traces.values():
            for wave in (trace.v_out, trace.v_out_bar, trace.out, trace.out_bar):
                assert wave.min() >= 0.0
                assert wave.max() <= CFG.vdd

    def test_precharge_pins_nodes_high_and_outputs_low(self, xor_traces):
        trace = xor_traces[(0, 0)]
        i0 = trace.eval_start_index
        assert np.all(trace.v_out[: i0 + 1] >= 0.99 * CFG.vdd)
        assert np.all(trace.v_out_bar[: i0 + 1] >= 0.99 * CFG.vdd)
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

    def test_vdd_mismatch_rejected(self):
        with pytest.raises(UsageError):
            simulate(XOR_PROGRAM, IsfetParams(vdd=1.5, vth0=0.3), CFG, 0, 0)

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
        assert CFG.trip_voltage == pytest.approx(0.9)

    def test_coarse_dt_rejected(self):
        with pytest.raises(UsageError):
            SimConfig(dt=1e-9)

    def test_bad_trip_rejected(self):
        with pytest.raises(UsageError):
            SimConfig(trip=2.0)

    def test_bad_margin_rejected(self):
        with pytest.raises(UsageError):
            SimConfig(resolve_margin=0.0)


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
        assert transient._cannot_diverge(transient._race(program, PARAMS, cfg, 0, 0)) is bounded
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
        race = transient._race(XOR_PROGRAM, PARAMS, cfg, 0, 1)
        n_total = cfg.n_steps
        n_pre = n_total // 2
        whole = [np.full(n_total + 1, cfg.vdd) for _ in range(2)]
        chunked = [np.full(n_total + 1, cfg.vdd) for _ in range(2)]
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


class TestTraceCsv:
    def test_resolved_20mhz_trace_matches_savetxt(self):
        trace = simulate(XOR_PROGRAM, PARAMS, CFG, 1, 0)
        assert trace.is_resolved
        assert len(trace.t) % transient._CSV_BLOCK_ROWS != 0
        assert csv_text(trace) == savetxt_reference(trace)

    def test_unresolved_2ghz_trace_matches_savetxt(self):
        cfg = SimConfig(clock_freq=2e9)
        trace = simulate(program_for(TruthTable2.AND, 2.0, 2.5), PARAMS, cfg, 1, 1)
        assert not trace.is_resolved
        assert csv_text(trace) == savetxt_reference(trace)

    def test_partial_last_block_and_special_values(self, monkeypatch):
        monkeypatch.setattr(transient, "_CSV_BLOCK_ROWS", 4)
        values = np.array([0.0, -0.0, -1.5, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.5])
        trace = GateTrace(
            t=np.arange(9) * 1e-12,
            v_out=values,
            v_out_bar=values[::-1].copy(),
            out=np.zeros(9),
            out_bar=np.full(9, 1.8),
            resolved_output=None,
            resolve_time=None,
            eval_start_index=4,
        )
        assert csv_text(trace) == savetxt_reference(trace)
        assert ",-0.000000e+00," in csv_text(trace)

    def test_header_and_row_count(self):
        trace = simulate(XOR_PROGRAM, PARAMS, CFG, 0, 1)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,v_out,v_out_bar,out,out_bar"
        assert len(lines) == len(trace.t) + 1
        assert lines[1].startswith("0.000000e+00,1.800000e+00,1.800000e+00")


class TestKernelBackends:
    def test_active_backend_reported(self):
        assert _kernels.get_backend() == "python"
