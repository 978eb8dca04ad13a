import io
import struct
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GATE_CHAR_PAIRS, reference_branch_current, reference_evaluate_static
from tvdcamo import device
from tvdcamo.device import BiasPoint, IsfetParams, iv_sweep
from tvdcamo.errors import (
    DomainError,
    PhRangeError,
    TvdCamoError,
    UnresolvableGateError,
    UsageError,
)
from tvdcamo.gates import (
    BranchAssignment,
    GatePhProgram,
    TruthTable2,
    assignment_for,
    branch_current,
    evaluate_static,
    function_of,
)
from tvdcamo.transient import SimConfig, margin_report, simulate, write_trace_csv

PARAMS = IsfetParams()


def program_for(f: TruthTable2, ph_low=2.0, ph_high=10.0) -> GatePhProgram:
    return GatePhProgram(ph_low=ph_low, ph_high=ph_high, assignment=assignment_for(f))


def static_truth_table(assignment: BranchAssignment) -> TruthTable2:
    """What the current race actually computes for an assignment."""
    prog = GatePhProgram(ph_low=2.0, ph_high=10.0, assignment=assignment)
    bits = [evaluate_static(prog, PARAMS, a, b) for a, b in product((0, 1), repeat=2)]
    return TruthTable2(sum(bit << (3 - m) for m, bit in enumerate(bits)))


class TestTruthTable2:
    def test_sixteen_distinct_functions(self):
        assert len(set(TruthTable2)) == 16

    def test_canonical_values(self):
        assert TruthTable2.XOR.value == 0b0110
        assert TruthTable2.AND.value == 0b0001
        assert TruthTable2.AND.minterm(3) == 1
        assert TruthTable2.OR.value == 0b0111
        assert TruthTable2.NAND.value == 0b1110

    def test_eval_matches_python_operators(self):
        for a, b in product((0, 1), repeat=2):
            assert TruthTable2.AND.eval(a, b) == (a & b)
            assert TruthTable2.OR.eval(a, b) == (a | b)
            assert TruthTable2.XOR.eval(a, b) == (a ^ b)
            assert TruthTable2.NOT_A.eval(a, b) == 1 - a
            assert TruthTable2.B.eval(a, b) == b

    def test_assignment_table_matches_minterms(self):
        for f in TruthTable2:
            assert assignment_for(f).lvt_on_out_side == tuple(
                bool(f.minterm(m)) for m in range(4)
            )
            assert function_of(assignment_for(f)) is f

    def test_from_name_aliases(self):
        assert TruthTable2.from_name("xor") is TruthTable2.XOR
        assert TruthTable2.from_name("6") is TruthTable2.XOR
        assert TruthTable2.from_name("0b0110") is TruthTable2.XOR
        with pytest.raises(UsageError):
            TruthTable2.from_name("XANDY")
        with pytest.raises(UsageError):
            TruthTable2.from_name("17")

    def test_complement(self):
        assert TruthTable2.AND.complement() is TruthTable2.NAND
        assert TruthTable2.XOR.complement() is TruthTable2.XNOR
        for f in TruthTable2:
            assert f.complement().complement() is f


class TestAssignment:
    def test_xor_assignment_matches_walkthrough(self):
        # For A/B = 00 the stronger (LVT) branch sits on the V̄_OUT side, so
        # V̄_OUT collapses and OUT stays low.
        assert assignment_for(TruthTable2.XOR).lvt_on_out_side == (
            False,
            True,
            True,
            False,
        )

    def test_constant_zero_assignment(self):
        assert assignment_for(TruthTable2.FALSE).lvt_on_out_side == (
            False,
            False,
            False,
            False,
        )

    def test_and_assignment_via_race_oracle(self):
        # Independent route: search all 16 assignments for the one whose
        # winner-take-all evaluation realizes AND.
        matches = [
            bits
            for bits in product((False, True), repeat=4)
            if static_truth_table(BranchAssignment(bits)) is TruthTable2.AND
        ]
        assert matches == [(False, False, False, True)]
        assert assignment_for(TruthTable2.AND) == BranchAssignment(matches[0])

    def test_bijection_over_all_functions(self):
        for f in TruthTable2:
            assert function_of(assignment_for(f)) is f

    def test_race_oracle_agrees_with_function_of_everywhere(self):
        for bits in product((False, True), repeat=4):
            assignment = BranchAssignment(bits)
            assert static_truth_table(assignment) is function_of(assignment)

    def test_function_of_examples(self):
        assert function_of(BranchAssignment((False, True, True, False))) is TruthTable2.XOR
        assert function_of(BranchAssignment((True, True, True, True))) is TruthTable2.TRUE

    def test_bad_assignment_length(self):
        with pytest.raises(ValueError):
            BranchAssignment((True, False))


class TestGatePhProgram:
    def test_ph_out_of_range(self):
        with pytest.raises(PhRangeError):
            GatePhProgram(ph_low=-1.0, ph_high=10.0, assignment=assignment_for(TruthTable2.XOR))

    @pytest.mark.parametrize("ph", [-1e-9, 14.000001, float("nan"), float("inf")])
    def test_ph_range_is_the_device_rule(self, ph):
        # Checked before the order of the pair, with device._check_ph's error.
        with pytest.raises(PhRangeError) as want:
            device._check_ph(ph)
        for low, high in ((ph, 10.0), (2.0, ph), (ph, -1.0)):
            with pytest.raises(PhRangeError) as got:
                GatePhProgram(ph_low=low, ph_high=high, assignment=assignment_for(TruthTable2.XOR))
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "low, high", [(10**5000, 10.0), (2.0, 10**5000), (-(10**5000), 10.0)], ids=["low", "high", "-low"]
    )
    def test_int_too_long_to_print_is_named_by_its_digits(self, low, high):
        with pytest.raises(PhRangeError) as exc:
            GatePhProgram(ph_low=low, ph_high=high, assignment=assignment_for(TruthTable2.XOR))
        digits = "an int" if 10**5000 in (low, high) else "a negative int"
        assert str(exc.value) == f"pH {digits} of 5001 digits outside the valid range [0, 14]"

    def test_inverted_ph_pair_rejected(self):
        with pytest.raises(DomainError):
            GatePhProgram(ph_low=10.0, ph_high=2.0, assignment=assignment_for(TruthTable2.XOR))

    def test_degenerate_pair_constructible(self):
        GatePhProgram(ph_low=5.0, ph_high=5.0, assignment=assignment_for(TruthTable2.XOR))


class TestEvaluateStatic:
    def test_xor_minterm_00_is_low(self):
        assert evaluate_static(program_for(TruthTable2.XOR), PARAMS, 0, 0) == 0

    def test_xor_minterm_01_is_high(self):
        assert evaluate_static(program_for(TruthTable2.XOR), PARAMS, 0, 1) == 1

    def test_degenerate_program_unresolvable(self):
        prog = program_for(TruthTable2.XOR, ph_low=5.0, ph_high=5.0)
        with pytest.raises(UnresolvableGateError):
            evaluate_static(prog, PARAMS, 0, 0)

    @pytest.mark.parametrize("pair, currents", [
        ((2.0, 10.0), "(inf A, 0.000000e+00 A)"),
        ((1.0, 2.0), "(nan A, inf A)"),
    ], ids=["inf", "nan"])
    def test_non_finite_branch_current_unresolvable(self, pair, currents):
        # At vdd = sensitivity = 1e200 the overdrive squared overflows, and
        # at pH 1 the triode term is inf - inf.
        params = IsfetParams(vdd=1e200, sensitivity=1e200)
        with pytest.raises(UnresolvableGateError) as exc:
            evaluate_static(program_for(TruthTable2.XOR, *pair), params, 0, 0)
        assert str(exc.value) == (
            f"unresolvable gate: branch currents {currents} are not finite "
            f"for pH pair {pair}"
        )

    def test_matches_truth_table_for_all_functions(self):
        for f in TruthTable2:
            for a, b in product((0, 1), repeat=2):
                assert evaluate_static(program_for(f), PARAMS, a, b) == f.eval(a, b)

    def test_complement_program_negates_output(self):
        for f in TruthTable2:
            for a, b in product((0, 1), repeat=2):
                out = evaluate_static(program_for(f), PARAMS, a, b)
                inv = evaluate_static(program_for(f.complement()), PARAMS, a, b)
                assert inv == 1 - out

    def test_matches_reference_for_every_gate_char_pair(self):
        # One comparison of the ph_low and ph_high branches against each
        # minterm's own pair of branch currents: the gate-char pairs and an
        # equal pair, with a sensor that cannot tell any pair apart too.
        raised = 0
        for params in (PARAMS, IsfetParams(sensitivity=0.0)):
            for f, pair, m in product(TruthTable2, GATE_CHAR_PAIRS + ((5.0, 5.0),), range(4)):
                program = program_for(f, *pair)
                try:
                    want = reference_evaluate_static(program, params, m >> 1, m & 1)
                except UnresolvableGateError as exc:
                    with pytest.raises(UnresolvableGateError) as got:
                        evaluate_static(program, params, m >> 1, m & 1)
                    assert str(got.value) == str(exc)
                    raised += 1
                else:
                    assert evaluate_static(program, params, m >> 1, m & 1) == want
        assert raised == 16 * 4 * (1 + len(GATE_CHAR_PAIRS) + 1)

    @pytest.mark.parametrize(
        "ph_pair",
        [(2.0, 10.0), (1.0, 10.0), (2.0, 12.0), (0.5, 13.5), (3.9, 4.1)],
    )
    def test_widening_ph_gap_never_flips_output(self, ph_pair):
        lo, hi = ph_pair
        for f in (TruthTable2.XOR, TruthTable2.AND, TruthTable2.NOR):
            for a, b in product((0, 1), repeat=2):
                out = evaluate_static(program_for(f, lo, hi), PARAMS, a, b)
                assert out == f.eval(a, b)


class TestRealizableFunctions:
    def test_matches_enumeration_through_function_of(self):
        enumerated = {
            function_of(BranchAssignment(bits))
            for bits in product((False, True), repeat=4)
        }
        assert enumerated == set(TruthTable2)


class _Float(float):
    """A float subclass, accepted like a float."""


def _classes(floats, ints):
    """A value of ``floats`` as a float, an np.float64 or a float subclass, or
    one of ``ints``: the number rule's classes. The ints stay below 2**20, where
    the reference's exact int arithmetic and the float path agree."""
    as_class = st.sampled_from([float, np.float64, _Float])
    return st.one_of(ints, st.builds(lambda cls, x: cls(x), as_class, floats))


def _floats(lo, hi, *typical):
    return st.one_of(st.sampled_from(typical), st.floats(lo, hi))


_PH = _classes(_floats(-1.0, 15.0, 2.0, 10.0, 0.0, 14.0), st.integers(0, 14))
_BRANCH_PARAMS = st.fixed_dictionaries({
    "k_gain": _classes(_floats(5e-324, 1e300, 1e-4, 5e-324, 1e-323), st.integers(1, 2**20)),
    "vth0": _classes(_floats(1e-6, 10.0, 0.3, 1.0), st.integers(1, 8)),
    "ph_ref": _PH,
    "sensitivity": _classes(_floats(0.0, 1e300, 0.059, 0.0), st.integers(0, 2**20)),
    "vdd": _classes(_floats(1e-3, 1e300, 1.8, 1e200), st.integers(1, 2**20)),
})
_V_DS = _classes(_floats(0.0, 1e300, 0.1, 1.8), st.integers(0, 2**20))


def _bits(x) -> bytes:
    return struct.pack("<d", x)


class TestOneBranchPath:
    """``branch_current`` and the race take each branch from ``gates._branch``
    and compute on Python floats, with no IsfetParams or BiasPoint built."""

    @given(fields=_BRANCH_PARAMS, ph=_PH, v_ds=st.one_of(_V_DS, st.none()))
    def test_matches_reference_bit_for_bit(self, fields, ph, v_ds):
        try:
            params = IsfetParams(**fields)
        except TvdCamoError:
            return
        v_ds = params.vdd if v_ds is None else v_ds
        reference = params
        if params.k_gain / 2 == 0:
            # The halved gain underflows, and the reference rejects a value
            # the caller never gave. The one branch path draws no current,
            # and raises where the reference at a unit gain raises.
            reference = replace(params, k_gain=1)
        try:
            with np.errstate(all="ignore"):
                want = reference_branch_current(reference, ph, v_ds)
        except TvdCamoError as exc:
            with pytest.raises(type(exc)) as got:
                branch_current(params, ph, v_ds)
            assert str(got.value) == str(exc)
            return
        got = branch_current(params, ph, v_ds)
        assert got.__class__ is float
        assert _bits(got) == _bits(0.0 if reference is not params else want)

    def test_one_gate_char_job_builds_one_isfet_params_and_no_bias_point(self, monkeypatch):
        built = {IsfetParams: 0, BiasPoint: 0}
        for cls in built:
            check = cls.__post_init__

            def spy(self, cls=cls, check=check):
                built[cls] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", spy)
        # The calls of one perfbench gate-char job (perfbench/workloads.py, run).
        function, clock, pair, (a, b) = 6, 1e9, (2.0, 10.0), (0, 1)
        grid = [1.8 * i / 36 for i in range(37)]
        params = IsfetParams()
        cfg = SimConfig(clock_freq=clock)
        program = GatePhProgram(pair[0], pair[1], assignment_for(TruthTable2(function)))
        iv_sweep(params, grid, 0.1, pair)
        [evaluate_static(program, params, m >> 1, m & 1) for m in range(4)]
        margin_report(program, params, cfg)
        trace = simulate(program, params, cfg, a, b)
        write_trace_csv(trace, io.StringIO())
        assert built == {IsfetParams: 1, BiasPoint: 0}
