from itertools import product

import pytest

from tvdcamo.device import IsfetParams
from tvdcamo.errors import DomainError, PhRangeError, UnresolvableGateError, UsageError
from tvdcamo.gates import (
    BranchAssignment,
    GatePhProgram,
    TruthTable2,
    assignment_for,
    evaluate_static,
    function_of,
)

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
