"""Static model of the 2-input differential TVD gate.

A gate is a pair of mirrored pull-down networks with one branch per input
minterm. The Boolean function is encoded purely in which side of each
minterm's branch pair carries the low-threshold (stronger) device; evaluation
is a current race between the two conducting branches.
"""

import math
from dataclasses import dataclass
from enum import IntEnum

from .device import IsfetParams, _check_ph, _number, _square_law, vth_from_ph
from .errors import DomainError, UnresolvableGateError, UsageError

# Each pull-down branch stacks two devices in series; collapse the stack into
# one effective device with the gain halved.
SERIES_K_FACTOR = 0.5


class TruthTable2(IntEnum):
    """All 16 two-input Boolean functions, numbered by truth-table value.

    Bit (3 - m) of the value holds the output for minterm m = 2*A + B, so the
    numbering matches the standard Boolean-function table (FALSE=0 .. TRUE=15,
    AND=0b0001, XOR=0b0110).
    """

    FALSE = 0
    AND = 1
    A_AND_NOT_B = 2
    A = 3
    NOT_A_AND_B = 4
    B = 5
    XOR = 6
    OR = 7
    NOR = 8
    XNOR = 9
    NOT_B = 10
    A_OR_NOT_B = 11
    NOT_A = 12
    NOT_A_OR_B = 13
    NAND = 14
    TRUE = 15

    def minterm(self, m: int) -> int:
        """Output bit for minterm m = 2*A + B."""
        if m not in (0, 1, 2, 3):
            raise ValueError(f"minterm index must be in 0..3, got {m!r}")
        return (self.value >> (3 - m)) & 1

    def eval(self, a: int, b: int) -> int:
        """Output bit for inputs (a, b)."""
        return self.minterm(minterm_index(a, b))

    @classmethod
    def from_name(cls, text: str) -> "TruthTable2":
        """Look up a function by canonical name, decimal, or 0b literal."""
        token = str(text).strip().upper()
        if token in cls.__members__:
            return cls[token]
        try:
            value = int(token, 0)
        except ValueError:
            raise UsageError(f"unknown function name {text!r}") from None
        if not 0 <= value <= 15:
            raise UsageError(f"function value {text!r} outside 0..15")
        return cls(value)

    def complement(self) -> "TruthTable2":
        return TruthTable2(self.value ^ 0b1111)


def minterm_index(a: int, b: int) -> int:
    """Minterm number m = 2*A + B for a pair of input bits."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"inputs must be bits, got ({a!r}, {b!r})")
    return 2 * a + b


@dataclass(frozen=True)
class BranchAssignment:
    """Which side of each minterm's branch pair carries the LVT devices.

    ``lvt_on_out_side[m]`` true means the branch on the V_OUT side for
    minterm m is the low-threshold one (its mirror branch is then the
    high-threshold one); the sides are complementary by construction.
    """

    lvt_on_out_side: tuple[bool, bool, bool, bool]

    def __post_init__(self):
        bits = tuple(bool(b) for b in self.lvt_on_out_side)
        if len(bits) != 4:
            raise ValueError(
                f"expected 4 per-minterm flags, got {len(self.lvt_on_out_side)}"
            )
        object.__setattr__(self, "lvt_on_out_side", bits)

    def __getitem__(self, m: int) -> bool:
        return self.lvt_on_out_side[m]


# The cell has one layout for all 16 functions, so a function's branch
# assignment is one entry of a fixed table, indexed by truth-table value.
_ASSIGNMENTS = tuple(
    BranchAssignment(tuple(bool(f.minterm(m)) for m in range(4))) for f in TruthTable2
)
_FUNCTIONS = {a: f for f, a in zip(TruthTable2, _ASSIGNMENTS)}


def assignment_for(f: TruthTable2) -> BranchAssignment:
    """Branch assignment realizing a Boolean function.

    For minterm m exactly one branch per side conducts; the LVT side
    discharges first, and a discharged V_OUT reads as output 1 after the
    output inversion. Placing the LVT branch on the V_OUT side exactly when
    f(m) = 1 therefore realizes f.
    """
    return _ASSIGNMENTS[f]


def function_of(a: BranchAssignment) -> TruthTable2:
    """Boolean function realized by a branch assignment (inverse of assignment_for)."""
    return _FUNCTIONS[a]


@dataclass(frozen=True)
class GatePhProgram:
    """pH programming of one camouflaged gate.

    ``ph_low`` is injected on LVT-role devices and ``ph_high`` on HVT-role
    devices. Equal values are representable but carry no information; the
    evaluators report such a program as unresolvable/unresolved.
    """

    ph_low: float
    ph_high: float
    assignment: BranchAssignment

    def __post_init__(self):
        _check_ph(self.ph_low, "ph_low")
        _check_ph(self.ph_high, "ph_high")
        if self.ph_low > self.ph_high:
            raise DomainError(
                f"ph_low ({self.ph_low!r}) must not exceed ph_high ({self.ph_high!r})"
            )


def _branch(params: IsfetParams, ph: float) -> tuple[float, float]:
    """``(k, vth)`` of the one device a pull-down branch's series stack acts as."""
    return float(params.k_gain) * SERIES_K_FACTOR, vth_from_ph(params, ph)


def branch_current(params: IsfetParams, ph: float, v_ds: float) -> float:
    """Current through one conducting pull-down branch at full gate drive and
    drain bias ``v_ds``, which the caller keeps non-negative."""
    k, vth = _branch(params, ph)
    return _square_law(k, float(params.vdd) - vth, _number("v_ds", v_ds))


def evaluate_static(
    program: GatePhProgram, params: IsfetParams, a: int, b: int
) -> int:
    """Winner-take-all output bit from the branch currents at evaluation onset.

    Returns 1 iff the V_OUT-side branch draws strictly more current than its
    mirror (so V_OUT discharges first): the ``ph_low`` branch sits on the
    V_OUT side of minterm m exactly when ``program.assignment[m]`` is set.
    Raises UnresolvableGateError when either current is not finite or the
    two are exactly equal: an overflowing, unprogrammed or degenerate gate.
    """
    m = minterm_index(a, b)
    i_low = branch_current(params, program.ph_low, params.vdd)
    i_high = branch_current(params, program.ph_high, params.vdd)
    if not (math.isfinite(i_low) and math.isfinite(i_high)):
        raise UnresolvableGateError(
            f"unresolvable gate: branch currents ({i_low:.6e} A, {i_high:.6e} A) "
            f"are not finite for pH pair ({program.ph_low}, {program.ph_high})"
        )
    if i_low == i_high:
        raise UnresolvableGateError(
            f"unresolvable gate: branch currents are equal ({i_low:.6e} A) "
            f"for pH pair ({program.ph_low}, {program.ph_high})"
        )
    return int((i_low > i_high) == program.assignment[m])
