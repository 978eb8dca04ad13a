"""Exception types shared across the toolkit.

Two error families matter to callers: ``DomainError`` (a well-formed request
hit a modeling or data constraint; CLI exit code 1) and ``UsageError`` (the
request itself was malformed; CLI exit code 2).
"""

import math


def _shown(value) -> str:
    """``repr(value)``, or the digit count of an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        k = int(math.log10(abs(value)))  # one off at worst, near a power of ten
        digits = k + 1 + (abs(value) >= 10 ** (k + 1)) - (abs(value) < 10**k)
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


class TvdCamoError(Exception):
    """Base class for all toolkit errors."""


class DomainError(TvdCamoError):
    """A valid request violated a model or data constraint."""


class UsageError(TvdCamoError):
    """The request itself was malformed (bad flag, empty grid, bad name)."""


class PhRangeError(DomainError):
    """A pH value left the physical [0, 14] range."""

    def __init__(self, ph):
        self.ph = ph
        super().__init__(f"pH {_shown(ph)} outside the valid range [0, 14]")


class UnresolvableGateError(DomainError):
    """A camouflaged gate carries no usable programming (symmetric currents)."""


class UnprogrammedGateError(DomainError):
    """Evaluation reached a CAMO gate with no bound function."""


class SimulationError(DomainError):
    """The transient integration became unstable."""


class NetlistError(DomainError):
    """A structural netlist invariant is violated."""


class CycleError(NetlistError):
    """The gate graph is not acyclic."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        path = " -> ".join(self.cycle + self.cycle[:1])
        super().__init__(f"combinational cycle: {path}")


class BenchParseError(DomainError):
    """A .bench source error, located by line (and column when known)."""

    def __init__(self, message, line, col=None):
        self.line = line
        self.col = col
        where = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{where}: {message}")


class NotCamouflageableError(DomainError):
    """A selected gate cannot be replaced by the 2-input camouflaged cell."""


class CoverageError(DomainError):
    """A camouflage config does not cover the netlist's CAMO instances 1:1."""


class SignatureMismatchError(DomainError):
    """Two netlists do not share the same primary I/O signature."""


class CapacityError(DomainError):
    """Joint candidate enumeration would exceed the configured limit."""
