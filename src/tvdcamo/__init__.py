"""pH-programmable threshold-voltage-defined logic toolkit.

Models the reconfigurable camouflaged gate family from device physics
(pH-dependent threshold voltage) through gate-level transients to
whole-netlist camouflaging and reverse-engineering attack evaluation.
"""

__version__ = "0.1.0"

from .attack import (
    ELECTROLYTE,
    IMPLANT,
    CandidateState,
    DeviceVisibility,
    oracle_attack,
    profiling_attack,
    resilience_report,
)
from .bench import Gate, Netlist, eval_logic, eval_vectors, parse_bench, serialize_bench
from .camo import (
    CamoConfig,
    CamoGateSpec,
    EquivalenceResult,
    camouflage,
    decamouflage,
    reconstruct,
    verify_equivalence,
)
from .device import BiasPoint, IsfetParams, ids, iv_sweep, vth_from_ph
from .gates import (
    BranchAssignment,
    GatePhProgram,
    TruthTable2,
    assignment_for,
    evaluate_static,
    function_of,
)
from .transient import GateTrace, SimConfig, margin_report, simulate

__all__ = [
    "BiasPoint",
    "BranchAssignment",
    "CamoConfig",
    "CamoGateSpec",
    "CandidateState",
    "DeviceVisibility",
    "ELECTROLYTE",
    "EquivalenceResult",
    "Gate",
    "GatePhProgram",
    "GateTrace",
    "IMPLANT",
    "IsfetParams",
    "Netlist",
    "SimConfig",
    "TruthTable2",
    "assignment_for",
    "camouflage",
    "decamouflage",
    "eval_logic",
    "eval_vectors",
    "evaluate_static",
    "function_of",
    "ids",
    "iv_sweep",
    "margin_report",
    "oracle_attack",
    "parse_bench",
    "profiling_attack",
    "reconstruct",
    "resilience_report",
    "serialize_bench",
    "simulate",
    "verify_equivalence",
    "vth_from_ph",
]
