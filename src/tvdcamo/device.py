"""Square-law model of an n-type ISFET whose threshold voltage tracks pH.

The threshold follows the ideal Nernst response (a fixed shift per pH unit
around a calibration point), which is what makes the device role (LVT or HVT)
programmable after fabrication by exchanging the electrolyte.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PhRangeError, UsageError

PH_MIN = 0.0
PH_MAX = 14.0

# Ideal electrolyte-insulator sensitivity, volts per pH unit.
NERNST_SENSITIVITY = 0.059


def _check_ph(ph):
    if not PH_MIN <= ph <= PH_MAX:
        raise PhRangeError(ph)


def _check_positive(name: str, value) -> None:
    """UsageError unless value is a finite number above zero (NaN fails)."""
    if not (value > 0 and math.isfinite(value)):
        raise UsageError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class IsfetParams:
    """Device constants and the pH-to-threshold calibration for one ISFET."""

    k_gain: float = field(
        default=1e-4, metadata={"help": "device gain mu_n*c_ox*(W/L), A/V^2"}
    )
    vth0: float = field(default=0.3, metadata={"help": "threshold at ph-ref, V"})
    ph_ref: float = field(default=2.0, metadata={"help": "calibration pH"})
    sensitivity: float = field(
        default=NERNST_SENSITIVITY, metadata={"help": "threshold shift, V/pH"}
    )
    vdd: float = field(default=1.8, metadata={"help": "supply rail, V"})

    def __post_init__(self):
        _check_positive("k_gain", self.k_gain)
        _check_positive("vdd", self.vdd)
        if not (self.sensitivity >= 0 and math.isfinite(self.sensitivity)):
            raise UsageError(
                f"sensitivity must be non-negative and finite, got {self.sensitivity!r}"
            )
        _check_ph(self.ph_ref)
        if not 0 < self.vth0 < self.vdd:
            raise UsageError(
                f"vth0 must lie inside (0, vdd), got {self.vth0!r} with vdd {self.vdd!r}"
            )


@dataclass(frozen=True)
class BiasPoint:
    """One operating point: gate (reference-electrode) and drain bias plus pH."""

    v_gs: float  # gate-to-source voltage, V
    v_ds: float  # drain-to-source voltage, V (n-type convention: >= 0)
    ph: float  # solution pH

    def __post_init__(self):
        if self.v_ds < 0:
            raise UsageError(f"v_ds must be non-negative, got {self.v_ds!r}")
        _check_ph(self.ph)


def vth_from_ph(params: IsfetParams, ph: float) -> float:
    """Threshold voltage at the given solution pH (exactly linear in pH)."""
    _check_ph(ph)
    return params.vth0 + params.sensitivity * (ph - params.ph_ref)


def ids(params: IsfetParams, bias: BiasPoint) -> float:
    """Drain-source current in amperes for the quadratic device model.

    Cutoff below threshold, quadratic triode for v_ds below the overdrive,
    and the standard saturation clamp above it. Never negative.
    """
    v_ov = bias.v_gs - vth_from_ph(params, bias.ph)
    if v_ov <= 0.0:
        return 0.0
    if bias.v_ds < v_ov:
        return params.k_gain * (v_ov * bias.v_ds - 0.5 * bias.v_ds * bias.v_ds)
    return 0.5 * params.k_gain * v_ov * v_ov


def iv_sweep(params: IsfetParams, v_gs_values, v_ds: float, ph_values) -> np.ndarray:
    """Sweep gate bias against a set of pH values at fixed v_ds.

    Returns a float array of shape (len(v_gs_values) * len(ph_values), 3)
    with columns (v_gs, ph, i_ds), row-major: the v_gs grid is the outer
    loop. The v_gs grid must be non-empty, finite and strictly monotone, and
    v_ds finite and non-negative.
    """
    grid = [float(v) for v in v_gs_values]
    phs = [float(p) for p in ph_values]
    if not grid:
        raise UsageError("v_gs grid is empty")
    if not phs:
        raise UsageError("pH list is empty")
    if not all(map(math.isfinite, grid)):
        raise UsageError("v_gs grid must be finite")
    if not (v_ds >= 0 and math.isfinite(v_ds)):
        raise UsageError(f"v_ds must be non-negative and finite, got {v_ds!r}")
    diffs = np.diff(grid)
    if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise UsageError("v_gs grid must be strictly monotone")
    for p in phs:
        _check_ph(p)

    rows = np.empty((len(grid) * len(phs), 3), dtype=np.float64)
    i = 0
    for v in grid:
        for p in phs:
            rows[i, 0] = v
            rows[i, 1] = p
            rows[i, 2] = ids(params, BiasPoint(v_gs=v, v_ds=v_ds, ph=p))
            i += 1
    return rows


def write_sweep_csv(table: np.ndarray, fh) -> None:
    """Write an iv_sweep table as CSV with header ``v_gs,ph,i_ds``."""
    fh.write("v_gs,ph,i_ds\n")
    for v_gs, ph, i in table:
        fh.write(f"{v_gs:.6e},{ph:.6e},{i:.6e}\n")
