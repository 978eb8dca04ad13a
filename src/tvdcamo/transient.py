"""Fixed-step transient simulation of one camouflaged gate.

One clock period is simulated: a precharge half (both differential nodes
pinned to the rail through ideal switches) and an evaluation half, in which
the two conducting pull-down branches race while the cross-coupled PMOS pair
regenerates the imbalance. Output inverters are ideal comparators.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from .device import IsfetParams, _number, _write_csv
from .errors import SimulationError, UsageError, _shown
from .gates import GatePhProgram, _branch, branch_current, minterm_index


# Most Euler steps one simulated clock period may take: 10**7 steps are
# 400 MB of waveform arrays (five float64 samples per step).
_MAX_STEPS = 10**7

PMOS_VTH = 0.5  # sense-amp PMOS threshold magnitude, V


@dataclass(frozen=True)
class SimConfig:
    """Simulation conditions for one transient run on the device's supply."""

    clock_freq: float = field(
        default=2e7, metadata={"help": "clock, Hz; one simulated period = 1/clock_freq"}
    )
    c_node: float = field(
        default=1e-14, metadata={"help": "differential node capacitance, F"}
    )
    dt: float = field(default=1e-12, metadata={"help": "integration step, s"})
    trip: float | None = field(
        default=None, metadata={"help": "output inverter threshold, V (default vdd/2)"}
    )
    resolve_margin: float = field(
        default=0.1,
        metadata={"help": "|V_OUT - V̄_OUT| needed to call a winner, V"},
    )

    def __post_init__(self):
        # Python floats, so steps may be inf where np.float64 would warn.
        freq, _, dt = (
            _number(name, getattr(self, name), "positive") for name in ("clock_freq", "c_node", "dt")
        )
        if dt > 1 / freq / 100:
            raise UsageError(
                f"dt {self.dt!r} too coarse for clock period {self.period!r}"
            )
        steps = 1 / freq / dt
        if steps > _MAX_STEPS + 0.5:
            raise UsageError(
                f"one clock period takes {steps:.3e} steps of dt, more than "
                f"{_MAX_STEPS}; raise --clock-freq or --dt"
            )
        if self.trip is not None:
            _number("trip", self.trip)
        _number("resolve_margin", self.resolve_margin)

    @property
    def period(self) -> float:
        return 1.0 / self.clock_freq

    def trip_at(self, vdd: float) -> float:
        return vdd / 2 if self.trip is None else self.trip

    @property
    def n_steps(self) -> int:
        return int(round(self.period / self.dt))


def check_supply(params: IsfetParams, cfg: SimConfig) -> None:
    """UsageError unless the trip point, resolve_margin and PMOS_VTH lie
    inside (0, vdd) of the device supply."""
    vdd = params.vdd
    bounds = {"trip": cfg.trip_at(vdd), "resolve_margin": cfg.resolve_margin, "pmos_vth": PMOS_VTH}
    for name, value in bounds.items():
        if not 0 < value < vdd:
            raise UsageError(f"{name} must lie inside (0, vdd), got {_shown(value)}")


@dataclass
class GateTrace:
    """Waveforms and the resolved outcome of one simulated clock period."""

    t: np.ndarray  # sample times, s
    v_out: np.ndarray  # differential node V_OUT, V
    v_out_bar: np.ndarray  # differential node V̄_OUT, V
    out: np.ndarray  # inverter output OUT, V
    out_bar: np.ndarray  # inverter output OUT̄, V
    resolved_output: int | None  # 0/1, or None when the race never resolved
    resolve_time: float | None  # seconds from evaluation start, or None
    eval_start_index: int  # sample index where evaluation begins

    @property
    def is_resolved(self) -> bool:
        return self.resolved_output is not None

    @property
    def output_str(self) -> str:
        return "unresolved" if self.resolved_output is None else str(self.resolved_output)


def _race(program: GatePhProgram, params: IsfetParams, cfg: SimConfig):
    """The program's race, ``_kernels.integrate``'s arguments after
    ``n_total`` as Python floats, with the ``ph_low`` branch on the V_OUT side.

    Minterm m runs this race when ``program.assignment[m]`` is set, else its
    mirror image, the two branches swapped. The kernel treats both nodes
    alike, so the mirror swaps the two waveforms bit for bit and keeps the
    resolve time; a resolved sample has a nonzero differential, so the
    output flips.
    """
    check_supply(params, cfg)
    return (
        float(cfg.dt), float(params.vdd), float(cfg.c_node),
        *_branch(params, program.ph_low), *_branch(params, program.ph_high),
        float(params.k_gain), PMOS_VTH,
    )


def _minterm_output(output, lvt_on_out_side: bool):
    """A minterm's output when its program's race resolved to ``output``."""
    return output if output is None or lvt_on_out_side else 1 - output


def _integrate(v_out, v_bar, start: int, stop: int, race) -> None:
    bad = _kernels.integrate(v_out, v_bar, start, stop, *race)
    if bad >= 0:
        dt, vdd = race[0], race[1]
        if not math.isfinite(_max_current(race)):
            raise SimulationError(
                f"supply vdd={vdd:.3e} V overflows the drive current; lower vdd"
            )
        raise SimulationError(
            f"node voltage diverged at t={bad * dt:.3e} s; reduce dt "
            f"(currently {dt:.3e} s)"
        )


def _first_resolved(v_out, v_bar, cfg: SimConfig, trip: float):
    """(output, index) of the first sample that resolves, or (None, None).

    A sample resolves when the differential reaches ``resolve_margin`` and
    the losing node sits below the inverter trip point ``trip``.
    """
    diff = v_out - v_bar
    loser = np.minimum(v_out, v_bar)
    cond = (np.abs(diff) >= cfg.resolve_margin) & (loser < trip)
    if not cond.any():
        return None, None
    i = int(np.argmax(cond))
    return int(diff[i] < 0), i  # V_OUT lower -> it discharged -> 1


def simulate(
    program: GatePhProgram,
    params: IsfetParams,
    cfg: SimConfig,
    a: int,
    b: int,
) -> GateTrace:
    """Simulate one full clock period for one input pair.

    The discharge of V_OUT maps to output 1. The winner is declared at the
    first sample where the differential exceeds ``resolve_margin`` and the
    losing node sits below the inverter trip point; if that never happens the
    trace comes back unresolved. A minterm that runs the mirror of ``_race``
    gets the two node waveforms swapped and the output flipped.
    """
    race = _race(program, params, cfg)
    lvt_on_out_side = program.assignment[minterm_index(a, b)]
    v_out, v_bar, output, resolve_time = _evaluate(race, cfg, waveform=True)
    if not lvt_on_out_side:
        v_out, v_bar = v_bar, v_out
    trip = cfg.trip_at(params.vdd)
    return GateTrace(
        t=np.arange(len(v_out), dtype=np.float64) * cfg.dt,
        v_out=v_out,
        v_out_bar=v_bar,
        out=np.where(v_out < trip, params.vdd, 0.0),
        out_bar=np.where(v_bar < trip, params.vdd, 0.0),
        resolved_output=_minterm_output(output, lvt_on_out_side),
        resolve_time=resolve_time,
        eval_start_index=cfg.n_steps // 2,
    )


# First chunk of an evaluation half; at the defaults a race resolves in 167
# steps.
_FIRST_CHUNK = 256


def _max_current(race) -> float:
    """The largest saturation current of any device in the race, or inf."""
    _, vdd, _, k_out, vth_out, k_bar, vth_bar, k_pmos, vth_pmos = race
    # Squares as products: a float power would raise OverflowError.
    ovs = [max(vdd - vth, 0.0) for vth in (vth_out, vth_bar, vth_pmos)]
    return max(0.5 * k * (ov * ov) for k, ov in zip((k_out, k_bar, k_pmos), ovs))


def _cannot_diverge(race) -> bool:
    """True when no Euler step can leave the kernel's guard band.

    Nodes start each step clamped to [0, vdd], and one step moves a node by
    at most ``_max_current`` times dt / c_node. Keeping that below half of
    ``_kernels.GUARD_V`` leaves every step inside the band, so stopping
    early cannot hide a later ``SimulationError``.
    """
    dt, _, c_node = race[:3]
    return _max_current(race) * dt / c_node <= 0.5 * _kernels.GUARD_V


def _evaluate(race, cfg: SimConfig, waveform: bool):
    """``(v_out, v_bar, resolved_output, resolve_time)`` of one race.

    Integrates the evaluation half in doubling chunks and stops at the first
    resolving sample, unless ``waveform`` asks for the whole period: then
    the rest of the half follows in one call. A config that fails
    ``_cannot_diverge`` integrates the whole half in one call, so it raises
    ``SimulationError`` exactly where a single call would.
    """
    n_total = cfg.n_steps
    n_pre = n_total // 2
    vdd = race[1]
    trip = cfg.trip_at(vdd)
    v_out = np.empty(n_total + 1, dtype=np.float64)
    v_bar = np.empty(n_total + 1, dtype=np.float64)
    # Precharge half: ideal switches pin both nodes at the rail.
    first = 0 if waveform else n_pre
    v_out[first : n_pre + 1] = vdd
    v_bar[first : n_pre + 1] = vdd
    chunk = _FIRST_CHUNK if _cannot_diverge(race) else n_total - n_pre
    start = n_pre
    while start < n_total:
        stop = min(start + chunk, n_total)
        _integrate(v_out, v_bar, start, stop, race)
        output, i = _first_resolved(v_out[start : stop + 1], v_bar[start : stop + 1], cfg, trip)
        if output is not None:
            if waveform:
                _integrate(v_out, v_bar, stop, n_total, race)
            return v_out, v_bar, output, (start - n_pre + i) * cfg.dt
        start = stop
        chunk *= 2
    return v_out, v_bar, None, None


# Drain bias at which margin_report compares branch currents: the triode
# region, where the race is decided as the nodes approach ground.
_PROBE_V_DS = 0.1


def margin_report(program: GatePhProgram, params: IsfetParams, cfg: SimConfig) -> list[dict]:
    """Per-minterm drive imbalance and resolution timing.

    The current ratio compares the LVT-role branch against the HVT-role
    branch at full gate drive and v_ds = ``_PROBE_V_DS``. Outputs and resolve
    times equal those of ``simulate``.

    Integrates the program's race (``_race``) once, up to its resolving sample.
    """
    i_lvt = branch_current(params, program.ph_low, _PROBE_V_DS)
    i_hvt = branch_current(params, program.ph_high, _PROBE_V_DS)
    ratio = float("inf") if i_hvt == 0.0 else i_lvt / i_hvt
    race = _race(program, params, cfg)
    _, _, output, resolve_time = _evaluate(race, cfg, waveform=False)
    rows = []
    for a in (0, 1):
        for b in (0, 1):
            m = minterm_index(a, b)
            rows.append(
                {
                    "minterm": m,
                    "a": a,
                    "b": b,
                    "current_ratio": ratio,
                    "resolve_time": resolve_time,
                    "output": _minterm_output(output, program.assignment[m]),
                }
            )
    return rows


def write_trace_csv(trace: GateTrace, fh) -> None:
    """Write a waveform CSV with header ``t,v_out,v_out_bar,out,out_bar``,
    rows formatted like ``np.savetxt(fmt="%.6e", delimiter=",")``."""
    _write_csv(
        fh,
        "t,v_out,v_out_bar,out,out_bar",
        [trace.t, trace.v_out, trace.v_out_bar, trace.out, trace.out_bar],
    )


def write_margin_csv(rows: list[dict], fh) -> None:
    """Write a margin report as CSV."""
    fh.write("minterm,a,b,current_ratio,resolve_time,output\n")
    for r in rows:
        rt = "" if r["resolve_time"] is None else f"{r['resolve_time']:.6e}"
        out = "unresolved" if r["output"] is None else str(r["output"])
        fh.write(f"{r['minterm']},{r['a']},{r['b']},{r['current_ratio']:.6e},{rt},{out}\n")


def trace_metadata(
    program: GatePhProgram,
    params: IsfetParams,
    cfg: SimConfig,
    a: int,
    b: int,
    trace: GateTrace,
) -> dict:
    """Sidecar metadata describing how a waveform file was produced."""
    return {
        "inputs": {"a": a, "b": b},
        "program": {
            "ph_low": program.ph_low,
            "ph_high": program.ph_high,
            "lvt_on_out_side": list(program.assignment.lvt_on_out_side),
        },
        "params": asdict(params),
        "config": {
            **asdict(cfg), "vdd": params.vdd, "trip": cfg.trip_at(params.vdd), "pmos_vth": PMOS_VTH
        },
        "resolved_output": trace.resolved_output,
        "resolve_time": trace.resolve_time,
    }
