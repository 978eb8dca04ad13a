"""Fixed-step transient simulation of one camouflaged gate.

One clock period is simulated: a precharge half (both differential nodes
pinned to the rail through ideal switches) and an evaluation half, in which
the two conducting pull-down branches race while the cross-coupled PMOS pair
regenerates the imbalance. Output inverters are ideal comparators.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from .device import IsfetParams, _check_positive, vth_from_ph
from .errors import SimulationError, UsageError
from .gates import (
    SERIES_K_FACTOR,
    GatePhProgram,
    branch_current,
    minterm_branch_phs,
    minterm_index,
)


@dataclass(frozen=True)
class SimConfig:
    """Simulation conditions for one gate-level transient run."""

    vdd: float = field(default=1.8, metadata={"help": "supply rail, V"})
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
    pmos_vth: float = field(
        default=0.5, metadata={"help": "sense-amp PMOS threshold magnitude, V"}
    )

    def __post_init__(self):
        for name in ("vdd", "clock_freq", "c_node", "dt"):
            _check_positive(name, getattr(self, name))
        if self.dt > self.period / 100:
            raise UsageError(
                f"dt {self.dt!r} too coarse for clock period {self.period!r}"
            )
        if self.trip is not None and not 0 < self.trip < self.vdd:
            raise UsageError(f"trip must lie inside (0, vdd), got {self.trip!r}")
        if not 0 < self.resolve_margin < self.vdd:
            raise UsageError(
                f"resolve_margin must lie inside (0, vdd), got {self.resolve_margin!r}"
            )
        if not 0 < self.pmos_vth < self.vdd:
            raise UsageError(
                f"pmos_vth must lie inside (0, vdd), got {self.pmos_vth!r}"
            )

    @property
    def period(self) -> float:
        return 1.0 / self.clock_freq

    @property
    def trip_voltage(self) -> float:
        return self.vdd / 2 if self.trip is None else self.trip

    @property
    def n_steps(self) -> int:
        return int(round(self.period / self.dt))


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


def _race(program: GatePhProgram, params: IsfetParams, cfg: SimConfig, a: int, b: int):
    """Circuit constants of one input pair: ``_kernels.integrate``'s
    arguments after ``n_total``."""
    if cfg.vdd != params.vdd:
        raise UsageError(
            f"config vdd ({cfg.vdd!r}) differs from device vdd ({params.vdd!r})"
        )
    m = minterm_index(a, b)
    ph_out, ph_bar = minterm_branch_phs(program, m)
    k_eff = params.k_gain * SERIES_K_FACTOR
    return (
        cfg.dt,
        cfg.vdd,
        cfg.c_node,
        k_eff,
        vth_from_ph(params, ph_out),
        k_eff,
        vth_from_ph(params, ph_bar),
        params.k_gain,
        cfg.pmos_vth,
    )


def _integrate(v_out, v_bar, start: int, stop: int, race) -> None:
    bad = _kernels.integrate(v_out, v_bar, start, stop, *race)
    if bad >= 0:
        dt = race[0]
        raise SimulationError(
            f"node voltage diverged at t={bad * dt:.3e} s; reduce dt "
            f"(currently {dt:.3e} s)"
        )


def _first_resolved(v_out, v_bar, cfg: SimConfig):
    """(output, index) of the first sample that resolves, or (None, None).

    A sample resolves when the differential reaches ``resolve_margin`` and
    the losing node sits below the inverter trip point.
    """
    diff = v_out - v_bar
    loser = np.minimum(v_out, v_bar)
    cond = (np.abs(diff) >= cfg.resolve_margin) & (loser < cfg.trip_voltage)
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
    trace comes back unresolved.
    """
    race = _race(program, params, cfg, a, b)
    n_total = cfg.n_steps
    n_pre = n_total // 2
    v_out = np.empty(n_total + 1, dtype=np.float64)
    v_bar = np.empty(n_total + 1, dtype=np.float64)
    # Precharge half: ideal switches pin both nodes at the rail.
    v_out[: n_pre + 1] = cfg.vdd
    v_bar[: n_pre + 1] = cfg.vdd
    _integrate(v_out, v_bar, n_pre, n_total, race)

    trip = cfg.trip_voltage
    resolved_output, i = _first_resolved(v_out[n_pre:], v_bar[n_pre:], cfg)
    return GateTrace(
        t=np.arange(n_total + 1, dtype=np.float64) * cfg.dt,
        v_out=v_out,
        v_out_bar=v_bar,
        out=np.where(v_out < trip, cfg.vdd, 0.0),
        out_bar=np.where(v_bar < trip, cfg.vdd, 0.0),
        resolved_output=resolved_output,
        resolve_time=None if i is None else i * cfg.dt,
        eval_start_index=n_pre,
    )


# First chunk of a resolve-only run; at the defaults a race resolves in 167
# steps.
_FIRST_CHUNK = 256


def _cannot_diverge(race) -> bool:
    """True when no Euler step can leave the kernel's guard band.

    Nodes start each step clamped to [0, vdd], and one step moves a node by
    at most the largest saturation current of any device times dt / c_node.
    Keeping that below half of ``_kernels.GUARD_V`` leaves every step inside
    the band, so stopping early cannot hide a later ``SimulationError``.
    """
    dt, vdd, c_node, k_out, vth_out, k_bar, vth_bar, k_pmos, vth_pmos = race
    i_max = max(
        0.5 * k_out * max(vdd - vth_out, 0.0) ** 2,
        0.5 * k_bar * max(vdd - vth_bar, 0.0) ** 2,
        0.5 * k_pmos * max(vdd - vth_pmos, 0.0) ** 2,
    )
    return i_max * dt / c_node <= 0.5 * _kernels.GUARD_V


def _resolve(program: GatePhProgram, params: IsfetParams, cfg: SimConfig, a: int, b: int):
    """``(resolved_output, resolve_time)`` of ``simulate``, without the waveform.

    Integrates the evaluation half in doubling chunks and stops at the first
    resolving sample. A config that fails ``_cannot_diverge`` integrates the
    whole half in one call, so it raises ``SimulationError`` exactly when
    ``simulate`` does.
    """
    race = _race(program, params, cfg, a, b)
    n_total = cfg.n_steps
    n_pre = n_total // 2
    v_out = np.empty(n_total + 1, dtype=np.float64)
    v_bar = np.empty(n_total + 1, dtype=np.float64)
    v_out[n_pre] = cfg.vdd
    v_bar[n_pre] = cfg.vdd
    chunk = _FIRST_CHUNK if _cannot_diverge(race) else n_total - n_pre
    start = n_pre
    while start < n_total:
        stop = min(start + chunk, n_total)
        _integrate(v_out, v_bar, start, stop, race)
        output, i = _first_resolved(v_out[start : stop + 1], v_bar[start : stop + 1], cfg)
        if output is not None:
            return output, (start - n_pre + i) * cfg.dt
        start = stop
        chunk *= 2
    return None, None


def margin_report(
    program: GatePhProgram,
    params: IsfetParams,
    cfg: SimConfig,
    probe_v_ds: float = 0.1,
) -> list[dict]:
    """Per-minterm drive imbalance and resolution timing.

    The current ratio compares the LVT-role branch against the HVT-role
    branch at full gate drive and a small probe v_ds (default 0.1 V, the
    triode region where the race is decided as the nodes approach ground).
    Outputs and resolve times equal those of ``simulate``.
    """
    i_lvt = branch_current(params, program.ph_low, probe_v_ds)
    i_hvt = branch_current(params, program.ph_high, probe_v_ds)
    ratio = float("inf") if i_hvt == 0.0 else i_lvt / i_hvt
    rows = []
    for a in (0, 1):
        for b in (0, 1):
            output, resolve_time = _resolve(program, params, cfg, a, b)
            rows.append(
                {
                    "minterm": minterm_index(a, b),
                    "a": a,
                    "b": b,
                    "current_ratio": ratio,
                    "resolve_time": resolve_time,
                    "output": output,
                }
            )
    return rows


# Rows per block of the waveform CSV writer; blocks keep the text of the
# whole file (3.25 MB at 50,001 rows) from being built in memory at once.
_CSV_BLOCK_ROWS = 4096


def write_trace_csv(trace: GateTrace, fh) -> None:
    """Write a waveform CSV with header ``t,v_out,v_out_bar,out,out_bar``.

    The rows are byte for byte those of ``np.savetxt(fh, data, fmt="%.6e",
    delimiter=",")``. Each block of rows formats every distinct value once.
    """
    fh.write("t,v_out,v_out_bar,out,out_bar\n")
    data = np.column_stack([trace.t, trace.v_out, trace.v_out_bar, trace.out, trace.out_bar])
    for start in range(0, len(data), _CSV_BLOCK_ROWS):
        block = data[start : start + _CSV_BLOCK_ROWS]
        # Unique by bit pattern, so -0.0 keeps its own "-0.000000e+00".
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array(list(map("%.6e".__mod__, bits.view(np.float64).tolist())), dtype=object)
        cells = text[inverse.reshape(-1)].tolist()
        fh.write(("%s,%s,%s,%s,%s\n" * len(block)) % tuple(cells))


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
        "config": {**asdict(cfg), "trip": cfg.trip_voltage},
        "resolved_output": trace.resolved_output,
        "resolve_time": trace.resolve_time,
    }
