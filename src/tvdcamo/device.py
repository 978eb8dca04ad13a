"""Square-law model of an n-type ISFET whose threshold voltage tracks pH.

The threshold follows the ideal Nernst response (a fixed shift per pH unit
around a calibration point), which is what makes the device role (LVT or HVT)
programmable after fabrication by exchanging the electrolyte.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import PhRangeError, UsageError, _shown

PH_MIN = 0.0
PH_MAX = 14.0

# Ideal electrolyte-insulator sensitivity, volts per pH unit.
NERNST_SENSITIVITY = 0.059


# The classes of a number and their subclasses (np.float64); a bool is no number.
_NUMBER_TYPES = (int, float)


def _number(name: str, value, bound: str = "") -> float:
    """``value`` as a float, an int past the largest float as ±inf. UsageError for a bool,
    a non-number and, given ``bound`` ("positive", "non-negative"), one not finite or out of it."""
    if value.__class__ is bool or not isinstance(value, _NUMBER_TYPES):
        raise UsageError(f"{name} must be an int or a float, got {_shown(value)}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if bound and not ((x > 0 if bound == "positive" else x >= 0) and x <= sys.float_info.max):
        raise UsageError(f"{name} must be {bound} and finite, got {_shown(value)}")
    return x


def _check_ph(ph, name: str = "pH") -> None:
    if not PH_MIN <= _number(name, ph) <= PH_MAX:
        raise PhRangeError(ph)


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
        # Every class first, in a config's (sorted) key order, as its reader reports them.
        for key in ("k_gain", "ph_ref", "sensitivity", "vdd", "vth0"):
            _number(key, getattr(self, key))
        _number("k_gain", self.k_gain, "positive")
        vdd = _number("vdd", self.vdd, "positive")
        _number("sensitivity", self.sensitivity, "non-negative")
        _check_ph(self.ph_ref, "ph_ref")
        if not 0 < _number("vth0", self.vth0) < vdd:
            raise UsageError(
                f"vth0 must lie inside (0, vdd), got {_shown(self.vth0)} with vdd {self.vdd!r}"
            )


@dataclass(frozen=True)
class BiasPoint:
    """One operating point: gate (reference-electrode) and drain bias plus pH."""

    v_gs: float  # gate-to-source voltage, V
    v_ds: float  # drain-to-source voltage, V (n-type convention: >= 0)
    ph: float  # solution pH

    def __post_init__(self):
        _number("v_gs", self.v_gs)
        if _number("v_ds", self.v_ds) < 0:
            raise UsageError(f"v_ds must be non-negative, got {_shown(self.v_ds)}")
        _check_ph(self.ph, "ph")


def vth_from_ph(params: IsfetParams, ph: float) -> float:
    """Threshold voltage at the given solution pH (exactly linear in pH)."""
    _check_ph(ph)
    return float(params.vth0) + float(params.sensitivity) * (float(ph) - float(params.ph_ref))


def _square_law(k: float, v_ov: float, v_ds: float) -> float:
    """Drain current at gain k, overdrive v_ov and drain bias v_ds: cutoff, triode or saturation."""
    if v_ov <= 0.0:
        return 0.0
    if v_ds < v_ov:
        return k * (v_ov * v_ds - 0.5 * v_ds * v_ds)
    return 0.5 * k * v_ov * v_ov


def ids(params: IsfetParams, bias: BiasPoint) -> float:
    """Drain-source current in amperes for the quadratic device model; never negative."""
    v_ov = float(bias.v_gs) - vth_from_ph(params, bias.ph)
    return _square_law(float(params.k_gain), v_ov, _number("v_ds", bias.v_ds))


def iv_sweep(params: IsfetParams, v_gs_values, v_ds: float, ph_values) -> np.ndarray:
    """Sweep gate bias against a set of pH values at fixed v_ds.

    Returns a float array of shape (len(v_gs_values) * len(ph_values), 3)
    with columns (v_gs, ph, i_ds), row-major: the v_gs grid is the outer
    loop. The v_gs grid must be non-empty, finite and strictly monotone, and
    v_ds finite and non-negative. Each i_ds is bit for bit ``ids`` of its row.
    """
    grid = np.asarray(v_gs_values, dtype=np.float64)
    phs = list(ph_values)
    if grid.ndim != 1:
        raise UsageError("v_gs grid must be one-dimensional")
    if not grid.size:
        raise UsageError("v_gs grid is empty")
    if not phs:
        raise UsageError("pH list is empty")
    if not np.all(np.isfinite(grid)):
        raise UsageError("v_gs grid must be finite")
    _number("v_ds", v_ds, "non-negative")
    diffs = np.diff(grid)
    if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise UsageError("v_gs grid must be strictly monotone")
    for p in phs:
        _check_ph(p)

    # The operations of ids(), in its order, so every row is bit-identical;
    # like its Python floats, they overflow to inf or nan without a warning.
    ph = np.array(phs, dtype=np.float64)
    v_gs = np.repeat(grid, len(phs))
    with np.errstate(over="ignore", invalid="ignore"):
        vth = params.vth0 + params.sensitivity * (ph - params.ph_ref)
        v_ov = v_gs - np.tile(vth, len(grid))
        triode = params.k_gain * (v_ov * v_ds - 0.5 * v_ds * v_ds)
        saturation = 0.5 * params.k_gain * v_ov * v_ov
    i_ds = np.where(v_ov <= 0.0, 0.0, np.where(v_ds < v_ov, triode, saturation))
    return np.column_stack([v_gs, np.tile(ph, len(grid)), i_ds])


# Rows per block of the CSV writer; blocks keep the text of a whole waveform
# file (3.25 MB at 50,001 rows) and the formatting temporaries from being
# built in memory at once.
_CSV_BLOCK_ROWS = 4096

# Characters of one fixed-width "%.6e" cell and its delimiter: d.dddddd,
# "e", exponent sign, two exponent digits, then "," or newline.
_CELL_WIDTH = 13
_FIXED_CELL = np.dtype((np.void, _CELL_WIDTH))
# 10**k for k in [-_POW10_SPAN, _POW10_SPAN], each correctly rounded, as
# Python's float() of a decimal string is.
_POW10_SPAN = 308
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_SPAN, _POW10_SPAN + 1)])
# Nonzero magnitudes outside [_FAST_MIN, _FAST_MAX) are left to "%".
_FAST_MIN = 1e-300
_FAST_MAX = 1e300
# A scaled value this close to a .5 tie may round either way once the
# scaling's few ulps of error are counted, so it is left to "%".
_TIE_WINDOW = 1e-5
_DIGIT_0 = ord("0")


def _digits(x: np.ndarray):
    """``(buf, slow)``: the ``"%.6e"`` characters of the 1-D array ``x``.

    ``buf`` is column-major, ``(_CELL_WIDTH, x.size)`` uint8: ``buf[k]`` is
    character k of every fixed-width cell; the last row, the delimiter, is left for the
    caller. ``slow`` holds the indices of the cells whose characters must
    come from "%"; their columns of ``buf`` are meaningless.

    The exponent of |x| comes from floor(log10|x|) and the 7-digit mantissa
    from rint(|x| * 10**(6 - e)). The product is off by a few ulps at most,
    so a mantissa is exact unless the scaled value lies near a .5 tie. The
    exponent is corrected once when the mantissa leaves [10**6, 10**7).
    A cell falls back to Python's "%" when it has a sign (negative or -0.0),
    when it is non-finite, when its nonzero magnitude lies outside
    [1e-300, 1e300), when its scaled value is within _TIE_WINDOW of a tie
    at either exponent tried, when the corrected mantissa still leaves
    [10**6, 10**7), or when its exponent has three digits. 0.0 is exact in
    the fast path.
    """
    mag = np.abs(x)
    zero = mag == 0.0
    fast = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    mag = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.int32)
    scaled = mag * _POW10[_POW10_SPAN + 6 - e]
    mant = np.rint(scaled)
    tie = np.abs(scaled - mant) > 0.5 - _TIE_WINDOW
    # log10 can miss the decade by one, and rounding can carry into the next.
    redo = np.flatnonzero((mant >= 1e7) | (mant < 1e6))
    e[redo] += np.where(mant[redo] >= 1e7, 1, -1)
    scaled = mag[redo] * _POW10[_POW10_SPAN + 6 - e[redo]]
    mant[redo] = np.rint(scaled)
    tie[redo] |= np.abs(scaled - mant[redo]) > 0.5 - _TIE_WINDOW
    fast &= ~tie & (mant >= 1e6) & (mant < 1e7) & (np.abs(e) < 100)
    fast |= zero
    fast &= ~np.signbit(x)
    # A zero cell was scaled as 1.0, so its exponent is already 0.
    m = np.where(zero, 0, mant).astype(np.int32)

    buf = np.empty((_CELL_WIDTH, x.size), dtype=np.uint8)
    for k in range(7, 1, -1):
        q = m // 10
        buf[k] = m - 10 * q + _DIGIT_0
        m = q
    buf[0] = m + _DIGIT_0
    buf[1] = ord(".")
    buf[8] = ord("e")
    buf[9] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    buf[10] = e // 10 + _DIGIT_0
    buf[11] = e % 10 + _DIGIT_0
    return buf, np.flatnonzero(~fast)


def _format_rows(block: np.ndarray) -> str:
    """The rows of ``block`` as np.savetxt writes them with ``fmt="%.6e"``
    and ``delimiter=","``: one "%" call per row."""
    row = ",".join(["%.6e"] * block.shape[1]) + "\n"
    return "".join(row % tuple(values) for values in block.tolist())


def _fill_fixed(out: np.ndarray, columns: np.ndarray) -> bool:
    """Fill ``out`` (rows, c) with the fixed-width cells of ``columns`` (c, rows).

    Each run of bit-identical values in a column is formatted once, so -0.0
    and 0.0, and NaNs of different payloads, stay apart. The block is
    written by its runs:
    - every column one run: one row of text, its cells formatted by "%",
      copied into every row;
    - every column one run or one run per row: each column's cells are
      copied into it, a single cell broadcast down its column;
    - otherwise: one np.repeat by run length over all columns, then one
      transposed copy.
    A "%" fallback cell of 12 characters (a near-tie, such as the first
    Euler steps of some pH pairs produce) is written in place. Returns
    False, with ``out`` partly written, when some cell has a sign, a
    3-digit exponent or is nan or inf.
    """
    width, rows = columns.shape
    bits = columns.view(np.uint64)
    new_run = np.empty(columns.shape, dtype=bool)
    new_run[:, 0] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new_run[:, 1:])
    starts = np.flatnonzero(new_run)
    if len(starts) == width:
        cells = ["%.6e" % v for v in columns[:, 0].tolist()]
        if any(len(cell) != _CELL_WIDTH - 1 for cell in cells):
            return False
        row = (",".join(cells) + "\n").encode("ascii")
        out.view(np.dtype((np.void, len(row))))[...] = row
        return True
    values = columns.reshape(-1)[starts]
    buf, slow = _digits(values)
    for j in slow.tolist():
        cell = ("%.6e" % values[j]).encode("ascii")
        if len(cell) != _CELL_WIDTH - 1:
            return False
        buf[:-1, j] = np.frombuffer(cell, dtype=np.uint8)
    buf[-1] = ord(",")
    buf[-1, np.searchsorted(starts, (width - 1) * rows) :] = ord("\n")
    cells = np.ascontiguousarray(buf.T).view(_FIXED_CELL)[:, 0]
    # With a columns of one run per row and width - a of one run, there are
    # width + a * (rows - 1) runs; only then are the columns counted.
    if (len(starts) - width) % (rows - 1) == 0:
        counts = np.count_nonzero(new_run, axis=1).tolist()
        if all(k in (1, rows) for k in counts):
            lo = 0
            for j, k in enumerate(counts):
                out[:, j] = cells[lo : lo + k]
                lo += k
            return True
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = new_run.size
    out[...] = np.repeat(cells, ends - starts).reshape(width, rows).T
    return True


# Fixed-width cells of the first column of recent tables, newest first, as
# (read-only copy of the column, its cells). A waveform's t column depends
# only on n_steps and dt, so every trace of one SimConfig shares one entry.
# A hit needs bitwise equality with the stored copy. At most
# _FIRST_COLUMN_ENTRIES entries of at most _FIRST_COLUMN_ROWS rows each
# (21 bytes a row; 1.05 MB for a 20 MHz trace).
_first_column_cache: list = []
_FIRST_COLUMN_ENTRIES = 4
_FIRST_COLUMN_ROWS = 1 << 16


def _cached_first_column(column: np.ndarray):
    """The cached cells of ``column``, or None."""
    bits = column.view(np.uint64)
    for stored, cells in _first_column_cache:
        if len(stored) == len(bits) and np.array_equal(stored, bits):
            return cells
    return None


def _cache_first_column(column: np.ndarray, cells: np.ndarray) -> None:
    """Store ``cells`` for ``column``; the oldest entry past the bound goes."""
    stored = column.view(np.uint64).copy()
    stored.flags.writeable = cells.flags.writeable = False
    _first_column_cache.insert(0, (stored, cells))
    del _first_column_cache[_FIRST_COLUMN_ENTRIES:]


def _write_csv(fh, header: str, columns) -> None:
    """Write a header line, then rows made of equal-length float columns.

    The rows are byte for byte those of ``np.savetxt(fh,
    np.column_stack(columns), fmt="%.6e", delimiter=",")``. They are
    assembled _CSV_BLOCK_ROWS at a time as fixed-width cells (see
    _fill_fixed), the first column's taken from a cache when it matches a
    column written before. A block with a cell that is not 12 characters
    (negative, -0.0, a 3-digit exponent, nan or inf) is written row by row
    through "%" instead (_format_rows).
    """
    fh.write(header + "\n")
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    first = _cached_first_column(columns[0])
    filling = None
    if first is None and 0 < n <= _FIRST_COLUMN_ROWS:
        filling = np.empty(n, dtype=_FIXED_CELL)
    skip = 0 if first is None else 1
    out = np.empty((min(n, _CSV_BLOCK_ROWS), len(columns)), dtype=_FIXED_CELL)
    flat = np.empty((len(columns) - skip) * len(out))
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n)
        rows = out[: stop - start]
        block = flat[: (len(columns) - skip) * len(rows)].reshape(-1, len(rows))
        for row, column in zip(block, columns[skip:]):
            row[:] = column[start:stop]
        if _fill_fixed(rows[:, skip:], block):
            if first is not None:
                rows[:, 0] = first[start:stop]
            elif filling is not None:
                filling[start:stop] = rows[:, 0]
            # Decoded from the buffer itself, with no bytes copy between.
            fh.write(str(rows.data, "ascii"))
        else:
            filling = None
            fh.write(_format_rows(np.column_stack([c[start:stop] for c in columns])))
    if filling is not None:
        _cache_first_column(columns[0], filling)


def write_sweep_csv(table: np.ndarray, fh) -> None:
    """Write an iv_sweep table as CSV with header ``v_gs,ph,i_ds``."""
    _write_csv(fh, "v_gs,ph,i_ds", np.asarray(table, dtype=np.float64).T)
