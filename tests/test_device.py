import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_difference
from tvdcamo import device
from tvdcamo.device import (
    BiasPoint,
    IsfetParams,
    ids,
    iv_sweep,
    vth_from_ph,
    write_sweep_csv,
)
from tvdcamo.errors import PhRangeError, TvdCamoError, UsageError, _shown

DEFAULTS = IsfetParams()


def _near_ties() -> np.ndarray:
    """Values whose scaled mantissa sits at a .5 tie, some of them at a
    decade boundary where the tie decides the exponent, and their 8 float
    neighbours on each side."""
    below = above = np.array([999999.95, 9.9999995, 0.99999995, 1.0000005, 123456.75])
    near_ties = [below]
    for _ in range(8):
        below = np.nextafter(below, -np.inf)
        above = np.nextafter(above, np.inf)
        near_ties += [below, above]
    return np.concatenate(near_ties)


_NEAR_TIES = _near_ties()


def savetxt_reference(table) -> str:
    buf = io.StringIO()
    buf.write("v_gs,ph,i_ds\n")
    np.savetxt(buf, table, fmt="%.6e", delimiter=",")
    return buf.getvalue()


def csv_text(table) -> str:
    buf = io.StringIO()
    write_sweep_csv(table, buf)
    return buf.getvalue()


def savetxt_mismatch(table):
    return first_difference(csv_text(table), savetxt_reference(table))


class TestVthFromPh:
    def test_reference_ph_returns_vth0(self):
        assert vth_from_ph(DEFAULTS, 2.0) == 0.3

    def test_ph10_hand_value(self):
        # 0.3 + (10 - 2) * 0.059
        assert vth_from_ph(DEFAULTS, 10.0) == pytest.approx(0.772, abs=1e-12)

    def test_one_ph_unit_shift_is_59mv(self):
        delta = vth_from_ph(DEFAULTS, 3.0) - vth_from_ph(DEFAULTS, 2.0)
        assert delta == pytest.approx(0.059, abs=1e-12)

    @pytest.mark.parametrize("ph", [-0.1, 14.2, 100.0])
    def test_out_of_range_ph_rejected(self, ph):
        with pytest.raises(PhRangeError) as exc:
            vth_from_ph(DEFAULTS, ph)
        assert str(ph) in str(exc.value)

    @given(
        ph=st.floats(0.0, 14.0),
        delta=st.floats(-14.0, 14.0),
    )
    def test_linearity(self, ph, delta):
        if not 0.0 <= ph + delta <= 14.0:
            delta = -delta
            if not 0.0 <= ph + delta <= 14.0:
                return
        shift = vth_from_ph(DEFAULTS, ph + delta) - vth_from_ph(DEFAULTS, ph)
        assert shift == pytest.approx(DEFAULTS.sensitivity * delta, abs=1e-12)


class TestIds:
    def test_triode_ph2(self):
        # 1e-4 * (1.5 * 0.1 - 0.005)
        i = ids(DEFAULTS, BiasPoint(v_gs=1.8, v_ds=0.1, ph=2.0))
        assert i == pytest.approx(1.45e-5, rel=1e-9)

    def test_triode_ph10(self):
        # 1e-4 * (1.028 * 0.1 - 0.005); confirms LVT current beats HVT
        i = ids(DEFAULTS, BiasPoint(v_gs=1.8, v_ds=0.1, ph=10.0))
        assert i == pytest.approx(9.78e-6, rel=1e-9)

    def test_saturation_clamp_ph10(self):
        # 0.5 * 1e-4 * 1.028**2
        i = ids(DEFAULTS, BiasPoint(v_gs=1.8, v_ds=1.8, ph=10.0))
        assert i == pytest.approx(5.28392e-5, rel=1e-9)

    @pytest.mark.parametrize("v_ds", [0.0, 0.3, 1.8])
    def test_cutoff(self, v_ds):
        assert ids(DEFAULTS, BiasPoint(v_gs=0.2, v_ds=v_ds, ph=2.0)) == 0.0

    @given(
        v_gs=st.floats(0.0, 3.6),
        v_ds=st.floats(0.0, 3.6),
        ph=st.floats(0.0, 14.0),
    )
    def test_never_negative(self, v_gs, v_ds, ph):
        assert ids(DEFAULTS, BiasPoint(v_gs=v_gs, v_ds=v_ds, ph=ph)) >= 0.0

    @given(
        v_gs=st.floats(1.2, 3.6),
        v_ds=st.floats(0.0, 3.6),
        ph_pair=st.tuples(st.floats(0.0, 14.0), st.floats(0.0, 14.0)),
    )
    def test_current_non_increasing_in_ph(self, v_gs, v_ds, ph_pair):
        lo, hi = min(ph_pair), max(ph_pair)
        i_lo = ids(DEFAULTS, BiasPoint(v_gs=v_gs, v_ds=v_ds, ph=lo))
        i_hi = ids(DEFAULTS, BiasPoint(v_gs=v_gs, v_ds=v_ds, ph=hi))
        assert i_lo >= i_hi

    @given(
        v_ds=st.floats(0.01, 3.6),
        ph_pair=st.tuples(st.floats(0.0, 14.0), st.floats(0.0, 14.0)),
    )
    def test_current_strictly_decreasing_above_both_thresholds(self, v_ds, ph_pair):
        lo, hi = min(ph_pair), max(ph_pair)
        if hi - lo < 1e-6:
            return
        v_gs = vth_from_ph(DEFAULTS, hi) + 0.2  # above both thresholds
        i_lo = ids(DEFAULTS, BiasPoint(v_gs=v_gs, v_ds=v_ds, ph=lo))
        i_hi = ids(DEFAULTS, BiasPoint(v_gs=v_gs, v_ds=v_ds, ph=hi))
        assert i_lo > i_hi

    @given(v_ov=st.floats(1e-3, 2.0))
    def test_continuity_at_triode_saturation_boundary(self, v_ov):
        k = DEFAULTS.k_gain
        i_triode = k * (v_ov * v_ov - 0.5 * v_ov * v_ov)
        i_sat = 0.5 * k * v_ov * v_ov
        assert abs(i_triode - i_sat) < 1e-15 * i_sat
        # the implementation takes the saturation branch exactly at the knee
        vth = vth_from_ph(DEFAULTS, 2.0)
        v_ov_eff = (vth + v_ov) - vth  # what the device recovers from v_gs
        i_knee = ids(DEFAULTS, BiasPoint(v_gs=vth + v_ov, v_ds=v_ov_eff, ph=2.0))
        assert i_knee == 0.5 * k * v_ov_eff * v_ov_eff


class TestParamsValidation:
    def test_bad_k_gain(self):
        with pytest.raises(UsageError):
            IsfetParams(k_gain=0.0)

    def test_bad_vth0(self):
        with pytest.raises(UsageError):
            IsfetParams(vth0=2.5)

    def test_negative_sensitivity(self):
        with pytest.raises(UsageError):
            IsfetParams(sensitivity=-0.01)

    @pytest.mark.parametrize("key, bound", [
        ("k_gain", "positive"), ("vdd", "positive"), ("sensitivity", "non-negative"),
    ])
    def test_int_past_the_largest_float_is_not_finite(self, key, bound):
        # math.isfinite(10**400) raises OverflowError; no float holds it.
        with pytest.raises(UsageError) as exc:
            IsfetParams(**{key: 10**400})
        assert str(exc.value) == f"{key} must be {bound} and finite, got {10**400}"

    @pytest.mark.parametrize("key", ["k_gain", "vdd", "sensitivity", "vth0", "ph_ref"])
    @pytest.mark.parametrize("sign, named", [(1, "an int"), (-1, "a negative int")])
    def test_int_too_long_to_print_is_named_by_its_digits(self, key, sign, named):
        # repr() of an int past sys.get_int_max_str_digits() (4300 by
        # default) raises ValueError, so the message gives its digit count.
        with pytest.raises(TvdCamoError) as exc:
            IsfetParams(**{key: sign * 10**5000})
        message = str(exc.value)
        assert f"got {named} of 5001 digits" in message or (
            message == f"pH {named} of 5001 digits outside the valid range [0, 14]"
        )
        assert "\n" not in message

    @pytest.mark.parametrize("k", [4301, 4302, 5000, 9999, 22000])
    def test_digit_count_next_to_a_power_of_ten(self, k):
        # Where the float log10 may round across an integer.
        for value, digits in ((10**k, k + 1), (10**k - 1, k), (10**k + 1, k + 1)):
            assert _shown(value) == f"an int of {digits} digits"
            assert _shown(-value) == f"a negative int of {digits} digits"

    def test_v_ds_too_long_to_print_is_named_by_its_digits(self):
        message = "v_ds must be non-negative{}, got a negative int of 5001 digits"
        with pytest.raises(UsageError) as exc:
            BiasPoint(v_gs=1.0, v_ds=-(10**5000), ph=7.0)
        assert str(exc.value) == message.format("")
        with pytest.raises(UsageError) as exc:
            iv_sweep(IsfetParams(), [0.0, 1.0], -(10**5000), [2.0])
        assert str(exc.value) == message.format(" and finite")

    def test_negative_v_ds(self):
        with pytest.raises(UsageError):
            BiasPoint(v_gs=1.0, v_ds=-0.1, ph=7.0)


class TestIvSweep:
    def test_single_point_matches_ids(self):
        table = iv_sweep(DEFAULTS, [1.8], 0.1, [2.0])
        assert table.shape == (1, 3)
        assert table[0, 2] == ids(DEFAULTS, BiasPoint(1.8, 0.1, 2.0))

    def test_two_ph_rows(self):
        table = iv_sweep(DEFAULTS, [1.8], 0.1, [2.0, 10.0])
        assert table[0, 2] == pytest.approx(1.45e-5, rel=1e-9)
        assert table[1, 2] == pytest.approx(9.78e-6, rel=1e-9)

    def test_ph_ordering_mid_scale(self):
        table = iv_sweep(DEFAULTS, [1.8], 0.5, [4.9, 9.2])
        assert table[0, 2] > table[1, 2]

    def test_row_major_and_monotone_in_ph(self):
        phs = list(np.linspace(0, 14, 8))
        grid = [1.2, 1.8]
        table = iv_sweep(DEFAULTS, grid, 0.1, phs)
        assert table.shape == (16, 3)
        for block in (table[:8], table[8:]):
            assert np.all(np.diff(block[:, 2]) <= 0)
            assert np.all(block[:, 1] == phs)

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError):
            iv_sweep(DEFAULTS, [], 0.1, [2.0])

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(UsageError):
            iv_sweep(DEFAULTS, [0.5, 1.8, 1.0], 0.1, [2.0])

    @pytest.mark.parametrize(
        "grid, v_ds",
        [([0.0, math.inf], 0.1), ([math.nan], 0.1), ([1.8], math.nan), ([1.8], math.inf)],
    )
    def test_non_finite_bias_rejected(self, grid, v_ds):
        with pytest.raises(UsageError):
            iv_sweep(DEFAULTS, grid, v_ds, [2.0])

    def test_decreasing_grid_accepted(self):
        table = iv_sweep(DEFAULTS, [1.8, 1.0], 0.1, [2.0])
        assert table.shape == (2, 3)

    def test_csv_format(self):
        buf = io.StringIO()
        write_sweep_csv(iv_sweep(DEFAULTS, [1.8], 0.1, [2.0, 10.0]), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "v_gs,ph,i_ds"
        assert lines[1] == "1.800000e+00,2.000000e+00,1.450000e-05"
        assert lines[2] == "1.800000e+00,1.000000e+01,9.780000e-06"

    def test_csv_matches_savetxt(self, monkeypatch):
        # A cache of its own, so that no first column is taken from an
        # earlier test and every cell below is formatted here.
        monkeypatch.setattr(device, "_first_column_cache", [])
        sweep = iv_sweep(DEFAULTS, np.linspace(0.0, 1.8, 2500), 0.1, [2.0, 10.0])
        assert len(sweep) % device._CSV_BLOCK_ROWS != 0
        assert savetxt_mismatch(sweep) is None
        monkeypatch.setattr(device, "_CSV_BLOCK_ROWS", 4)
        values = np.array([0.0, -0.0, -1.5, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.5])
        table = np.column_stack([values, values[::-1], np.full(9, 2.0)])
        assert savetxt_mismatch(table) is None
        assert "-0.000000e+00," in csv_text(table)

        # Raw bit patterns cover every exponent, subnormals, ±0, nan and ±inf.
        raw = np.random.default_rng(8).integers(0, 2**64, 6000, dtype=np.uint64)
        three_digit = [1e100, -1e-100, 1.234567e-150, 9.9999995e99, 9.99999949e299,
                       -1e-300, 1.0000001e-300, 9.999999e299, 2.5e-307, -7.5e305]
        values = np.concatenate([raw.view(np.float64), three_digit, _NEAR_TIES, values])
        values = np.concatenate([values, -values])
        table = values[: len(values) // 3 * 3].reshape(-1, 3)
        assert savetxt_mismatch(table) is None

        # A block of positive cells with 2-digit exponents is written in the
        # fixed-width layout, and so is one whose "%" fallback cell (a tie
        # neighbour) prints 12 characters. One cell that is negative, -0.0,
        # has a 3-digit exponent or prints as nan sends it to "%" row by row.
        fixed = 10 ** np.random.default_rng(9).uniform(-99, 99, (device._CSV_BLOCK_ROWS, 3))
        tie = fixed.copy()
        tie[1, 1] = np.nextafter(1.0000005, np.inf)
        variants = []
        for cell in (-fixed[1, 1], -0.0, 1e-120, np.nan):
            variants.append(fixed.copy())
            variants[-1][1, 1] = cell
        for block in [fixed, tie] + variants:
            assert savetxt_mismatch(block) is None
        # Swapping two mantissa digit rows of the fixed-width cells changes
        # the text of the fixed-width blocks only.
        digits = device._digits

        def swapped(x):
            buf, slow = digits(x)
            return buf[[0, 1, 3, 2, *range(4, len(buf))]], slow

        monkeypatch.setattr(device, "_digits", swapped)
        for block in (fixed, tie):
            assert csv_text(block) != savetxt_reference(block)
        for block in variants:
            assert savetxt_mismatch(block) is None
        monkeypatch.setattr(device, "_digits", digits)

        # Every nonzero cell through the per-value fallback.
        monkeypatch.setattr(device, "_first_column_cache", [])
        monkeypatch.setattr(device, "_FAST_MIN", math.inf)
        assert savetxt_mismatch(table) is None

    def test_csv_runs_and_first_column(self, monkeypatch):
        monkeypatch.setattr(device, "_first_column_cache", [])
        # v_gs runs of three rows (one per pH) that cross the 4096-row block
        # boundary; the pH column repeats every three rows.
        sweep = iv_sweep(DEFAULTS, np.linspace(0.0, 1.8, 2000), 0.1, [2.0, 7.0, 10.0])
        assert len(sweep) > device._CSV_BLOCK_ROWS and device._CSV_BLOCK_ROWS % 3
        assert savetxt_mismatch(sweep) is None
        [(stored, _)] = device._first_column_cache
        assert stored.tobytes() == sweep[:, 0].tobytes()
        assert savetxt_mismatch(sweep) is None
        # Same v_gs column, other currents: the cached column is reused.
        other = iv_sweep(DEFAULTS, np.linspace(0.0, 1.8, 2000), 0.2, [2.0, 7.0, 10.0])
        assert savetxt_mismatch(other) is None
        assert len(device._first_column_cache) == 1


def columns_mismatch(columns):
    """First difference between the writer's text of ``columns`` and
    np.savetxt's, or None."""
    got = io.StringIO()
    device._write_csv(got, "h", columns)
    want = io.StringIO()
    want.write("h\n")
    np.savetxt(want, np.column_stack(columns), fmt="%.6e", delimiter=",")
    return first_difference(got.getvalue(), want.getvalue())


def run_column(*pairs) -> np.ndarray:
    """A column of runs: ``run_column((value, length), ...)``."""
    return np.concatenate([np.full(length, value, dtype=np.float64) for value, length in pairs])


def bits_equal(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@pytest.fixture(params=[1, 2, 3, 7])
def writer(request, monkeypatch):
    """The CSV writer at ``request.param`` rows a block, with an empty
    first-column cache. Records each block written through "%" rows
    (``fallback``) and the size of each _digits call (``digits``)."""
    monkeypatch.setattr(device, "_CSV_BLOCK_ROWS", request.param)
    monkeypatch.setattr(device, "_first_column_cache", [])
    seen = SimpleNamespace(rows=request.param, fallback=[], digits=[])
    format_rows, digits = device._format_rows, device._digits

    def format_spy(block):
        seen.fallback.append(block.copy())
        return format_rows(block)

    def digits_spy(x):
        seen.digits.append(len(x))
        return digits(x)

    monkeypatch.setattr(device, "_format_rows", format_spy)
    monkeypatch.setattr(device, "_digits", digits_spy)
    return seen


class TestCsvBlockShapes:
    """Each block is written by its runs (device._fill_fixed): every column
    one run, every column one run or one run per row, or anything else. All
    three give np.savetxt's bytes."""

    N = 40

    def t_column(self):
        return np.arange(self.N) * 2.5e-11

    def test_one_run_blocks_after_a_cached_first_column(self, writer):
        r, t = writer.rows, self.t_column()
        # Run edges on block edges, so each block past t is one run a column.
        edges = run_column((1.5, 2 * r), (0.25, 3 * r), (1.5, self.N - 5 * r))
        assert columns_mismatch([t, np.full(self.N, 1.8), edges, np.zeros(self.N)]) is None
        assert len(device._first_column_cache) == 1
        writer.digits.clear()
        for value in (0.0, 2.5e-7, 9.99e99, 1.0000005):
            table = [t, np.full(self.N, value), edges, np.full(self.N, 1.8)]
            assert columns_mismatch(table) is None
        # t came from the cache, so every block was one row of "%" text.
        assert writer.digits == []
        assert writer.fallback == []

    def test_one_run_blocks_with_no_cached_first_column(self, writer):
        r = writer.rows
        first = run_column((3.0, 4 * r), (0.5, self.N - 4 * r))
        assert columns_mismatch([first, np.zeros(self.N), np.full(self.N, 7.5e-12)]) is None
        assert columns_mismatch([np.full(self.N, 1.8)]) is None
        assert writer.digits == []
        assert writer.fallback == []
        # The first write cached the first column; this one takes it from
        # the cache.
        assert columns_mismatch([first, np.full(self.N, 2.0)]) is None
        assert writer.digits == []

    @pytest.mark.parametrize("value", [-0.0, -1.25, 1e-120, 2.5e150, np.nan])
    @pytest.mark.parametrize("cached", [True, False])
    def test_one_run_cell_not_12_characters_falls_back(self, writer, value, cached):
        r, t = writer.rows, self.t_column()
        if cached:
            assert columns_mismatch([t, np.full(self.N, 0.5), np.full(self.N, 1.8)]) is None
            writer.fallback.clear()
        # value fills blocks 1 and 2 of the middle column.
        column = run_column((0.5, r), (value, 2 * r), (0.5, self.N - 3 * r))
        assert columns_mismatch([t, column, np.full(self.N, 1.8)]) is None
        assert [len(block) for block in writer.fallback] == [r, r]
        for i, block in enumerate(writer.fallback, start=1):
            assert bits_equal(block[:, 0], t[i * r : (i + 1) * r])
            assert bits_equal(block[:, 1], np.full(r, value))

    def test_one_run_columns_of_near_ties(self, writer):
        t = self.t_column()
        ties = [np.full(self.N, v) for v in _NEAR_TIES]
        for _ in ("first column formatted", "first column cached"):
            assert columns_mismatch([t, *ties]) is None
            assert columns_mismatch([t, *ties[::-1], t]) is None
        # Every near-tie prints 12 characters, so no block falls back.
        assert writer.fallback == []

    def test_one_run_per_row_columns_beside_one_run_columns(self, writer):
        t = self.t_column()
        alternating = np.tile([0.25, 0.75], self.N)[: self.N]
        ramp = 1.0 + np.arange(self.N) / 8
        step = run_column((0.0, 11), (1.8, self.N - 11))
        fives = np.repeat([0.5, 1.25, 0.5, 2.0, 3.0, 0.5, 0.5, 1.0], 5)
        tables = [
            [t, alternating, np.full(self.N, 1.8), ramp, step],
            [t, np.full(self.N, 1.8), step, alternating],
            [t, fives, alternating, step, ramp[::-1].copy()],
            [ramp, np.full(self.N, 0.0), t],
        ]
        for _ in ("first column formatted", "first column cached"):
            for table in tables:
                assert columns_mismatch(table) is None
        assert writer.fallback == []

    def test_blocks_of_one_run_and_one_run_per_row_columns_repeat_nothing(
        self, writer, monkeypatch
    ):
        r, t = writer.rows, self.t_column()
        alternating = np.tile([0.25, 0.75], self.N)[: self.N]
        edges = run_column((0.0, 2 * r), (1.8, self.N - 2 * r))
        table = [t, alternating, np.full(self.N, 1.8), 1.0 + t, edges]
        repeats = []
        repeat = np.repeat

        def spy(*args, **kwargs):
            repeats.append(args)
            return repeat(*args, **kwargs)

        for _ in ("first column formatted", "first column cached"):
            with monkeypatch.context() as m:
                m.setattr(np, "repeat", spy)
                device._write_csv(io.StringIO(), "h", table)
            assert repeats == []
            assert columns_mismatch(table) is None
        assert writer.fallback == []

    def test_tie_cells_inside_one_run_per_row_columns(self, writer):
        t = self.t_column()
        table = [t, np.resize(_NEAR_TIES, self.N), np.full(self.N, 1.0000005)]
        for _ in ("first column formatted", "first column cached"):
            assert columns_mismatch(table) is None
        assert writer.fallback == []


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


_CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.8, -1.8, 1e-120, 2.5e150, 5e-324, 1e-300, 1e300,
                     9.999999e299, math.inf, -math.inf, math.nan]),
    st.integers(1, 2**52 - 1).flatmap(
        lambda m: st.sampled_from([_nan(0x7FF0000000000000 | m), _nan(0xFFF0000000000000 | m)])
    ),
    st.sampled_from(_NEAR_TIES.tolist()).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(allow_nan=False),
    st.floats(1e-12, 2.0),
)


@st.composite
def _run_tables(draw):
    """Columns of equal length built from runs: one run, one run per row,
    or runs of drawn lengths."""
    n = draw(st.integers(1, 30))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(["one run", "per row", "runs"]))
        if shape == "one run":
            column = [draw(_CELL_VALUES)] * n
        elif shape == "per row":
            column = draw(st.lists(_CELL_VALUES, min_size=n, max_size=n))
        else:
            column = []
            while len(column) < n:
                column += [draw(_CELL_VALUES)] * draw(st.integers(1, 12))
        columns.append(np.array(column[:n], dtype=np.float64))
    return columns


class TestCsvBlockShapesDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        columns=_run_tables(),
        block_rows=st.sampled_from([1, 2, 3, 7]),
        writes=st.integers(1, 2),
    )
    def test_matches_savetxt(self, columns, block_rows, writes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(device, "_CSV_BLOCK_ROWS", block_rows)
            mp.setattr(device, "_first_column_cache", [])
            # A second write takes the first column from the cache when
            # every block of the first was fixed-width.
            for _ in range(writes):
                assert columns_mismatch(columns) is None
