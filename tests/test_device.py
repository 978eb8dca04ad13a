import io
import math

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
from tvdcamo.errors import PhRangeError, UsageError

DEFAULTS = IsfetParams()


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
        # Neighbours of values whose scaled mantissa sits at a .5 tie, some
        # of them at a decade boundary where the tie decides the exponent.
        below = above = np.array([999999.95, 9.9999995, 0.99999995, 1.0000005, 123456.75])
        near_ties = [below]
        for _ in range(8):
            below = np.nextafter(below, -np.inf)
            above = np.nextafter(above, np.inf)
            near_ties += [below, above]
        values = np.concatenate(
            [raw.view(np.float64), three_digit, np.concatenate(near_ties), values]
        )
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
