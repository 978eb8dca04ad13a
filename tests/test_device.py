import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
