"""The number rule: every number that enters the library is an int or a float
(subclasses such as np.float64 included) and never a bool, and every call
either succeeds or raises a TvdCamoError, with no warning."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdcamo.camo import CamoConfig, CamoGateSpec, camouflage
from tvdcamo.device import BiasPoint, IsfetParams, ids, iv_sweep
from tvdcamo.errors import (
    PhRangeError,
    SimulationError,
    TvdCamoError,
    UnresolvableGateError,
    UsageError,
)
from tvdcamo.gates import GatePhProgram, TruthTable2, assignment_for, evaluate_static
from tvdcamo.transient import SimConfig, check_supply, margin_report, simulate

XOR = assignment_for(TruthTable2.XOR)


class _Float(float):
    """A float subclass, accepted like a float."""


# Values that no check may trip over: every class the rule accepts or
# rejects, at the edges of the float range and past it.
_ODD_VALUES = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([10**400, -(10**400), 10**5000, -(10**5000), 2**1024, -(2**1024)]),
    st.integers(),
    st.floats(),  # NaN, ±inf, -0.0 and subnormals among them
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e200, 1.7976931348623157e308])
    .flatmap(lambda x: st.sampled_from([x, np.float64(x), _Float(x)])),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(_Float),
)


def _near(*typical):
    """A value near one of ``typical`` in some accepted class, or an odd one."""
    exact = st.sampled_from(typical)
    return st.one_of(
        exact,
        exact.map(np.float64),
        exact.map(_Float),
        st.floats(min(typical) / 2, max(typical) * 2),
        _ODD_VALUES,
    )


_PARAMS = {
    "k_gain": _near(1e-4, 1e-3),
    "vth0": _near(0.3, 0.5, 1),
    "ph_ref": _near(2.0, 7, 0.0),
    "sensitivity": _near(0.059, 0, 0.03),
    "vdd": _near(1.8, 2, 3.3),
}
_SIM = {
    "clock_freq": _near(2e7, 1e9),
    "c_node": _near(1e-14, 1e-15),
    "dt": _near(1e-12, 5e-13),
    "trip": st.one_of(st.none(), _near(0.9, 1)),
    "resolve_margin": _near(0.1, 0.2),
}
_PH = _near(2.0, 10.0, 7, 0.0, 14)


@st.composite
def _kwargs(draw, strategies):
    """Some of the keys of ``strategies``, each with a drawn value."""
    keys = draw(st.lists(st.sampled_from(sorted(strategies)), unique=True))
    return {key: draw(strategies[key]) for key in keys}


def _outcome(call, *args, **kwargs):
    """``call``'s result, or None when it raised a TvdCamoError. Any other
    exception and any warning fail the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs)
        except TvdCamoError:
            return None


def _round_trips(cfg: CamoConfig) -> None:
    text = cfg.to_json()
    back = _outcome(CamoConfig.from_json, text)
    assert back == cfg and back.to_json() == text


class TestNumberRule:
    @given(kwargs=_kwargs(_PARAMS))
    def test_isfet_params(self, kwargs):
        params = _outcome(IsfetParams, **kwargs)
        if params is not None:
            _round_trips(CamoConfig(params, []))

    @given(v_gs=_near(1.8, 0.0), v_ds=_near(0.1, 1.8, 0), ph=_PH)
    def test_bias_point(self, v_gs, v_ds, ph):
        _outcome(BiasPoint, v_gs, v_ds, ph)

    @given(kwargs=_kwargs(_SIM), params=_kwargs(_PARAMS))
    def test_sim_config(self, kwargs, params):
        cfg, device = _outcome(SimConfig, **kwargs), _outcome(IsfetParams, **params)
        if cfg is not None and device is not None:
            _outcome(check_supply, device, cfg)

    @given(low=_PH, high=_PH)
    def test_gate_ph_program(self, low, high):
        _outcome(GatePhProgram, low, high, XOR)

    @given(low=_PH, high=_PH)
    def test_camo_gate_spec(self, low, high):
        spec = _outcome(CamoGateSpec, "x", TruthTable2.XOR, XOR, low, high)
        if spec is not None:
            _round_trips(CamoConfig(IsfetParams(), [spec]))

    @given(v_ds=_near(0.1, 0, 1.8), phs=st.lists(_PH, max_size=4))
    def test_iv_sweep(self, v_ds, phs):
        _outcome(iv_sweep, IsfetParams(), [0.0, 0.9, 1.8], v_ds, phs)

    @given(
        fraction=_near(0.5, 0, 1), low=_PH, high=_PH, params=_kwargs(_PARAMS),
        seed=st.integers(0, 3),
    )
    @settings(deadline=None)
    def test_camouflage(self, c17, fraction, low, high, params, seed):
        device = _outcome(IsfetParams, **params)
        if device is None:
            return
        got = _outcome(
            camouflage, c17, fraction=fraction, seed=seed, ph_low=low, ph_high=high, params=device
        )
        if got is not None:
            _round_trips(got[1])

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: IsfetParams(k_gain="1"), UsageError, "k_gain must be an int or a float, got '1'"),
            (lambda: IsfetParams(vth0="0.3"), UsageError, "vth0 must be an int or a float, got '0.3'"),
            (lambda: IsfetParams(ph_ref=None), UsageError, "ph_ref must be an int or a float, got None"),
            (lambda: IsfetParams(k_gain=True), UsageError, "k_gain must be an int or a float, got True"),
            (
                lambda: IsfetParams(k_gain=np.float32(1e-3)),
                UsageError,
                f"k_gain must be an int or a float, got {np.float32(1e-3)!r}",
            ),
            (
                lambda: SimConfig(clock_freq="1"),
                UsageError,
                "clock_freq must be an int or a float, got '1'",
            ),
            (lambda: SimConfig(trip="0.9"), UsageError, "trip must be an int or a float, got '0.9'"),
            (
                lambda: iv_sweep(IsfetParams(), [0.0, 1.0], 10**400, [2.0]),
                UsageError,
                f"v_ds must be non-negative and finite, got {10**400}",
            ),
            (
                lambda: iv_sweep(IsfetParams(), [0.0, 1.0], 0.1, [10**400]),
                PhRangeError,
                f"pH {10**400} outside the valid range [0, 14]",
            ),
            (
                lambda: GatePhProgram(True, 10.0, XOR),
                UsageError,
                "ph_low must be an int or a float, got True",
            ),
            (
                lambda: CamoGateSpec("x", TruthTable2.XOR, XOR, True, 10.0),
                UsageError,
                "ph_low must be an int or a float, got True",
            ),
        ],
        ids=[
            "k_gain str", "vth0 str", "ph_ref None", "k_gain bool", "k_gain float32",
            "clock_freq str", "trip str", "v_ds huge", "ph huge", "program bool", "spec bool",
        ],
    )
    def test_fixed_cases(self, call, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as exc:
                call()
        assert type(exc.value) is error and str(exc.value) == message

    def test_np_float64_overflow_gives_no_warning(self, c17):
        # numpy scalar math warns on an overflow that Python floats take to inf.
        params = IsfetParams(vdd=np.float64(1e200))
        program = GatePhProgram(2.0, 10.0, XOR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnresolvableGateError):
                camouflage(c17, gates=["16"], params=params)
            with pytest.raises(UsageError, match="takes inf steps of dt"):
                SimConfig(clock_freq=np.float64(1e-300))
            assert ids(params, BiasPoint(params.vdd, params.vdd, 2.0)) == math.inf
            with pytest.raises(UnresolvableGateError, match="are not finite"):
                evaluate_static(program, params, 0, 1)
            for call in (margin_report, lambda *args: simulate(*args, 0, 1)):
                with pytest.raises(SimulationError, match="overflows the drive current"):
                    call(program, params, SimConfig())

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"fraction": "0.5"}, "fraction must be an int or a float, got '0.5'"),
            ({"fraction": True}, "fraction must be an int or a float, got True"),
            ({"fraction": 0.5, "ph_low": True}, "ph_low must be an int or a float, got True"),
        ],
        ids=["fraction str", "fraction bool", "ph_low bool"],
    )
    def test_fixed_camouflage_cases(self, c17, kwargs, message):
        # A bool pH was once written to a config that from_json refused.
        with pytest.raises(UsageError) as exc:
            camouflage(c17, seed=0, **kwargs)
        assert str(exc.value) == message
