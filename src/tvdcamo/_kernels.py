"""Forward-Euler integration kernel for the differential sense-node pair.

This is the transient simulator's hot loop. It runs either as a
numba-compiled kernel or as the plain-Python fallback; the fallback is
selected at import time by setting the environment variable
``TVDCAMO_NO_NUMBA=1`` (and automatically when numba is unavailable).
Both backends share one function body, so traces are identical.
"""

import os

try:
    import numba
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None


# A step that leaves [-GUARD_V, vdd + GUARD_V] counts as diverged.
GUARD_V = 0.1


def _integrate_py(
    v_out,
    v_bar,
    n_pre,
    n_total,
    dt,
    vdd,
    c_node,
    k_out,
    vth_out,
    k_bar,
    vth_bar,
    k_pmos,
    vth_pmos,
):
    # Continue from the state stored at sample n_pre. Python floats: the loop
    # runs 2.4x slower on numpy scalars.
    x = float(v_out[n_pre])
    y = float(v_bar[n_pre])
    lo = -GUARD_V
    hi = vdd + GUARD_V
    inv_c = dt / c_node
    ov_out = vdd - vth_out  # n-branch overdrives; gates driven by ideal rails
    ov_bar = vdd - vth_bar

    for i in range(n_pre, n_total):
        # Conducting pull-down branch on each side (quadratic, sat clamp).
        if ov_out <= 0.0:
            i_nx = 0.0
        elif x < ov_out:
            i_nx = k_out * (ov_out * x - 0.5 * x * x)
        else:
            i_nx = 0.5 * k_out * ov_out * ov_out
        if ov_bar <= 0.0:
            i_ny = 0.0
        elif y < ov_bar:
            i_ny = k_bar * (ov_bar * y - 0.5 * y * y)
        else:
            i_ny = 0.5 * k_bar * ov_bar * ov_bar

        # Cross-coupled PMOS pair, each gated by the opposite node.
        ov_px = vdd - y - vth_pmos
        if ov_px <= 0.0:
            i_px = 0.0
        else:
            sd = vdd - x
            if sd < ov_px:
                i_px = k_pmos * (ov_px * sd - 0.5 * sd * sd)
            else:
                i_px = 0.5 * k_pmos * ov_px * ov_px
        ov_py = vdd - x - vth_pmos
        if ov_py <= 0.0:
            i_py = 0.0
        else:
            sd = vdd - y
            if sd < ov_py:
                i_py = k_pmos * (ov_py * sd - 0.5 * sd * sd)
            else:
                i_py = 0.5 * k_pmos * ov_py * ov_py

        x = x + (i_px - i_nx) * inv_c
        y = y + (i_py - i_ny) * inv_c
        if x < lo or x > hi or y < lo or y > hi:
            return i + 1
        if x < 0.0:
            x = 0.0
        elif x > vdd:
            x = vdd
        if y < 0.0:
            y = 0.0
        elif y > vdd:
            y = vdd
        v_out[i + 1] = x
        v_bar[i + 1] = y
    return -1


if numba is not None:
    _integrate_numba = numba.njit(cache=True)(_integrate_py)
else:  # pragma: no cover
    _integrate_numba = None

_FLAG = os.environ.get("TVDCAMO_NO_NUMBA", "").strip().lower()
_DISABLED = _FLAG in {"1", "true", "yes", "on"}

_BACKENDS = {"python": _integrate_py}
if _integrate_numba is not None:
    _BACKENDS["numba"] = _integrate_numba

_active_name = "numba" if ("numba" in _BACKENDS and not _DISABLED) else "python"


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend() -> str:
    return _active_name


def set_backend(name: str) -> None:
    """Select the integration backend ('numba' or 'python')."""
    global _active_name
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; have {available_backends()}")
    _active_name = name


def integrate(*args):
    """Run the node integration with the active backend.

    Arguments: ``v_out, v_bar, n_pre, n_total`` and then the circuit
    constants. Fills samples ``n_pre + 1 .. n_total`` of both arrays from the
    state stored at sample ``n_pre``, so consecutive calls over adjacent
    ranges continue one another bit for bit. Returns -1 on success or the
    index of the first sample whose step diverged.
    """
    return _BACKENDS[_active_name](*args)
