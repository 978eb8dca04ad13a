"""Forward-Euler integration kernel for the differential sense-node pair.

This is the transient simulator's hot loop, in plain Python. Once one node
freezes, ``_frozen_tail`` steps only the other, and a node that decays
through its pull-down runs in blocks of a bare update, which is the full
step bit for bit.
"""

from math import inf

# A step that leaves [-GUARD_V, vdd + GUARD_V] counts as diverged.
GUARD_V = 0.1

# Samples buffered in Python lists before one slice copy into the arrays, so
# the kernel's extra memory does not grow with the step count.
_BLOCK = 4096


def integrate(
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
    """Integrate the node pair over samples ``n_pre + 1 .. n_total``.

    The arguments after ``n_total`` are the circuit constants. Both arrays
    are filled from the state stored at sample ``n_pre``, so consecutive
    calls over adjacent ranges continue one another bit for bit. Returns -1
    on success or the index of the first sample whose step diverged.

    A step that leaves one node unchanged while the other sits below half
    an ulp of vdd, before and after the step, hands over to ``_frozen_tail``.

    Both nodes must stay treated alike: swapping the start states and the
    branches' ``(k, vth)`` swaps the two arrays bit for bit and keeps the
    return value. ``transient.simulate`` and ``transient.margin_report``
    rely on this to integrate one race per pH pair, as
    ``gates.evaluate_static`` compares one pair of branch currents.
    """
    # Continue from the state stored at sample n_pre. Python floats: the loop
    # runs 2.4x slower on numpy scalars.
    x = float(v_out[n_pre])
    y = float(v_bar[n_pre])
    lo = -GUARD_V
    hi = vdd + GUARD_V
    inv_c = dt / c_node
    half_kp = 0.5 * k_pmos
    # n-branch overdrives (gates driven by ideal rails) and saturation
    # currents. A branch that never conducts gets the limit -inf, so its
    # triode test fails for every x, NaN included, and its current is 0.0.
    ov_out = vdd - vth_out
    ov_bar = vdd - vth_bar
    if ov_out <= 0.0:
        lim_out, sat_out = -float("inf"), 0.0
    else:
        lim_out, sat_out = ov_out, 0.5 * k_out * ov_out * ov_out
    if ov_bar <= 0.0:
        lim_bar, sat_bar = -float("inf"), 0.0
    else:
        lim_bar, sat_bar = ov_bar, 0.5 * k_bar * ov_bar * ov_bar

    i = n_pre
    while i < n_total:
        xs = []
        ys = []
        for i in range(i, min(i + _BLOCK, n_total)):
            # Conducting pull-down branch on each side (quadratic, sat clamp).
            i_nx = k_out * (ov_out * x - 0.5 * x * x) if x < lim_out else sat_out
            i_ny = k_bar * (ov_bar * y - 0.5 * y * y) if y < lim_bar else sat_bar

            # Cross-coupled PMOS pair, each gated by the opposite node.
            sx = vdd - x
            sy = vdd - y
            ov = sy - vth_pmos
            if ov <= 0.0:
                i_px = 0.0
            elif sx < ov:
                i_px = k_pmos * (ov * sx - 0.5 * sx * sx)
            else:
                i_px = half_kp * ov * ov
            ov = sx - vth_pmos
            if ov <= 0.0:
                i_py = 0.0
            elif sy < ov:
                i_py = k_pmos * (ov * sy - 0.5 * sy * sy)
            else:
                i_py = half_kp * ov * ov

            nx = x + (i_px - i_nx) * inv_c
            ny = y + (i_py - i_ny) * inv_c
            if nx < lo or nx > hi or ny < lo or ny > hi:
                v_out[i + 1 - len(xs) : i + 1] = xs
                v_bar[i + 1 - len(ys) : i + 1] = ys
                return i + 1
            if nx < 0.0:
                nx = 0.0
            elif nx > vdd:
                nx = vdd
            if ny < 0.0:
                ny = 0.0
            elif ny > vdd:
                ny = vdd
            xs.append(nx)
            ys.append(ny)
            # A node's update reads the other node only through vdd - other.
            # While that stays exactly vdd, a node that just kept its value
            # keeps it, and the other node's p-current stays what it was. The
            # rail must be positive: at -0.0, vdd - other can flip its sign.
            if nx == x and sy == vdd and vdd - ny == vdd and vdd > 0.0:
                frozen = "out"
                x = nx
                y = ny
                break
            if ny == y and sx == vdd and vdd - nx == vdd and vdd > 0.0:
                frozen = "bar"
                x = nx
                y = ny
                break
            x = nx
            y = ny
        else:
            frozen = None
        i += 1
        v_out[i + 1 - len(xs) : i + 1] = xs
        v_bar[i + 1 - len(ys) : i + 1] = ys
        if frozen == "out":
            i, y = _frozen_tail(
                v_bar, v_out, i, n_total, y, x, i_py, k_bar, ov_bar, lim_bar, sat_bar,
                inv_c, lo, hi, vdd,
            )
        elif frozen == "bar":
            i, x = _frozen_tail(
                v_out, v_bar, i, n_total, x, y, i_px, k_out, ov_out, lim_out, sat_out,
                inv_c, lo, hi, vdd,
            )
        if i < 0:
            return -i
    return -1


def _frozen_tail(
    v_move, v_frozen, i, n_total, m, f, i_p, k_n, ov_n, lim_n, sat_n, inv_c, lo, hi, vdd
):
    """Continue ``integrate`` from sample ``i`` while one node is frozen.

    The frozen node ``f`` keeps its value and the moving node ``m`` stays
    below half an ulp of vdd, so ``vdd - m == vdd`` and every operand of the
    frozen node's update, and of the moving node's p-current ``i_p``, is the
    one of the step that entered the tail. Each step therefore updates only
    ``m``, with the expressions, guard test and clamp of the full step, and
    stops once ``vdd - m != vdd``. Returns ``(i, m)`` at the last sample
    written, or ``(-bad, m)`` when the step to sample ``bad`` diverged.

    A decaying node, with no p-current, a conducting branch and finite
    positive constants, runs blocks of the bare update ``_decay`` once it
    reaches ``[0, ov_n * 2**-55]``. A block is kept when none of its values
    is negative, which shows that no test of the full step could have
    fired; otherwise that block is replayed step by step.
    """
    # Bare phase. Take i_p == 0.0 and finite k_n, ov_n, inv_c > 0 (ov_n > 0
    # means the branch conducts: lim_n == ov_n), and small = ov_n * 2**-55.
    # For 0 <= m <= small the full step is the bare update
    # m - k_n * (ov_n * m) * inv_c, bit for bit:
    # - fl(0.5*m*m) <= ov_n*m * 2**-56 * (1 + 2**-53) lies below a quarter
    #   ulp of fl(ov_n*m), or underflows to 0 when that product is
    #   subnormal, so ov_n*m - 0.5*m*m rounds to ov_n*m.
    # - m + (i_p - x) * inv_c equals m - x * inv_c, signed zeros included:
    #   they can differ only for m = -0.0 with x = +0.0, and x = k_n *
    #   (ov_n * m) has the sign of m.
    # - m takes the triode branch (m <= small < ov_n) and trips neither the
    #   guard, a clamp nor the exit test: the tail keeps vdd - m == vdd, so
    #   m < vdd (integrate enters only with vdd > 0).
    # The bare update never raises an m >= 0, as it subtracts a product
    # >= 0. So a block from m in [0, small] stays in that range, and below
    # the m it started from, up to its first negative value. That value is
    # finite or -inf, never NaN, so min shows it.
    small = -1.0  # below every clamped m: no bare phase
    if i_p == 0.0 and all(0.0 < v < inf for v in (k_n, ov_n, inv_c)):
        small = ov_n * 2**-55
    start = i
    while i < n_total:
        stop = min(i + _BLOCK, n_total)
        switch = small
        if 0.0 <= m <= small:
            ms = _decay(m, stop - i, k_n, ov_n, inv_c)
            if min(ms) >= 0.0:
                v_move[i + 1 : stop + 1] = ms
                i = stop
                m = ms[-1]
                continue
            switch = -1.0  # replay this block step by step
        ms = []
        for i in range(i, stop):
            i_n = k_n * (ov_n * m - 0.5 * m * m) if m < lim_n else sat_n
            m = m + (i_p - i_n) * inv_c
            if m < lo or m > hi:
                v_move[i + 1 - len(ms) : i + 1] = ms
                v_frozen[start + 1 : i + 1] = f
                return -(i + 1), m
            if m < 0.0:
                m = 0.0
            elif m > vdd:
                m = vdd
            ms.append(m)
            if vdd - m != vdd or m <= switch:
                break
        i += 1
        v_move[i + 1 - len(ms) : i + 1] = ms
        if vdd - m != vdd:
            break
    v_frozen[start + 1 : i + 1] = f
    return i, m


def _decay(m, n, k_n, ov_n, inv_c):
    """``n`` bare decay steps from ``m``, as a list."""
    return [m := m - k_n * (ov_n * m) * inv_c for _ in range(n)]


def get_backend() -> str:
    """Name of the integration backend, recorded with benchmark results."""
    return "python"
