"""Device models and their Newton stamps.

Conventions used throughout:

* Two-terminal currents are positive flowing from the first node to the
  second through the element.
* MOSFET terminal order is (drain, gate, source, bulk) and the reported
  current is the physical drain current. Voltage arguments are always the
  n-sense differences vgs = vg - vs, vds = vd - vs, vsb = vs - vb; p-channel
  devices mirror them internally. vds of either sign is accepted (the
  channel is symmetric, terminals swap roles).
* The square-law is the level-1 model: body effect through
  vth = vth0 + gamma*(sqrt(phi2 + vsb) - sqrt(phi2)) and channel-length
  modulation through (1 + lambda*vds).
* The breakdown diode is a two-exponential curve, strictly increasing in v:
  i(v) = i_sat*(exp(v/(n*vt)) - 1) - i_bv*exp(-(v + vz)/(n*vt)).
* The memristor is linear ion drift with a Joglekar window:
  R(w) = r_on*w + r_off*(1 - w), dw/dt = k_drift*i*(1 - (2w - 1)**(2p)).
  State is frozen in DC and integrated alongside the node equations in
  transient runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import DomainError

# exp() overflows just above 709; past this point continue linearly so the
# curve stays finite, monotone and C1 while Newton is still far from home.
_EXP_CAP = 700.0


def _safe_exp(x: float) -> tuple[float, float]:
    """Return (exp(x), d/dx exp(x)) with a linear tail above the cap."""
    if x <= _EXP_CAP:
        e = math.exp(x)
        return e, e
    cap = math.exp(_EXP_CAP)
    return cap * (1.0 + (x - _EXP_CAP)), cap


def _require_finite(params) -> None:
    """DomainError for a number among params' fields that is not finite."""
    for f in fields(params):
        value = getattr(params, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if not isinstance(v, str) and not math.isfinite(v):
                raise DomainError(
                    f"{type(params).__name__}.{f.name} must be finite, got {v}")


@dataclass(frozen=True)
class ResistorParams:
    resistance: float

    def __post_init__(self):
        _require_finite(self)
        if not self.resistance > 0.0:
            raise DomainError(f"resistance must be positive, got {self.resistance}")


@dataclass(frozen=True)
class CapacitorParams:
    capacitance: float

    def __post_init__(self):
        _require_finite(self)
        if not self.capacitance > 0.0:
            raise DomainError(f"capacitance must be positive, got {self.capacitance}")


@dataclass(frozen=True)
class SourceWaveform:
    """Independent voltage source shape.

    kind "dc":    params = (level,)
    kind "pulse": params = (v1, v2, delay, rise, fall, width, period)
    kind "pwl":   params = (t0, v0, t1, v1, ...), times non-decreasing
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        _require_finite(self)
        if self.kind == "dc":
            if len(self.params) != 1:
                raise DomainError("dc source takes one level")
        elif self.kind == "pulse":
            if len(self.params) != 7:
                raise DomainError("pulse takes (v1 v2 delay rise fall width period)")
            _, _, delay, rise, fall, width, period = self.params
            if delay < 0 or rise < 0 or fall < 0 or width < 0 or period <= 0:
                raise DomainError("pulse timing values must be non-negative, period positive")
            if rise + width + fall > period:
                raise DomainError("pulse rise + width + fall exceeds period")
        elif self.kind == "pwl":
            if len(self.params) < 4 or len(self.params) % 2:
                raise DomainError("pwl takes at least two (time, value) pairs")
            times = self.params[0::2]
            if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
                raise DomainError("pwl times must be non-decreasing")
        else:
            raise DomainError(f"unknown source kind {self.kind!r}")

    def value(self, t: float = 0.0) -> float:
        if self.kind == "dc":
            return self.params[0]
        if self.kind == "pulse":
            v1, v2, delay, rise, fall, width, period = self.params
            if t < delay:
                return v1
            tt = math.fmod(t - delay, period)
            if tt < rise:
                return v2 if rise == 0.0 else v1 + (v2 - v1) * tt / rise
            tt -= rise
            if tt < width:
                return v2
            tt -= width
            if tt < fall:
                return v2 + (v1 - v2) * tt / fall
            return v1
        times = self.params[0::2]
        vals = self.params[1::2]
        if t <= times[0]:
            return vals[0]
        for (t0, v0), (t1, v1) in zip(zip(times, vals), zip(times[1:], vals[1:])):
            if t <= t1:
                if t1 == t0:
                    return v1
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return vals[-1]


@dataclass(frozen=True)
class MosfetParams:
    polarity: str = "n"
    vth0: float = 0.45
    kprime: float = 170e-6
    w_over_l: float = 1.0
    lam: float = 0.05
    gamma: float = 0.4
    phi2: float = 0.7

    def __post_init__(self):
        _require_finite(self)
        if self.polarity not in ("n", "p"):
            raise DomainError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.kprime <= 0 or self.w_over_l <= 0 or self.phi2 <= 0:
            raise DomainError("kprime, w_over_l and phi2 must be positive")
        if self.lam < 0 or self.gamma < 0:
            raise DomainError("lambda and gamma must be non-negative")


def mosfet_defaults(polarity: str) -> MosfetParams:
    """0.18u-class square-law defaults; p-channel differs only in kprime."""
    kprime = 170e-6 if polarity == "n" else 60e-6
    return MosfetParams(polarity=polarity, kprime=kprime)


@dataclass(frozen=True)
class ZenerParams:
    i_sat: float = 1e-14
    n: float = 1.2
    v_thermal: float = 0.02585
    vz: float = 4.2
    i_bv: float = 1e-3

    def __post_init__(self):
        _require_finite(self)
        if self.i_sat <= 0 or self.n <= 0 or self.v_thermal <= 0 or self.vz <= 0 or self.i_bv <= 0:
            raise DomainError("zener parameters must all be positive")


@dataclass(frozen=True)
class MemristorParams:
    r_on: float = 1e3
    r_off: float = 100e3
    w0: float = 0.5
    k_drift: float = 1e4
    p_window: int = 2

    def __post_init__(self):
        _require_finite(self)
        if not 0 < self.r_on <= self.r_off:
            raise DomainError("need 0 < r_on <= r_off")
        if not 0.0 <= self.w0 <= 1.0:
            raise DomainError(f"w0 must lie in [0, 1], got {self.w0}")
        if self.k_drift <= 0:
            raise DomainError("k_drift must be positive")
        if int(self.p_window) != self.p_window or self.p_window < 1:
            raise DomainError("p_window must be a positive integer")


# ---------------------------------------------------------------------------
# device equations


def _square_law(p: MosfetParams, vgs: float, vds: float, vsb: float,
                clamp_body: bool) -> tuple[float, float, float, float]:
    """n-sense level-1 current and partials, vds >= 0 assumed.

    Returns (ids, di/dvgs, di/dvds, di/dvsb). ``p.polarity`` is not read:
    p-channel devices arrive here mirrored.
    """
    body = p.phi2 + vsb
    if body < 0.0:
        if not clamp_body:
            raise DomainError(
                f"phi2 + vsb = {body:.6g} < 0: source-bulk junction forward biased")
        body = 0.0
    if p.gamma and body > 0.0:
        root = math.sqrt(body)
        vth = p.vth0 + p.gamma * (root - math.sqrt(p.phi2))
        dvth = p.gamma / (2.0 * root)
    else:
        vth = p.vth0 + (p.gamma * (0.0 - math.sqrt(p.phi2)) if p.gamma else 0.0)
        dvth = 0.0
    vov = vgs - vth
    if vov <= 0.0:
        return 0.0, 0.0, 0.0, 0.0
    k = p.kprime * p.w_over_l
    cm = 1.0 + p.lam * vds
    if vds < vov:
        i = k * (vov * vds - 0.5 * vds * vds) * cm
        di_dvgs = k * vds * cm
        di_dvds = k * ((vov - vds) * cm + (vov * vds - 0.5 * vds * vds) * p.lam)
        di_dvth = -k * vds * cm
    else:
        i = 0.5 * k * vov * vov * cm
        di_dvgs = k * vov * cm
        di_dvds = 0.5 * k * vov * vov * p.lam
        di_dvth = -k * vov * cm
    return i, di_dvgs, di_dvds, di_dvth * dvth


def mosfet_ids_grad(p: MosfetParams, vgs: float, vds: float, vsb: float,
                    clamp_body: bool = False) -> tuple[float, float, float, float]:
    """Drain current and its partials w.r.t. (vgs, vds, vsb), physical sign.

    Handles p-channel mirroring and drain/source role reversal for vds of
    the "wrong" sign, so the result is differentiable except at the usual
    region boundaries.
    """
    s = -1.0 if p.polarity == "p" else 1.0   # p-channel: mirrored n-sense
    vgs, vds, vsb = s * vgs, s * vds, s * vsb
    if vds >= 0.0:
        i, gg, gd, gb = _square_law(p, vgs, vds, vsb, clamp_body)
    else:   # swapped operation: the drain terminal acts as source
        i, gg, gd, gb = _square_law(p, vgs - vds, -vds, vsb + vds, clamp_body)
        i, gg, gd, gb = -i, -gg, gg + gd - gb, -gb
    return s * i, gg, gd, gb


def mosfet_current(p: MosfetParams, vgs: float, vds: float, vsb: float = 0.0) -> float:
    """Physical drain current of the level-1 model (see module docstring)."""
    return mosfet_ids_grad(p, vgs, vds, vsb)[0]


def zener_ig(p: ZenerParams, v: float) -> tuple[float, float]:
    """Current and small-signal conductance of the breakdown diode at v."""
    nvt = p.n * p.v_thermal
    ef, def_ = _safe_exp(v / nvt)
    er, der = _safe_exp(-(v + p.vz) / nvt)
    i = p.i_sat * (ef - 1.0) - p.i_bv * er
    g = (p.i_sat * def_ + p.i_bv * der) / nvt
    return i, g


def zener_current(p: ZenerParams, v: float) -> float:
    return zener_ig(p, v)[0]


def memristance(p: MemristorParams, w: float) -> float:
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"state w must lie in [0, 1], got {w}")
    return p.r_on * w + p.r_off * (1.0 - w)


def window_factor(p: MemristorParams, w: float) -> float:
    """Joglekar boundary window, zero at w = 0 and w = 1."""
    return 1.0 - (2.0 * w - 1.0) ** (2 * p.p_window)


def memristor_state_rate(p: MemristorParams, w: float, i: float) -> float:
    """dw/dt for device current i (first node to second)."""
    return p.k_drift * i * window_factor(p, w)


def _window_grad(p: MemristorParams, w: float) -> float:
    return -4.0 * p.p_window * (2.0 * w - 1.0) ** (2 * p.p_window - 1)


# ---------------------------------------------------------------------------
# stamps
#
# A stamp reads the iterate ``x``, a flat sequence indexed by unknown
# number whose last slot is ground and holds 0.0, and adds into its target
# ``out``:
#
# * ``out.slots[elem.name]``: the element's unknown numbers, its nodes in
#   netlist order, then its source branch current or memristor state;
# * ``out.jac[row][col]``, ``out.res[row]``: Jacobian and residual rows;
# * ``out.scale[row]``: the sum of the residual contributions' magnitudes,
#   the solver's local convergence scale;
# * ``out.memory[elem.name]``: companion memory that the next transient
#   step reads back as ``ctx.hist`` (capacitor current, memristor drift
#   rate), recorded at every assembly so the converged one holds it.
#
# Ground is an ordinary row and column of the target; the solver drops it.

GROUND = "0"


@dataclass
class StampContext:
    """Everything a stamp may need beyond the current iterate; the solver
    makes one per operating point, sweep point or time step."""

    mode: str = "dc"                  # "dc" or "tran"
    dt: float = 0.0
    method: str = "backward-euler"    # or "trapezoidal"
    srcscale: float = 1.0             # source-stepping homotopy scale
    gmin: float = 0.0
    levels: dict = field(default_factory=dict)      # source name -> level before srcscale
    prev_step: list = field(default_factory=list)   # iterate at t_n
    prev_iter: list = field(default_factory=list)   # last Newton iterate
    hist: dict = field(default_factory=dict)        # element name -> companion memory


def _add_f(out, row: int, val: float) -> None:
    out.res[row] += val
    out.scale[row] += abs(val)


def _stamp_two_terminal(out, a: int, b: int, i: float, g: float) -> None:
    _add_f(out, a, i)
    _add_f(out, b, -i)
    ja, jb = out.jac[a], out.jac[b]
    ja[a] += g
    ja[b] -= g
    jb[a] -= g
    jb[b] += g


def _stamp_resistor(elem, x, ctx, out):
    a, b = out.slots[elem.name]
    g = 1.0 / elem.params.resistance
    _stamp_two_terminal(out, a, b, (x[a] - x[b]) * g, g)


def _stamp_capacitor(elem, x, ctx, out):
    if ctx.mode == "dc":
        out.memory[elem.name] = 0.0   # open circuit
        return
    a, b = out.slots[elem.name]
    v = x[a] - x[b]
    vp = ctx.prev_step[a] - ctx.prev_step[b]
    c = elem.params.capacitance
    if ctx.method == "trapezoidal":
        g = 2.0 * c / ctx.dt
        i = g * (v - vp) - ctx.hist.get(elem.name, 0.0)
    else:
        g = c / ctx.dt
        i = g * (v - vp)
    out.memory[elem.name] = i
    _stamp_two_terminal(out, a, b, i, g)


def _stamp_vsource(elem, x, ctx, out):
    a, b, k = out.slots[elem.name]
    level = ctx.levels[elem.name] * ctx.srcscale
    i = x[k]
    _add_f(out, a, i)
    _add_f(out, b, -i)
    out.jac[a][k] += 1.0
    out.jac[b][k] -= 1.0
    _add_f(out, k, x[a])
    _add_f(out, k, -x[b])
    _add_f(out, k, -level)
    out.jac[k][a] += 1.0
    out.jac[k][b] -= 1.0


def _pnjlim(vnew: float, vold: float, nvt: float, vcrit: float) -> float:
    """Classic junction-voltage limiting for one exponential branch."""
    if vnew <= vcrit or abs(vnew - vold) <= 2.0 * nvt:
        return vnew
    if vold > 0.0:
        arg = 1.0 + (vnew - vold) / nvt
        return vold + nvt * math.log(arg) if arg > 0.0 else vcrit
    return nvt * math.log(max(vnew / nvt, 1.0 + 1e-12))


def _zener_limited_v(p: ZenerParams, v: float, vprev: float) -> float:
    nvt = p.n * p.v_thermal
    vcrit_f = nvt * math.log(nvt / (math.sqrt(2.0) * p.i_sat))
    v = _pnjlim(v, vprev, nvt, vcrit_f)
    # breakdown branch, mirrored: overdrive u = -(v + vz)
    vcrit_r = nvt * math.log(nvt / (math.sqrt(2.0) * p.i_bv))
    u = _pnjlim(-(v + p.vz), -(vprev + p.vz), nvt, vcrit_r)
    return -u - p.vz


def _stamp_zener(elem, x, ctx, out):
    a, b = out.slots[elem.name]
    p = elem.params
    v = x[a] - x[b]
    if ctx.prev_iter:
        vlim = _zener_limited_v(p, v, ctx.prev_iter[a] - ctx.prev_iter[b])
    else:
        vlim = v
    i0, g = zener_ig(p, vlim)
    # tangent extrapolation back to the unlimited voltage; exact once
    # the iterates stop moving
    i = i0 + g * (v - vlim)
    _stamp_two_terminal(out, a, b, i, g)


def _stamp_mosfet(elem, x, ctx, out):
    d, g_, s, b = cols = out.slots[elem.name]
    i, di_dvgs, di_dvds, di_dvsb = mosfet_ids_grad(
        elem.params, x[g_] - x[s], x[d] - x[s], x[s] - x[b], clamp_body=True)
    _add_f(out, d, i)
    _add_f(out, s, -i)
    jd, js = out.jac[d], out.jac[s]
    vals = (di_dvds, di_dvgs, -di_dvgs - di_dvds + di_dvsb, -di_dvsb)
    for col, val in zip(cols, vals):
        jd[col] += val
        js[col] -= val


def _stamp_memristor(elem, x, ctx, out):
    p = elem.params
    if ctx.mode == "dc":
        a, b = out.slots[elem.name]
        w = p.w0
    else:
        a, b, k = out.slots[elem.name]
        w = min(max(x[k], 0.0), 1.0)
    va, vb = x[a], x[b]
    r = memristance(p, w)
    g = 1.0 / r
    i = (va - vb) * g
    _stamp_two_terminal(out, a, b, i, g)
    rate = memristor_state_rate(p, w, i)
    out.memory[elem.name] = rate
    if ctx.mode == "dc":
        return  # state frozen at w0
    di_dw = -(va - vb) * (p.r_on - p.r_off) / (r * r)
    out.jac[a][k] += di_dw
    out.jac[b][k] -= di_dw
    # implicit state equation, same integration rule as the node system
    fw = window_factor(p, w)
    drate_dw = p.k_drift * (di_dw * fw + i * _window_grad(p, w))
    drate_dv = p.k_drift * fw * g
    _add_f(out, k, w - ctx.prev_step[k])
    if ctx.method == "trapezoidal":
        dte = 0.5 * ctx.dt
        _add_f(out, k, -dte * (rate + ctx.hist.get(elem.name, 0.0)))
    else:
        dte = ctx.dt
        _add_f(out, k, -dte * rate)
    jk = out.jac[k]
    jk[k] += 1.0 - dte * drate_dw
    jk[a] -= dte * drate_dv
    jk[b] += dte * drate_dv


_STAMPS = {
    "r": _stamp_resistor,
    "c": _stamp_capacitor,
    "v": _stamp_vsource,
    "d": _stamp_zener,
    "m": _stamp_mosfet,
    "xmr": _stamp_memristor,
}


def stamp(elem, x, ctx: StampContext, out) -> None:
    """Add elem's Jacobian, residual and companion memory at iterate x."""
    _STAMPS[elem.kind](elem, x, ctx, out)
