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
  modulation through (1 + lambda*vds). Forward body bias past
  phi2 + vsb < 0 holds the body term at sqrt(0), and its d/dvsb at 0.
* The breakdown diode is a two-exponential curve, strictly increasing in v:
  i(v) = i_sat*(exp(v/(n*vt)) - 1) - i_bv*exp(-(v + vz)/(n*vt)).
* The memristor is linear ion drift with a Joglekar window:
  R(w) = r_on*w + r_off*(1 - w), dw/dt = k_drift*i*(1 - (2w - 1)**(2p)).
  State is held at w0 in DC and integrated alongside the node equations in
  transient runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

from .errors import DomainError

# exp() overflows just above 709; past this point continue linearly so the
# curve stays finite, monotone and C1 while Newton is still far from home.
_EXP_CAP = 700.0


def _safe_exp(x: float) -> tuple[float, float]:
    """Return (exp(x), d/dx exp(x)) for x past ``_EXP_CAP`` only: the
    linear tail that continues exp above the cap. At or below the cap
    both are ``math.exp(x)``, which callers compute themselves."""
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
            # a fall's end within 4 ulps of the period's end ends the
            # period: three rounded decimals that fill a rounded period sum
            # to within 4 ulps of it, to either side
            slack = 4 * math.ulp(period)
            if rise + width + fall - period > slack:
                raise DomainError("pulse rise + width + fall exceeds period")
            # the distinct corner offsets in a period, for ``corners``: a
            # zero rise or fall is one corner, and one that ends the period
            # is where the next period's rise starts
            object.__setattr__(self, "_edges", frozenset(
                e for e in (0.0, rise, rise + width, rise + width + fall)
                if period - e > slack))
        elif self.kind == "pwl":
            if len(self.params) < 4 or len(self.params) % 2:
                raise DomainError("pwl takes at least two (time, value) pairs")
            times = self.params[0::2]
            if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
                raise DomainError("pwl times must be non-decreasing")
            # the corner times and values, split once for ``value`` and
            # ``corners``
            object.__setattr__(self, "_corners", (times, self.params[1::2]))
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
                return v1 + (v2 - v1) * tt / rise   # tt >= 0: rise > 0
            tt -= rise
            if tt < width:
                return v2
            tt -= width
            if tt < fall:
                return v2 + (v1 - v2) * tt / fall
            return v1
        times, vals = self._corners
        j = bisect_left(times, t)   # the first corner at or after t
        if j == 0:
            return vals[0]
        if j == len(times):
            return vals[-1]
        t0, t1, v0, v1 = times[j - 1], times[j], vals[j - 1], vals[j]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)   # t0 < t <= t1

    def corners(self, a: float, b: float) -> int:
        """The number of corners, where the slope may jump, strictly inside
        (a, b): PWL times, counted by bisection, or the starts and ends of a
        pulse's rises and falls, counted per edge in O(1) whatever its
        period. For each edge of a pulse, the count of its corners before
        b, and that of those at or before a, saturate at 2**62."""
        if self.kind == "dc":
            return 0
        if self.kind == "pwl":
            times = self._corners[0]
            return max(0, bisect_left(times, b) - bisect_right(times, a))
        delay, period = self.params[2], self.params[6]
        count = 0
        for e in self._edges:   # the corners delay + e + n*period, n >= 0
            # how many lie before b, less how many lie at or before a; a
            # tiny period's quotient may overflow to inf
            before = -((delay + e - b) // period)
            upto = (a - delay - e) // period + 1
            count += (int(min(max(0.0, before), 2.0 ** 62))
                      - int(min(max(0.0, upto), 2.0 ** 62)))
        return max(0, count)


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
# device equations, each stated once and shared with the stamps below


def mosfet_ids_grad(p: MosfetParams, vgs: float, vds: float,
                    vsb: float) -> tuple[float, float, float, float]:
    """Drain current and its partials w.r.t. (vgs, vds, vsb), physical sign.

    Handles p-channel mirroring and drain/source role reversal for vds of
    the "wrong" sign, so the result is differentiable except at the usual
    region boundaries.
    """
    # the MOSFET's stamp on one element, (d, g, s, b) at (vds, vgs, 0, -vsb)
    out = SimpleNamespace(values=[])
    _bind_mosfet(p, (0, 1, 2, 3), 0)([vds, vgs, 0.0, -vsb], None, out)
    i, _, gd, _, gg, _, _, _, _, gb = out.values
    return i, gg, gd, gb


def _zener_laws(p: ZenerParams):
    """The breakdown diode bound to p: ``limit(v, vprev)``, the voltage to
    linearize at and whether either branch's limiting moved it, and
    ``current(v)``, the current and small-signal conductance at v."""
    i_sat, i_bv, vz = p.i_sat, p.i_bv, p.vz
    nvt = p.n * p.v_thermal
    two_nvt = 2.0 * nvt
    vcrit_f = nvt * math.log(nvt / (math.sqrt(2.0) * i_sat))
    vcrit_r = nvt * math.log(nvt / (math.sqrt(2.0) * i_bv))
    exp = math.exp

    # each branch limits (``_pnjlim``) only past its guard, as SPICE's
    # pnjlim: a voltage above vcrit that moved more than 2*nvt
    def limit(v, vprev):
        vf = (v if v <= vcrit_f or abs(v - vprev) <= two_nvt
              else _pnjlim(v, vprev, nvt, vcrit_f))
        # breakdown branch, mirrored: overdrive u = -(v + vz)
        u, uprev = -(vf + vz), -(vprev + vz)
        ur = (u if u <= vcrit_r or abs(u - uprev) <= two_nvt
              else _pnjlim(u, uprev, nvt, vcrit_r))
        if ur == u:   # unmoved: no round trip through the mirror's rounding
            return vf, vf != v
        return -ur - vz, True

    # exp and its derivative are one value up to _EXP_CAP; past it the
    # linear tail of ``_safe_exp``
    def current(v):
        xf, xr = v / nvt, -(v + vz) / nvt
        if xf <= _EXP_CAP:
            ef = def_ = exp(xf)
        else:
            ef, def_ = _safe_exp(xf)
        if xr <= _EXP_CAP:
            er = der = exp(xr)
        else:
            er, der = _safe_exp(xr)
        return i_sat * (ef - 1.0) - i_bv * er, (i_sat * def_ + i_bv * der) / nvt
    return limit, current


def _pnjlim(vnew: float, vold: float, nvt: float, vcrit: float) -> float:
    """Classic junction-voltage limiting for one exponential branch, past
    its guard: vnew above vcrit and more than 2*nvt away from vold.

    From vold <= 0 the log's argument is vnew/nvt, floored just above 1 so
    that the limited voltage stays positive. Only a saturation current
    above nvt/(sqrt(2)*e), about 8 mA at nvt = 31 mV, puts vcrit below
    nvt; a vnew in (vcrit, nvt) then reaches the floor, and the result is
    nvt*1e-12, between 0 and vnew."""
    if vold > 0.0:
        arg = 1.0 + (vnew - vold) / nvt
        return vold + nvt * math.log(arg) if arg > 0.0 else vcrit
    return nvt * math.log(max(vnew / nvt, 1.0 + 1e-12))


def zener_ig(p: ZenerParams, v: float) -> tuple[float, float]:
    """Current and small-signal conductance of the breakdown diode at v."""
    return _zener_laws(p)[1](v)


def _zener_limited_v(p: ZenerParams, v: float,
                     vprev: float) -> tuple[float, bool]:
    """The voltage to linearize at, and whether either branch's limiting
    moved it."""
    return _zener_laws(p)[0](v, vprev)


def _memristor_laws(p: MemristorParams):
    """The memristor bound to p: ``resistance(w)``, and ``drift(w, i)``,
    the state rate at device current i with the window and its gradient."""
    r_on, r_off, k_drift = p.r_on, p.r_off, p.k_drift
    power, grad = 2 * p.p_window, -4.0 * p.p_window

    def resistance(w):
        return r_on * w + r_off * (1.0 - w)

    def drift(w, i):
        u = 2.0 * w - 1.0
        fw = 1.0 - u ** power
        return k_drift * i * fw, fw, grad * u ** (power - 1)
    return resistance, drift


def memristance(p: MemristorParams, w: float) -> float:
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"state w must lie in [0, 1], got {w}")
    return _memristor_laws(p)[0](w)


def window_factor(p: MemristorParams, w: float) -> float:
    """Joglekar boundary window, zero at w = 0 and w = 1."""
    return _memristor_laws(p)[1](w, 0.0)[1]


def memristor_state_rate(p: MemristorParams, w: float, i: float) -> float:
    """dw/dt for device current i (first node to second)."""
    return _memristor_laws(p)[1](w, i)[0]


def _window_grad(p: MemristorParams, w: float) -> float:
    return _memristor_laws(p)[1](w, 0.0)[2]


# ---------------------------------------------------------------------------
# stamps
#
# A stamp is bound once per circuit: ``_bind_<kind>(params, slots, number)``
# returns its ``load(x, ctx, out)``, which holds the element's slots (its
# unknown numbers: its nodes in netlist order, then its source branch
# current or memristor state), its ``number`` (its position, which indexes
# the per-point lists ``ctx.levels``, ``ctx.hist`` and ``out.memory``) and
# every constant that depends on its parameters alone. The solver keeps the
# load on its element record, and ``stamp`` runs it at every assembly. A
# load reads the iterate ``x``, a flat sequence indexed by unknown number
# whose last slot is ground and holds 0.0, and writes into its target
# ``out``:
#
# * ``out.values``: a list that takes the element's residual values, then
#   its Jacobian values, in one ``extend`` (not an ``array('d')``, whose
#   ``extend`` converts item by item at ten times the cost; the solver
#   packs the list into doubles once per assembly, with one ``struct``
#   of the list's fixed length, so a load that writes a wrong number of
#   values fails that assembly);
# * ``out.memory[number]``: companion memory that the next transient
#   step reads back as ``ctx.hist`` (capacitor current, memristor drift
#   rate), recorded at every assembly so the converged one holds it;
# * ``out.limited``: set when junction limiting moved a voltage, so the
#   residual is not the iterate's own.
#
# A stamp writes values only. Where they go is fixed per kind, the same in
# every mode, and is stated once, beside the stamp, as its pattern: the
# residual rows and the Jacobian (row, col) cells it fills, in the order it
# lists their values, as positions in the element's slots. A place that a
# mode leaves unused gets 0.0, which leaves every sum as it was. The solver
# maps the patterns to one flat index over residual and Jacobian bins when
# it numbers the unknowns and adds every value into place with one
# ``np.bincount``, which adds in input order. The residual scale, the
# solver's local convergence scale, is the sum of the residual values'
# magnitudes, so a row with several contributions (a source's branch row, a
# memristor's state row) lists each one as a separate value, not their sum.
#
# Two loads keep a one-entry memo of their last evaluation (SPICE's device
# bypass in its exact form): a step's first assembly sits at the last
# step's converged iterate, so about half of the loads see exactly their
# previous inputs. A MOSFET's values depend on its four slot values alone,
# its key; a transient memristor's w, i, rate and Jacobian values depend on
# its three slot values and h, its key, while the two values that read the
# step's context (w - w_n and the state term with carry and ctx.hist) and
# its companion memory are computed again at every call. Equal keys (``==``)
# hand back the values the same float operations gave. The other kinds
# keep none: the zener's tangent also depends on ``ctx.prev_iter``, the
# capacitor and source values on the step's context, and a resistor's load
# costs about what the comparison would. A hit can also match 0.0 with
# -0.0: no load divides by a quantity that can be zero, so that flips at
# most the sign of a zero among its values and memory (and of a zero state
# term the next step computes from that memory). It changes no bin,
# because ``np.bincount`` sums from +0.0, and the scale takes magnitudes.
#
# Ground is an ordinary row and column of the target; the solver drops it.

GROUND = "0"


def integration(method: str, dt: float) -> tuple[float, float]:
    """(h, carry) of one step x1 - x0 = h*(f1 + carry*f0) of dx/dt = f:
    backward Euler is (dt, 0) and the trapezoidal rule (dt/2, 1)."""
    if method == "backward-euler":
        return dt, 0.0
    if method == "trapezoidal":
        return 0.5 * dt, 1.0
    raise DomainError(f"unknown method {method!r}")


@dataclass(slots=True)
class StampContext:
    """Everything a stamp may need beyond the current iterate; the solver
    makes one per operating point, sweep point or time step."""

    h: float = 0.0                    # step coefficients of ``integration``;
    carry: float = 0.0                # h == 0 is DC
    # set and read by nothing in the package; kept only because
    # perfbench/tracing.py still reads it (ROADMAP item U1 removes it)
    srcscale: float = 1.0
    gmin: float = 0.0                 # gmin-stepping node leak to ground
    levels: list = field(default_factory=list)      # source levels by element
    prev_step: list = field(default_factory=list)   # iterate at t_n
    # last Newton iterate; the solver sets it to the iterate itself at a
    # point's first assembly, and None, from a context built outside the
    # solver, reads as the iterate itself
    prev_iter: list | None = None
    hist: list = field(default_factory=list)        # companion memory at t_n


# (residual rows, Jacobian cells) of a current i(v) with conductance g
# between slots 0 and 1; values (i, -i) and (g, -g, -g, g), all zeros for
# a capacitor in DC (open circuit)
_TWO_TERMINAL = ((0, 1), ((0, 0), (0, 1), (1, 0), (1, 1)))


def _bind_resistor(p, slots, number):
    a, b = slots
    g = 1.0 / p.resistance

    def load(x, ctx, out):
        i = (x[a] - x[b]) * g
        out.values.extend((i, -i, g, -g, -g, g))
    return load


def _bind_capacitor(p, slots, number):
    a, b = slots
    c = p.capacitance

    def load(x, ctx, out):
        if ctx.h:   # companion of c*(v1 - v0) = h*(i1 + carry*i0)
            g = c / ctx.h
            i = (g * ((x[a] - x[b]) - (ctx.prev_step[a] - ctx.prev_step[b]))
                 - ctx.carry * ctx.hist[number])
        else:   # DC: open circuit
            g = i = 0.0
        out.memory[number] = i
        out.values.extend((i, -i, g, -g, -g, g))
    return load


# slots (a, b, k): the branch current in the KCL rows, and the branch row
# k = x[a] - x[b] - level as three values
_VSOURCE = ((0, 1, 2, 2, 2), ((0, 2), (1, 2), (2, 0), (2, 1)))


def _bind_vsource(p, slots, number):
    a, b, k = slots

    def load(x, ctx, out):
        i = x[k]
        out.values.extend((i, -i, x[a], -x[b], -ctx.levels[number],
                           1.0, -1.0, 1.0, -1.0))
    return load


def _bind_zener(p, slots, number):
    a, b = slots
    limit, current = _zener_laws(p)

    def load(x, ctx, out):
        v = x[a] - x[b]
        last = ctx.prev_iter or x
        vlim, limited = limit(v, last[a] - last[b])
        # the tangent then belongs to another voltage than the iterate's:
        # the assembly cannot end Newton (SPICE's non-convergence count)
        out.limited |= limited
        i0, g = current(vlim)
        # tangent extrapolation back to the unlimited voltage; exact once
        # the iterates stop moving
        i = i0 + g * (v - vlim)
        out.values.extend((i, -i, g, -g, -g, g))
    return load


# slots (d, g, s, b): the drain current in rows d and s, its partials in
# columns d, g, s, b
_MOSFET = ((0, 2), ((0, 0), (2, 0), (0, 1), (2, 1),
                    (0, 2), (2, 2), (0, 3), (2, 3)))


def _bind_mosfet(p, slots, number):
    d, g, s, b = slots
    sign = -1.0 if p.polarity == "p" else 1.0   # p-channel: mirrored n-sense
    vth0, gamma, phi2, lam = p.vth0, p.gamma, p.phi2, p.lam
    root_phi2 = math.sqrt(phi2)
    k = p.kprime * p.w_over_l
    last = values = None   # the last load's inputs and the values they gave

    def load(x, ctx, out):
        nonlocal last, values
        vd, vg, vs, vb = inputs = x[d], x[g], x[s], x[b]
        if inputs == last:
            out.values.extend(values)
            return
        vgs, vds, vsb = sign * (vg - vs), sign * (vd - vs), sign * (vs - vb)
        swapped = vds < 0.0
        if swapped:   # the drain terminal acts as source
            vgs, vds, vsb = vgs - vds, -vds, vsb + vds
        body = phi2 + vsb
        if body < 0.0:   # forward body bias: the body term is sqrt(0)
            body = 0.0
        root = math.sqrt(body)
        vov = vgs - (vth0 + gamma * (root - root_phi2))
        if vov <= 0.0:
            i = gg = gd = gb = 0.0
        else:
            cm = 1.0 + lam * vds
            if vds < vov:
                i = k * (vov * vds - 0.5 * vds * vds) * cm
                gg = k * vds * cm
                gd = k * ((vov - vds) * cm + (vov * vds - 0.5 * vds * vds) * lam)
                gth = -k * vds * cm
            else:
                i = 0.5 * k * vov * vov * cm
                gg = k * vov * cm
                gd = 0.5 * k * vov * vov * lam
                gth = -k * vov * cm
            gb = gth * (gamma / (2.0 * root) if gamma and root else 0.0)
        if swapped:
            i, gg, gd, gb = -i, -gg, gg + gd - gb, -gb
        i *= sign
        gs = -gg - gd + gb
        last, values = inputs, (i, -i, gd, -gd, gg, -gg, gs, -gs, -gb, gb)
        out.values.extend(values)
    return load


# slots (a, b, k): the two-terminal pattern, the current's partial in
# column k, then the state row k = w - w_n - h*(rate + carry*rate_n) as
# two values. In DC the current reads w0 and the state row is
# k = x[k] - w0 with a unit diagonal and zero couplings, so the state
# stays at w0.
_MEMRISTOR = ((0, 1, 2, 2), _TWO_TERMINAL[1] + (
    (0, 2), (1, 2), (2, 2), (2, 0), (2, 1)))


def _bind_memristor(p, slots, number):
    a, b, k = slots
    resistance, drift = _memristor_laws(p)
    w0, k_drift, dr = p.w0, p.k_drift, p.r_on - p.r_off
    # the last transient load's inputs, and its w, i, rate and Jacobian
    last = cached = None

    def load(x, ctx, out):
        nonlocal last, cached
        va, vb, xk, h = inputs = x[a], x[b], x[k], ctx.h
        if h and inputs == last:
            w, i, rate, jac = cached
        else:
            # the state clamped to [0, 1]; NaN and -0.0 pass unchanged
            w = (0.0 if xk < 0.0 else 1.0 if xk > 1.0 else xk) if h else w0
            r = resistance(w)
            g = 1.0 / r
            i = (va - vb) * g
            rate, fw, dfw = drift(w, i)
            if not h:   # DC: state held at w0, decoupled from the nodes
                out.memory[number] = rate
                out.values.extend((i, -i, xk - w, 0.0,
                                   g, -g, -g, g, 0.0, 0.0, 1.0, 0.0, 0.0))
                return
            di_dw = -(va - vb) * dr / (r * r)
            # implicit state equation, same integration rule as the node system
            drate_dw = k_drift * (di_dw * fw + i * dfw)
            drate_dv = k_drift * fw * g
            jac = (g, -g, -g, g, di_dw, -di_dw, 1.0 - h * drate_dw,
                   -(h * drate_dv), h * drate_dv)
            last, cached = inputs, (w, i, rate, jac)
        out.memory[number] = rate
        state = -h * (rate + ctx.carry * ctx.hist[number])
        out.values.extend((i, -i, w - ctx.prev_step[k], state) + jac)
    return load


# kind -> (binder, (residual rows, Jacobian cells) of its values in every mode)
KINDS = {
    "r": (_bind_resistor, _TWO_TERMINAL),
    "c": (_bind_capacitor, _TWO_TERMINAL),
    "v": (_bind_vsource, _VSOURCE),
    "d": (_bind_zener, _TWO_TERMINAL),
    "m": (_bind_mosfet, _MOSFET),
    "xmr": (_bind_memristor, _MEMRISTOR),
}


def stamp(elem, x, ctx: StampContext, out) -> None:
    """Write elem's residual and Jacobian values (in the order of its
    ``KINDS`` pattern) and its companion memory at iterate x."""
    elem.load(x, ctx, out)
