"""Device models: frozen anchors, region behavior, analytic gradients."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, strategies as st

from dtlsim.devices import (CapacitorParams, MemristorParams, MosfetParams,
                            ResistorParams, SourceWaveform, ZenerParams,
                            _EXP_CAP, _pnjlim, _zener_limited_v,
                            memristance, memristor_state_rate,
                            mosfet_defaults, mosfet_ids_grad, window_factor,
                            zener_ig)
from dtlsim.errors import DomainError
from dtlsim.netlist import parse_number


# --- MOSFET -----------------------------------------------------------------

def _vth(p: MosfetParams, vsb: float) -> float:
    return p.vth0 + p.gamma * (math.sqrt(p.phi2 + vsb) - math.sqrt(p.phi2))


def test_mosfet_cutoff():
    p = mosfet_defaults("n")
    assert mosfet_ids_grad(p, 0.3, 2.0, 0.0)[0] == 0.0
    assert mosfet_ids_grad(p, 0.45, 2.0, 0.0)[0] == 0.0  # boundary inclusive


def test_mosfet_saturation_frozen():
    p = mosfet_defaults("n")
    # 0.5 * kp * wl * vov^2 * (1 + lam*vds), vov = 1.0 - 0.45
    expect = 0.5 * 170e-6 * 1.0 * 0.55 ** 2 * (1.0 + 0.05 * 2.0)
    assert mosfet_ids_grad(p, 1.0, 2.0, 0.0)[0] == pytest.approx(expect, rel=1e-12)


def test_mosfet_triode_frozen():
    p = mosfet_defaults("n")
    # kp * wl * (vov*vds - vds^2/2) * (1 + lam*vds)
    expect = 170e-6 * (1.55 * 0.1 - 0.5 * 0.1 ** 2) * (1.0 + 0.05 * 0.1)
    assert mosfet_ids_grad(p, 2.0, 0.1, 0.0)[0] == pytest.approx(expect, rel=1e-12)


def test_mosfet_body_effect():
    p = mosfet_defaults("n")
    vth1 = _vth(p, 1.0)
    assert vth1 > p.vth0
    assert mosfet_ids_grad(p, vth1 - 0.01, 2.0, vsb=1.0)[0] == 0.0
    assert mosfet_ids_grad(p, vth1 + 0.10, 2.0, vsb=1.0)[0] > 0.0


@pytest.mark.parametrize("p", [mosfet_defaults("n"), mosfet_defaults("p"),
                               MosfetParams(gamma=0.9, phi2=0.6)])
def test_forward_body_bias_holds_the_body_term_at_zero(p):
    # past phi2 + vsb = 0 the threshold stops falling: every deeper
    # forward bias gives the values at vsb = -phi2, bit for bit, and no
    # body transconductance
    sign = -1.0 if p.polarity == "p" else 1.0   # n-sense to physical

    def law(vgs, vds, vsb):
        return mosfet_ids_grad(p, sign * vgs, sign * vds, sign * vsb)
    edge = -p.phi2
    for vgs in (-1.0, 0.0, 0.3, 0.9, 1.6, 3.3):
        for vds in (0.0, 0.05, 0.7, 3.0):
            at_edge = [x.hex() for x in law(vgs, vds, edge)]
            for vsb in (math.nextafter(edge, -math.inf), edge - 0.01,
                        edge - 0.3, edge - 1.2, edge - 40.0):
                values = law(vgs, vds, vsb)
                assert [x.hex() for x in values] == at_edge
                assert values[3] == 0.0


def test_pchannel_mirror():
    pn = mosfet_defaults("n")
    pp = MosfetParams(polarity="p", vth0=pn.vth0, kprime=pn.kprime,
                      w_over_l=pn.w_over_l, lam=pn.lam, gamma=pn.gamma,
                      phi2=pn.phi2)
    for vgs, vds, vsb in [(-1.0, -2.0, 0.0), (-2.0, -0.1, 0.0),
                          (-1.5, -1.0, -0.5), (1.0, 0.5, 0.0)]:
        assert mosfet_ids_grad(pp, vgs, vds, vsb)[0] == pytest.approx(
            -mosfet_ids_grad(pn, -vgs, -vds, -vsb)[0], rel=1e-12, abs=1e-30)


def test_reverse_vds_terminal_swap():
    # with source and drain exchanged the same device must conduct the
    # mirrored current: i(vgs, vds, vsb) == -i(vgs - vds, -vds, vsb + vds)
    p = mosfet_defaults("n")
    for vgs, vds, vsb in [(2.0, -1.0, 0.5), (1.0, -0.3, 0.0),
                          (2.0, -0.5, 0.2)]:
        assert mosfet_ids_grad(p, vgs, vds, vsb)[0] == pytest.approx(
            -mosfet_ids_grad(p, vgs - vds, -vds, vsb + vds)[0], rel=1e-12)


def test_mosfet_gradients_vs_finite_difference():
    rng = np.random.default_rng(20240817)
    p_n = mosfet_defaults("n")
    p_p = mosfet_defaults("p")
    h = 1e-6
    checked = 0
    while checked < 100:
        vgs = float(rng.uniform(-3.0, 3.0))
        vds = float(rng.uniform(-3.0, 3.0))
        vsb = float(rng.uniform(-0.5, 2.0))
        p = p_n if rng.uniform() < 0.5 else p_p
        # stay away from region boundaries where the model is only C0
        svgs, svds, svsb = (vgs, vds, vsb) if p.polarity == "n" \
            else (-vgs, -vds, -vsb)
        if svds < 0.0:
            svgs, svds, svsb = svgs - svds, -svds, svsb + svds
        if svsb + p.phi2 < 0.05:
            continue
        vov = svgs - _vth(p, svsb)
        if min(abs(vov), abs(svds), abs(vov - svds)) < 1e-3:
            continue
        i, gg, gd, gb = mosfet_ids_grad(p, vgs, vds, vsb)
        fd_g = (mosfet_ids_grad(p, vgs + h, vds, vsb)[0]
                - mosfet_ids_grad(p, vgs - h, vds, vsb)[0]) / (2 * h)
        fd_d = (mosfet_ids_grad(p, vgs, vds + h, vsb)[0]
                - mosfet_ids_grad(p, vgs, vds - h, vsb)[0]) / (2 * h)
        fd_b = (mosfet_ids_grad(p, vgs, vds, vsb + h)[0]
                - mosfet_ids_grad(p, vgs, vds, vsb - h)[0]) / (2 * h)
        for a, b in ((gg, fd_g), (gd, fd_d), (gb, fd_b)):
            assert a == pytest.approx(b, rel=1e-5, abs=1e-10)
        checked += 1


# --- zener ------------------------------------------------------------------

def test_zener_anchor_zero_bias():
    p = ZenerParams()
    assert abs(zener_ig(p, 0.0)[0]) < 1e-60


def test_zener_anchor_forward():
    p = ZenerParams()
    nvt = 1.2 * 0.02585
    expect = 1e-14 * (math.exp(0.7 / nvt) - 1.0) \
        - 1e-3 * math.exp(-(0.7 + 4.2) / nvt)
    assert zener_ig(p, 0.7)[0] == pytest.approx(expect, rel=1e-12)


def test_zener_anchor_breakdown():
    p = ZenerParams()
    assert zener_ig(p, -4.2)[0] == pytest.approx(-1e-3, rel=1e-9)
    # an extra volt of overdrive multiplies the branch enormously
    assert zener_ig(p, -5.2)[0] < -1e9 * 1e-3


@given(st.floats(min_value=-10.0, max_value=25.0),
       st.floats(min_value=-10.0, max_value=25.0))
def test_zener_monotone_nondecreasing(v1, v2):
    p = ZenerParams()
    lo, hi = sorted((v1, v2))
    assert zener_ig(p, lo)[0] <= zener_ig(p, hi)[0]


def test_zener_large_forward_stays_finite():
    p = ZenerParams()
    # the exponential is linearized past its cap instead of overflowing
    i1, i2 = zener_ig(p, 50.0)[0], zener_ig(p, 100.0)[0]
    assert math.isfinite(i1) and math.isfinite(i2) and i2 > i1 > 0.0


ZENERS = pytest.mark.parametrize("p", [
    ZenerParams(),
    ZenerParams(i_sat=3e-12, n=1.05, v_thermal=0.0259, vz=5.6, i_bv=2e-4)],
    ids=["default", "custom"])


@ZENERS
def test_zener_limiting_follows_the_pnjlim_statement(p):
    # SPICE's pnjlim, on each branch's own junction voltage (forward v,
    # breakdown -(v + vz)): it limits exactly when that voltage lies above
    # vcrit = nvt ln(nvt / (sqrt(2) i)) and moved more than 2 nvt, and
    # never past the new voltage; an unmoved voltage is an exact fixed
    # point
    nvt = p.n * p.v_thermal
    guard = 2.0 * nvt
    vcrit_f = nvt * math.log(nvt / (math.sqrt(2.0) * p.i_sat))
    vcrit_r = nvt * math.log(nvt / (math.sqrt(2.0) * p.i_bv))
    knee_r = -(p.vz + vcrit_r)   # the breakdown branch's vcrit, as a v
    # within 1e-6 of each vcrit: a 1% change of its sqrt(2) moves it 0.15 mV
    volts = [-30.0, knee_r - 2.0, knee_r - 0.3, knee_r - 1e-6, knee_r + 1e-6,
             -1.0, 0.0, 0.1, vcrit_f - 1e-6, vcrit_f + 1e-6, vcrit_f + 0.3,
             2.0, 25.0]
    # steps just inside and just past the guard, then far past it
    moves = [0.0, guard * (1.0 - 1e-3), guard * (1.0 + 1e-3), 0.3, 2.0, 9.0]
    acted = set()
    for v in volts:
        for vprev in [v - d for d in moves] + [v + d for d in moves] + [-v]:
            vlim, moved = _zener_limited_v(p, v, vprev)
            forward = v > vcrit_f and abs(v - vprev) > guard
            u, uprev = -(v + p.vz), -(vprev + p.vz)
            breakdown = u > vcrit_r and abs(u - uprev) > guard
            assert moved == (forward or breakdown), (v, vprev)
            if forward:
                assert vlim <= v, (v, vprev)
            if breakdown:   # -(vlim + vz) <= u, up to the mirror's rounding
                assert vlim >= v - 1e-12, (v, vprev)
            if not moved:
                assert vlim == v, (v, vprev)
            acted.add((forward, breakdown))
        assert _zener_limited_v(p, v, v)[1] is False
    assert acted == {(False, False), (True, False), (False, True)}


def test_pnjlim_floor_keeps_a_small_new_voltage_between_zero_and_itself():
    # a saturation current of 0.1 A puts vcrit at -0.047 V, below nvt:
    # from vold <= 0 a vnew of 1e-5 V, past the guard, reaches the log's
    # floor, and the limited voltage must lie in [0, vnew]
    p = ZenerParams(i_sat=0.1)
    nvt = p.n * p.v_thermal
    vcrit = nvt * math.log(nvt / (math.sqrt(2.0) * p.i_sat))
    assert -0.048 < vcrit < -0.046
    vnew, vold = 1e-5, -0.1
    assert vnew > vcrit and abs(vnew - vold) > 2.0 * nvt
    vlim = _pnjlim(vnew, vold, nvt, vcrit)
    assert math.isfinite(vlim) and 0.0 <= vlim <= vnew, vlim
    v, moved = _zener_limited_v(p, vnew, vold)
    assert moved and 0.0 <= v <= vnew, v


@ZENERS
@pytest.mark.parametrize("branch", ["forward", "breakdown"])
def test_zener_exponentials_are_c1_across_the_cap(p, branch):
    # each branch's exponential hands over to its linear tail where its
    # argument reaches _EXP_CAP, at v = nvt * cap forward and
    # v = -(vz + nvt * cap) in breakdown: current and conductance agree on
    # either side, and the conductance is the current's slope there
    nvt = p.n * p.v_thermal
    x = _EXP_CAP - 1e-6, _EXP_CAP + 1e-6
    volts = ([nvt * xk for xk in x] if branch == "forward"
             else [-(p.vz + nvt * xk) for xk in x])
    (i_a, g_a), (i_b, g_b) = (zener_ig(p, v) for v in volts)
    assert i_a == pytest.approx(i_b, rel=1e-5)
    assert g_a == pytest.approx(g_b, rel=1e-5)
    assert (i_b - i_a) / (volts[1] - volts[0]) == pytest.approx(g_a, rel=1e-5)


@seed(20261020)
@example(1.0, 0.0, 0.025, 1e-14)   # from vold == 0, SPICE's second branch
@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
       st.floats(0.02, 0.05), st.floats(1e-16, 1e-3))
def test_pnjlim_never_passes_the_new_voltage(vnew, vold, nvt, i_s):
    # SPICE's pnjlim past its guard (vnew above vcrit, more than 2 nvt
    # from vold): from vold > 0 the exponential at the limited voltage is
    # its tangent at vold taken to vnew, or the limit is vcrit where that
    # tangent is not positive; from vold <= 0, exp(vlim / nvt) is
    # vnew / nvt. Either way the limited voltage lies at or below vnew
    vcrit = nvt * math.log(nvt / (math.sqrt(2.0) * i_s))
    assume(vnew > vcrit and abs(vnew - vold) > 2.0 * nvt)
    vlim = _pnjlim(vnew, vold, nvt, vcrit)
    assert vlim <= vnew
    tangent = 1.0 + (vnew - vold) / nvt   # exp((vnew - vold) / nvt), linear
    if vold <= 0.0:
        assert math.exp(vlim / nvt) == pytest.approx(vnew / nvt, rel=1e-9)
    elif tangent > 0.0:
        assert math.exp((vlim - vold) / nvt) == pytest.approx(tangent,
                                                               rel=1e-9)
    else:
        assert vlim == vcrit


def test_zener_gradient_vs_finite_difference():
    p = ZenerParams()
    rng = np.random.default_rng(7)
    h = 1e-7
    for v in rng.uniform(-6.0, 1.2, size=100):
        _, g = zener_ig(p, float(v))
        fd = (zener_ig(p, v + h)[0] - zener_ig(p, v - h)[0]) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-5, abs=1e-18)


# --- memristor ---------------------------------------------------------------

def test_memristance_endpoints():
    p = MemristorParams()
    assert memristance(p, 0.0) == 100e3
    assert memristance(p, 1.0) == 1e3
    assert memristance(p, 0.5) == 50.5e3


def test_memristance_domain():
    p = MemristorParams()
    with pytest.raises(DomainError):
        memristance(p, -0.1)
    with pytest.raises(DomainError):
        memristance(p, 1.1)


def test_window_boundaries():
    p = MemristorParams()
    assert window_factor(p, 0.0) == 0.0
    assert window_factor(p, 1.0) == 0.0
    assert window_factor(p, 0.5) == 1.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_window_symmetric_and_bounded(w):
    p = MemristorParams()
    f = window_factor(p, w)
    assert 0.0 <= f <= 1.0
    assert f == pytest.approx(window_factor(p, 1.0 - w), rel=1e-12, abs=1e-12)


def test_state_rate_stalls_at_boundaries():
    p = MemristorParams()
    assert memristor_state_rate(p, 0.0, 1e-3) == 0.0
    assert memristor_state_rate(p, 1.0, -1e-3) == 0.0
    assert memristor_state_rate(p, 0.5, 1e-3) > 0.0
    assert memristor_state_rate(p, 0.5, -1e-3) < 0.0


def test_window_gradient_vs_finite_difference():
    from dtlsim.devices import _window_grad
    p = MemristorParams()
    rng = np.random.default_rng(11)
    h = 1e-7
    for w in rng.uniform(0.02, 0.98, size=50):
        fd = (window_factor(p, w + h) - window_factor(p, w - h)) / (2 * h)
        assert _window_grad(p, float(w)) == pytest.approx(fd, rel=1e-5,
                                                          abs=1e-9)


# --- waveforms ----------------------------------------------------------------

def test_dc_waveform():
    w = SourceWaveform("dc", (3.3,))
    assert w.value(0.0) == 3.3
    assert w.value(1e9) == 3.3


def test_pulse_with_zero_edges_steps_at_its_corners():
    w = SourceWaveform("pulse", (0, 5, 1, 0, 0, 2, 10))
    assert [w.value(t) for t in (0.999, 1.0, 2.999, 3.0, 11.0)] \
        == [0, 5, 5, 0, 5]


def test_pulse_waveform_shape():
    w = SourceWaveform("pulse", (0.0, 5.0, 1e-3, 1e-6, 1e-6, 4e-3, 10e-3))
    assert w.value(0.0) == 0.0
    assert w.value(0.999e-3) == 0.0
    assert w.value(1e-3 + 0.5e-6) == pytest.approx(2.5)
    assert w.value(1e-3 + 1e-6) == pytest.approx(5.0)
    assert w.value(3e-3) == 5.0
    assert w.value(1e-3 + 1e-6 + 4e-3 + 0.5e-6) == pytest.approx(2.5)
    assert w.value(8e-3) == 0.0
    # periodic repeat
    assert w.value(13e-3) == w.value(3e-3)


def test_pulse_from_a_nonzero_level_follows_its_closed_form():
    # v1 != 0 on both edges: the rise is v1 + (v2 - v1)(t - delay)/rise
    # and the fall v2 + (v1 - v2)(t - delay - rise - width)/fall
    v1, v2, delay, rise, fall, width, period = 1.5, -2.0, 1.0, 4.0, 2.0, 3.0, 20.0
    w = SourceWaveform("pulse", (v1, v2, delay, rise, fall, width, period))
    for t in (1.0, 2.0, 3.5, 4.75):
        assert w.value(t) == pytest.approx(v1 + (v2 - v1) * (t - delay) / rise)
    for t in (8.0, 8.5, 9.25):
        assert w.value(t) == pytest.approx(
            v2 + (v1 - v2) * (t - delay - rise - width) / fall)
    assert [w.value(t) for t in (0.5, 6.0, 12.0)] == [v1, v2, v1]
    assert w.value(3.0) == pytest.approx(-0.25)   # halfway up: (v1 + v2) / 2
    assert w.value(9.0) == pytest.approx(-0.25)   # halfway down


def test_pwl_waveform_shape():
    w = SourceWaveform("pwl", (0.0, 0.0, 1e-3, 5.0, 2e-3, 1.0))
    assert w.value(-1.0) == 0.0
    assert w.value(0.5e-3) == pytest.approx(2.5)
    assert w.value(1e-3) == 5.0
    assert w.value(1.5e-3) == pytest.approx(3.0)
    assert w.value(10.0) == 1.0
    # a vertical edge: at its time, the segment that ends there
    w = SourceWaveform("pwl", (0.0, 0.0, 1.0, 2.0, 1.0, 6.0, 2.0, 6.0))
    assert w.value(1.0) == 2.0
    assert w.value(1.5) == 6.0


def _pwl_linear_scan(params, t):
    """Reference: the first segment whose end is at or after t."""
    times, vals = params[0::2], params[1::2]
    if t <= times[0]:
        return vals[0]
    for (t0, v0), (t1, v1) in zip(zip(times, vals), zip(times[1:], vals[1:])):
        if t <= t1:   # t > t0 (else an earlier test returned), so t1 > t0
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return vals[-1]


@st.composite
def _pwl_and_times(draw):
    # corners on a coarse grid, so that repeated times (vertical edges)
    # are common; queries before, on, between and after the corners
    times = sorted(draw(st.lists(st.integers(0, 12), min_size=2,
                                 max_size=12)))
    times = [k / 4.0 for k in times]
    vals = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(times),
                         max_size=len(times)))
    queries = draw(st.lists(st.one_of(
        st.sampled_from(times), st.floats(-1.0, 4.0),
        st.sampled_from([-math.inf, math.inf, times[0] - 1e-12,
                         times[-1] + 1e-12])), min_size=1, max_size=20))
    params = tuple(x for pair in zip(times, vals) for x in pair)
    return params, queries


@given(_pwl_and_times())
def test_pwl_value_equals_linear_scan_bit_for_bit(case):
    params, queries = case
    w = SourceWaveform("pwl", params)
    for t in queries:
        got, ref = w.value(t), _pwl_linear_scan(params, t)
        assert struct.pack("d", got) == struct.pack("d", ref), (t, got, ref)


# [0, tstop] widened by the solver's slack, 1e-9 dt, as the command line
# counts a source's corners in a run; a step of a quarter, the corner grid
# of these tests, lets a corner 1e-12 past tstop count
_SLACK = 1e-9 * 0.25


def _run(tstop):
    return -_SLACK, tstop + _SLACK


@given(_pwl_and_times())
def test_pwl_corner_inside_equals_a_scan_of_its_times(case):
    # a repeated time (a vertical edge) counts once for each listing
    params, queries = case
    w = SourceWaveform("pwl", params)
    for a in queries:
        for b in queries:
            assert w.corners(a, b) == sum(a < t < b
                                          for t in params[0::2]), (a, b)


@given(_pwl_and_times())
def test_pwl_corners_count_its_times_in_the_run(case):
    params, queries = case
    w = SourceWaveform("pwl", params)
    for tstop in queries:
        assert w.corners(*_run(tstop)) == sum(
            -_SLACK < t < tstop + _SLACK for t in params[0::2]), tstop


@st.composite
def _pulse_and_interval(draw):
    # whole-number timing and quarter-step ends: every sum is exact
    delay, rise, width, fall = (draw(st.integers(0, 4)) for _ in range(4))
    period = rise + width + fall + draw(st.integers(0, 4))
    assume(period > 0)
    a = draw(st.integers(-4, 160)) / 4.0
    b = a + draw(st.integers(0, 40)) / 4.0
    return (0.0, 1.0, delay, rise, fall, width, period), a, b


# ends on a corner: a at the delay, a at the rise's end, b at the delay;
# then a fall that ends the period, where the next period's rise starts;
# then a rise that ends 5e-10 period, far more than an ulp, before the
# period's end, its own corner
@example(((0.0, 1.0, 1, 2, 2, 2, 8), 1.0, 2.0))
@example(((0.0, 1.0, 1, 2, 2, 2, 8), 3.0, 4.0))
@example(((0.0, 1.0, 1, 2, 2, 2, 8), 0.0, 1.0))
@example(((0.0, 1.0, 0, 1, 1, 2, 4), -1.0, 9.0))
@example(((0.0, 1.0, 0, 2e9 - 1, 0, 0, 2e9), 2e9 - 2, 2e9 - 0.5))
@given(_pulse_and_interval())
def test_pulse_corner_inside_equals_a_list_of_its_edges(case):
    # a zero rise or fall, or a fall ending the period, shares its corner
    params, a, b = case
    _, _, delay, rise, fall, width, period = params
    w = SourceWaveform("pulse", params)
    edges = {delay + n * period + offset
             for n in range(int(b // period) + 1)
             for offset in (0, rise, rise + width, rise + width + fall)}
    inside = sum(a < t < b for t in edges)
    assert w.corners(a, b) == inside
    if not inside and rise and fall:   # the waveform is affine on [a, b]
        assert w.value(0.5 * (a + b)) == pytest.approx(
            0.5 * (w.value(a) + w.value(b)), abs=1e-12)


@given(_pulse_and_interval())
def test_pulse_corners_count_a_set_of_its_edges(case):
    # a zero rise or fall, or a fall ending the period, shares its corner
    params, _, tstop = case
    _, _, delay, rise, fall, width, period = params
    edges = {delay + n * period + offset
             for n in range(int(tstop // period) + 1)
             for offset in (0, rise, rise + width, rise + width + fall)}
    assert SourceWaveform("pulse", params).corners(*_run(tstop)) == sum(
        -_SLACK < t < tstop + _SLACK for t in edges)


@st.composite
def _pulse_in_decimals(draw):
    # whole ms, us or ns as a netlist writes them: the float sum of the
    # edges may land an ulp to either side of the period they fill
    unit = draw(st.sampled_from("mun"))
    delay, rise, fall, width = (draw(st.integers(0, 10)) for _ in range(4))
    period = rise + width + fall + draw(st.integers(0, 3))
    assume(period > 0)
    tstop = draw(st.integers(1, 60))
    return unit, (delay, rise, fall, width, period), tstop, draw(
        st.integers(1, tstop))


# a fall that ends the period: 6e-6 + 4e-6 + 10e-6 is an ulp below 20e-6,
# with corners at 3, 9, 13, 23, 29 and 33 us; 1e-6 + 1e-6 + 5e-6 is an ulp
# past 7e-6
@example(("u", (3, 6, 10, 4, 20), 40, 20))
@example(("u", (0, 1, 5, 1, 7), 14, 7))
@given(_pulse_in_decimals())
def test_pulse_corners_in_netlist_decimals_count_each_corner_once(case):
    # against the corner times in whole units, in the run to the last whole
    # step widened by the solver's slack, as the command line counts them
    unit, timing, tstop, dt = case
    delay, rise, fall, width, period = timing
    w = SourceWaveform("pulse", (0.0, 1.0) + tuple(
        parse_number(f"{v}{unit}") for v in timing))
    end = tstop // dt * dt
    corners = {delay + n * period + offset
               for n in range(end // period + 1)
               for offset in (0, rise, rise + width, rise + width + fall)}
    step = parse_number(f"{dt}{unit}")
    slack = 1e-9 * step
    assert w.corners(-slack, step * (tstop // dt) + slack) == sum(
        t <= end for t in corners)


def test_pulse_corners_saturate_past_the_float_range():
    # 1e10 s of 1e-300 s periods: the float quotient is inf
    w = SourceWaveform("pulse", (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1e-300))
    assert w.corners(-1.0, 1e10) == 2 ** 62
    assert w.corners(1e9, 1e10) == 0   # both ends' counts saturate


def test_dc_has_no_corner():
    assert SourceWaveform("dc", (1.0,)).corners(-1.0, 1.0) == 0


def test_param_validation():
    with pytest.raises(DomainError):
        MemristorParams(r_on=2e5, r_off=1e3)
    with pytest.raises(DomainError):
        MosfetParams(polarity="x")
    with pytest.raises(DomainError):
        ZenerParams(i_sat=-1.0)
    nan, inf = math.nan, math.inf
    for make in (lambda: MosfetParams(vth0=nan), lambda: MosfetParams(kprime=inf),
                 lambda: ZenerParams(vz=nan), lambda: MemristorParams(k_drift=inf),
                 lambda: MemristorParams(r_off=inf), lambda: ResistorParams(inf),
                 lambda: CapacitorParams(inf), lambda: SourceWaveform("dc", (nan,)),
                 lambda: SourceWaveform("pwl", (0, 0, nan, 1)),
                 lambda: SourceWaveform("pulse", (0, -inf, 0, 0, 0, 0, 1))):
        with pytest.raises(DomainError, match="must be finite"):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda: SourceWaveform("dc", (1.0, 2.0)), "dc source takes one level"),
    (lambda: SourceWaveform("pulse", (0, 1, 0, 0, 0, 1)),
     "pulse takes (v1 v2 delay rise fall width period)"),
    (lambda: SourceWaveform("pulse", (0, 1, -1, 0, 0, 1, 2)),
     "pulse timing values must be non-negative, period positive"),
    (lambda: SourceWaveform("pulse", (0, 1, 0, 1, 1, 1, 2)),
     "pulse rise + width + fall exceeds period"),
    (lambda: SourceWaveform("pulse", (0, 1, 0, 0, 1 + 5 * 2**-52, 0, 1)),
     "pulse rise + width + fall exceeds period"),   # 5 ulps past the period
    (lambda: SourceWaveform("pwl", (0, 1)),
     "pwl takes at least two (time, value) pairs"),
    (lambda: SourceWaveform("sin", (0, 1)), "unknown source kind 'sin'"),
    (lambda: MosfetParams(lam=-1), "lambda and gamma must be non-negative"),
    (lambda: MemristorParams(w0=2), "w0 must lie in [0, 1], got 2"),
    (lambda: MemristorParams(k_drift=0), "k_drift must be positive"),
])
def test_out_of_domain_parameters_are_named(make, message):
    with pytest.raises(DomainError) as ei:
        make()
    assert str(ei.value) == message
