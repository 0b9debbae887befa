"""Shared test helpers: directive-driven runs, hypothesis settings and the
finite-difference Jacobian harness used by both the solver tests and the
acceptance gate."""

import math

import numpy as np
from hypothesis import HealthCheck, settings

from dtlsim import devices, solver

settings.register_profile(
    "dtlsim",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dtlsim")


def dc_from_directive(circuit, options=None):
    """Run the first .dc directive embedded in a circuit."""
    for d in circuit.analyses:
        if d.kind == "dc":
            return solver.dc_sweep(circuit, d.source, d.start, d.stop,
                                   d.step, options)
    raise AssertionError("circuit has no .dc directive")


def tran_from_directive(circuit, options=None):
    """Run the first .tran directive embedded in a circuit."""
    for d in circuit.analyses:
        if d.kind == "tran":
            return solver.transient(circuit, d.tstop, d.dt, options=options)
    raise AssertionError("circuit has no .tran directive")


# one bench per analysis mode, together covering every stamp kind
FD_BENCH_DC = """jacobian bench dc
v_1 a 0 2.5
r_1 a b 1k
d_1 b 0 zen
m_1 c b d 0 nmod wl=2.0
r_2 c 0 10k
r_3 a c 22k
xmr_1 a d mem w0=0.4
r_4 d 0 4.7k
.model zen zener
.model nmod mosfet type=n
.model mem memristor
"""

FD_BENCH_TRAN = """jacobian bench tran
v_s a 0 pwl(0 0 1u 2)
r_1 a b 1k
c_1 b 0 1u
xmr_1 b c mem w0=0.6
r_2 c 0 2k
d_1 0 c zen
.model mem memristor k=1e6
.model zen zener
"""


def mosfet_boundary_distance(e, xs):
    """Distance of a trial point from the nearest C1 kink of one MOSFET."""
    p = e.params
    vd, vg, vs, vb = (xs[i] for i in e.slots)
    vgs, vds, vsb = vg - vs, vd - vs, vs - vb
    if p.polarity == "p":
        vgs, vds, vsb = -vgs, -vds, -vsb
    if vds < 0.0:
        vgs, vds, vsb = vgs - vds, -vds, vsb + vds
    body = p.phi2 + vsb
    vth = p.vth0 + p.gamma * (math.sqrt(max(body, 0.0)) - math.sqrt(p.phi2))
    vov = vgs - vth
    return min(abs(vds), abs(body), abs(vov), abs(vov - vds))


def zener_bias_sane(e, xs):
    """Reject draws that shove a junction volts past its forward knee.

    A forward exponential that far up dwarfs every other term in its KCL
    row and turns the central difference into ulp noise; the solver's
    junction limiting never lets an iterate get there either.
    """
    a, b = e.slots
    return -3.0 < xs[a] - xs[b] < 0.75


def fd_jacobian_check(circuit, ctx_maker, rng, n_points,
                      rel=1e-6, floor=1e-8):
    """Compare assembled Jacobians against central differences.

    Draws node voltages uniformly in [-1.5, 1.5] (memristor states in
    [0.05, 0.95]), rejecting points within 1e-3 of a device's piecewise
    boundary, and asserts entrywise agreement to ``rel`` relative with an
    absolute ``floor``. Returns the number of points checked.
    """
    sys_ = solver._System(circuit)
    mosfets = [e for e in sys_.elements if e.kind == "m"]
    zeners = [e for e in sys_.elements if e.kind == "d"]
    checked = 0
    while checked < n_points:
        # iterate slots, the last one ground
        xs = [float(rng.uniform(-1.5, 1.5)) for _ in range(sys_.n)] + [0.0]
        for i in range(sys_.n)[sys_.states]:
            xs[i] = float(rng.uniform(0.05, 0.95))
        if any(mosfet_boundary_distance(e, xs) < 1e-3 for e in mosfets):
            continue
        if not all(zener_bias_sane(e, xs) for e in zeners):
            continue
        jac, res, _, _, _ = sys_.assemble(xs, ctx_maker())
        h = 1e-7
        fd = np.empty_like(jac)
        for j in range(sys_.n):
            xp = list(xs)
            xm = list(xs)
            xp[j] += h
            xm[j] -= h
            _, rp, _, _, _ = sys_.assemble(xp, ctx_maker())
            _, rm, _, _, _ = sys_.assemble(xm, ctx_maker())
            fd[:, j] = (rp - rm) / (2 * h)
        scale = np.maximum(np.abs(jac), np.abs(fd))
        assert np.all(np.abs(fd - jac) <= rel * scale + floor)
        checked += 1
    return checked


def make_tran_ctx_maker(circuit, dt=1e-6, method="trapezoidal"):
    """Context factory for transient-mode FD checks, seeded from the DC op.

    The companion memory is the record of an assembly at the operating
    point, as the transient's first step sees it.
    """
    op = solver.dc_operating_point(circuit)
    sys_ = solver._System(circuit)
    prev = [op.raw[k] for k in sys_.keys] + [0.0]
    _, _, _, hist, _ = sys_.assemble(prev, devices.StampContext(
        levels=sys_.levels()))
    levels = sys_.levels(dt)
    h, carry = devices.integration(method, dt)

    def ctx_maker():
        return devices.StampContext(h=h, carry=carry, levels=levels,
                                    prev_step=list(prev), hist=list(hist))
    return ctx_maker
