"""Shared test helpers: directive-driven runs, hypothesis settings, the
finite-difference Jacobian harness and the KCL judge used by both the
solver tests and the acceptance gate, and a fresh interpreter on the
tests' own sources."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings

import dtlsim
from dtlsim import devices, solver
from dtlsim.devices import (memristance, memristor_state_rate,
                            mosfet_ids_grad, zener_ig)

settings.register_profile(
    "dtlsim",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dtlsim")


def dc_from_directive(circuit):
    """Run the first .dc directive embedded in a circuit."""
    for d in circuit.analyses:
        if d.kind == "dc":
            return solver.dc_sweep(circuit, d.source, d.start, d.stop, d.step)
    raise AssertionError("circuit has no .dc directive")


def run_fresh(code: str, *args: str, cwd) -> subprocess.CompletedProcess:
    """Run ``python -c code *args`` in cwd, importing dtlsim from the
    sources these tests import."""
    src = str(Path(dtlsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def tran_from_directive(circuit):
    """Run the first .tran directive embedded in a circuit."""
    for d in circuit.analyses:
        if d.kind == "tran":
            return solver.transient(circuit, d.tstop, d.dt)
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
    absolute ``floor``. Each point is assembled as the solver's first
    assembly of a point is, with the last iterate the iterate itself.
    Returns the number of points checked.
    """
    sys_ = solver._System(circuit)

    def assemble(x):
        ctx = ctx_maker()
        ctx.prev_iter = x
        return sys_.assemble(x, ctx)
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
        jac, res, _, _, _ = assemble(xs)
        h = 1e-7
        fd = np.empty_like(jac)
        for j in range(sys_.n):
            xp = list(xs)
            xm = list(xs)
            xp[j] += h
            xm[j] -= h
            _, rp, _, _, _ = assemble(xp)
            _, rm, _, _, _ = assemble(xm)
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
        levels=sys_.levels(), prev_iter=prev))
    levels = sys_.levels(dt)
    h, carry = devices.integration(method, dt)

    def ctx_maker():
        return devices.StampContext(h=h, carry=carry, levels=levels,
                                    prev_step=list(prev), hist=list(hist))
    return ctx_maker


def _rows(circuit, v, levels, step, last, abstol):
    """The equations of one solved point and its companion memory.

    The equations are (row, terms, absolute tolerance): KCL at every node
    that no voltage source touches, each source's voltage equation and, in
    a transient ``step`` (h, carry, last voltages, states, last states) of
    the rule x1 - x0 = h*(f1 + carry*f0), each memristor's state equation
    w - w_last - h*(rate + carry*rate_last); ``abstol`` holds the absolute
    tolerance of each kind of row, keyed as the solver's ``_ABSTOL`` is.
    The memory maps each capacitor to its current, c*dv/h - carry*i_last
    (0 in DC), and each memristor to its state rate (at w0 in DC); ``last``
    is the previous point's.
    """
    h, carry, v_last, w_now, w_last = step or (0.0, 0.0, None, None, None)
    kcl, rows, sourced, memory = {}, [], {"0"}, {}
    for e in circuit.elements:
        p, nodes = e.params, e.nodes
        if e.kind == "v":
            sourced.update(nodes)
            rows.append((e.name, (v[nodes[0]], -v[nodes[1]], -levels[e.name]),
                         abstol["i"]))
            continue
        a, b = (nodes[0], nodes[2]) if e.kind == "m" else nodes
        vab = v[a] - v[b]
        if e.kind == "m":   # drain current into the drain, out of the source
            vd, vg, vs, vb = (v[nd] for nd in nodes)
            i = mosfet_ids_grad(p, vg - vs, vd - vs, vs - vb)[0]
        elif e.kind == "r":
            i = vab / p.resistance
        elif e.kind == "d":
            i = zener_ig(p, vab)[0]
        elif e.kind == "c":   # open in DC
            i = 0.0
            if h:
                i = (p.capacitance * (vab - (v_last[a] - v_last[b])) / h
                     - carry * last[e.name])
            memory[e.name] = i
        else:   # memristor, held at w0 in DC
            w = w_now[e.name] if h else p.w0
            i = vab / memristance(p, w)
            rate = memory[e.name] = memristor_state_rate(p, w, i)
            if h:
                rows.append((e.name, (w - w_last[e.name], -h * rate,
                                      -h * carry * last[e.name]),
                             abstol["w"]))
        kcl.setdefault(a, []).append(i)
        kcl.setdefault(b, []).append(-i)
    return rows + [(nd, terms, abstol["v"]) for nd, terms in kcl.items()
                   if nd not in sourced], memory


def kcl_judge(circuit, result, overrides=None, rules=None):
    """Worst |residual| / tolerance over every point of a solved result,
    and where it was, recomputed from ``circuit.elements`` and the public
    device equations alone, against the solver's own tolerance: abstol +
    reltol * the sum of the row's term magnitudes.

    ``result`` is an OpPoint (solved with ``overrides``), a SweepResult or
    a TransientResult, whose t=0 row is a DC point and each of whose steps
    is judged under its integration rule in ``rules`` (one per row, the
    result's own ``rules`` unless given); each step reads the companion
    memory of the row before it. The tolerances are the solver's
    constants, read at each call.
    """
    reltol, abstol = solver._RELTOL, solver._ABSTOL
    sources = [e for e in circuit.elements if e.kind == "v"]

    def levels(t=0.0, fixed=None):
        fixed = fixed or {}
        return {e.name: fixed.get(e.name, e.params.value(t)) for e in sources}

    def row(table, k):   # with ground, which no state is named
        return {"0": 0.0} | {name: float(col[k]) for name, col in table.items()}

    if isinstance(result, solver.SweepResult):
        points = [(f"{result.source}={x:.6g}", levels(fixed={result.source: x}),
                   row(result.voltages, k), None)
                  for k, x in enumerate(result.inputs.tolist())]
    elif isinstance(result, solver.TransientResult):
        times, vs, ws = result.times.tolist(), result.voltages, result.states
        rules = result.rules if rules is None else rules
        assert len(rules) == len(times), (len(rules), len(times))
        points = [(f"t={t:.6g}s", levels(t), row(vs, k), None if k == 0 else
                   (*devices.integration(rules[k], times[1]), row(vs, k - 1),
                    row(ws, k), row(ws, k - 1)))
                  for k, t in enumerate(times)]
    else:
        points = [("op", levels(fixed=overrides), {"0": 0.0} | result, None)]
    worst, memory = (0.0, ""), {}
    for label, level, v, step in points:
        rows, memory = _rows(circuit, v, level, step, memory, abstol)
        for name, terms, floor in rows:
            tol = floor + reltol * sum(map(abs, terms))
            worst = max(worst, (abs(sum(terms)) / tol, f"{label} {name}"))
    return worst
