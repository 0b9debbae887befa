"""Random netlists through every analysis.

Each drawn circuit has one to four nodes, each with a resistor to ground
or to an earlier node (so every node has a DC path), one DC source to
sweep and up to five more R/C/V/D/M/XMR elements between random
terminals; a voltage source is drawn only between terminals that no
sources join yet, so no draw is a loop of sources and every circuit
passes the structural checks. The operating point, a short DC sweep
and a ten-step transient must each either converge, every point of it
(each step of a backward-Euler transient) passing the KCL judge, or
raise a named ``DtlsimError``: any other exception (a numpy
``RuntimeWarning`` among them) fails the test. No analysis may stamp more often than the homotopy
ladder allows. The paper's cells, with drawn supplies and w0, are held
to the same bound and judge, must all converge, and gmin stepping must
win some of their points.
"""

import collections
from unittest import mock

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dtlsim import cells, devices, solver
from dtlsim.errors import DtlsimError
from dtlsim.netlist import parse_netlist

from conftest import kcl_judge

MODELS = """.model zen zener
.model nmod mosfet type=n
.model pmod mosfet type=p
.model mem memristor k=1e6
"""


def _num(lo, hi):
    return st.floats(lo, hi).map(lambda v: f"{v:.4g}")


def _decades(lo, hi):
    """Values spread evenly over the decades from 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda e: f"{10.0 ** e:.4g}")


@st.composite
def netlists(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    terminal = st.sampled_from(nodes + ["0"])
    pair = st.lists(terminal, min_size=2, max_size=2, unique=True).map(
        " ".join)
    # terminal -> the set of terminals that voltage sources join it to
    joined = {nd: {nd} for nd in nodes + ["0"]}

    def source_pair(a, b):   # the two joined sets become one
        union = joined[a] | joined[b]
        for nd in union:
            joined[nd] = union
        return f"{a} {b}"
    lines = ["fuzz"]
    for i, nd in enumerate(nodes):
        lines.append(f"r_s{i} {nd} {draw(st.sampled_from(['0'] + nodes[:i]))} "
                     f"{draw(_decades(1, 6))}")
    lines.append(f"v_1 {source_pair(draw(st.sampled_from(nodes)), '0')} "
                 f"{draw(_num(-6, 6))}")

    def vsource():   # between two terminals that no sources join yet
        free = [(a, b) for a in joined for b in joined if b not in joined[a]]
        if not free:   # every terminal is joined: no card
            return None
        a, b = draw(st.sampled_from(free))
        return f"{source_pair(a, b)} " + draw(st.sampled_from([
            draw(_num(-6, 6)), f"pwl(0 0 5u {draw(_num(-6, 6))})"]))
    cards = {
        "r": lambda: f"{draw(pair)} {draw(_decades(1, 6))}",
        "c": lambda: f"{draw(pair)} {draw(_decades(-12, -6))}",
        "v": vsource,
        "d": lambda: f"{draw(pair)} zen",
        "m": lambda: " ".join(draw(terminal) for _ in range(4))
        + f" {draw(st.sampled_from(['nmod', 'pmod']))} wl={draw(_num(0.5, 4))}",
        "xmr": lambda: f"{draw(pair)} mem w0={draw(_num(0.0, 1.0))}",
    }
    kinds = draw(st.lists(st.sampled_from(sorted(cards)), max_size=5))
    for k, kind in enumerate(kinds):
        card = cards[kind]()
        if card is not None:
            lines.append(f"{kind}_e{k} {card}")
    return "\n".join(lines) + "\n" + MODELS


def _stamp_bound(points: int, elements: int) -> int:
    """Stamp calls of ``points`` solves that each walk every rung of every
    strategy of the solver's ladder to the iteration limit."""
    solves = sum(len(rungs) for _, rungs in solver._LADDER)
    return points * solves * (solver._MAX_NEWTON_ITERS + 1) * elements


def _bounded(circuit, analysis, points: int, label: str):
    """The result of ``analysis()``, or None if it raised a named
    ``DtlsimError``; either way it stamped within ``_stamp_bound``."""
    stamp, calls = devices.stamp, [0]

    def counted(elem, x, ctx, out):
        calls[0] += 1
        return stamp(elem, x, ctx, out)
    try:
        with mock.patch.object(devices, "stamp", counted):
            result = analysis()
    except DtlsimError:
        result = None
    assert calls[0] <= _stamp_bound(points, len(circuit.elements)), label
    return result


def _judged(circuit, result, label: str) -> None:
    worst = kcl_judge(circuit, result)
    assert worst[0] <= 1.0, (label, worst)


# a junction the source drives far past its knee: junction limiting must
# not let a linearized residual end Newton
@example("fuzz\nr_s0 n0 0 10\nv_1 n0 0 1\nd_e0 n0 0 zen\n" + MODELS,
         "backward-euler")
@seed(20261018)
@settings(max_examples=150)
@given(netlists(), st.sampled_from(["backward-euler", "trapezoidal"]))
def test_random_netlists_converge_or_raise_named_errors(text, method):
    circuit = parse_netlist(text)
    solver._System(circuit)   # the structural checks pass
    level = next(e for e in circuit.elements if e.name == "v_1").params.value()

    def run(analysis, points):
        return _bounded(circuit, analysis, points, text)

    def judged(result):
        _judged(circuit, result, text)

    op = run(lambda: solver.dc_operating_point(circuit), 1)
    if op is not None:
        judged(op)
        for e in circuit.elements:   # DC holds every state at w0
            if e.kind == "xmr":
                assert op.raw[("w", e.name)] == e.params.w0

    sweep = run(lambda: solver.dc_sweep(circuit, "v_1", level - 1.0,
                                        level + 1.0, 0.5), 5)
    if sweep is not None:
        assert all(np.isfinite(col).all() for col in sweep.voltages.values())
        judged(sweep)

    tr = run(lambda: solver.transient(circuit, 1e-5, 1e-6, method), 11)
    if tr is not None:
        assert len(tr.times) == 11
        assert all(np.isfinite(col).all() for col in tr.voltages.values())
        assert all(((w >= 0.0) & (w <= 1.0)).all() for w in tr.states.values())
        if method == "backward-euler":
            judged(tr)


@st.composite
def reference_cells(draw):
    """(label, circuit, method) of one of the paper's cells with drawn
    parameters: a detector with every ``DetectorConfig`` field drawn, a
    spike or saturation cell at any supply and w0, each swept by its own
    ``.dc`` directive (method None), or an XOR neuron whose four phases
    are 20 steps each, integrated by either method."""
    kind = draw(st.sampled_from(["detector", "spike", "saturation", "xor"]))
    if kind == "detector":
        magnitudes = {name: draw(st.floats(0.0, 3.0)) for name in
                      ("vss1", "vss2", "bulk_p1", "bulk_n1", "bulk_n2")}
        config = cells.DetectorConfig(
            vdd1=draw(st.floats(0.5, 3.0)), vdd2=draw(st.floats(0.5, 3.0)),
            w0=draw(st.floats(0.0, 1.0)), **magnitudes)
        return repr(config), cells.build_intensity_detector(config), None
    if kind == "xor":
        vdd, w0 = draw(st.floats(3.0, 9.0)), draw(st.floats(0.2, 0.8))
        method = draw(st.sampled_from(["backward-euler", "trapezoidal"]))
        return (f"xor vdd={vdd!r} w0={w0!r} {method}", cells.build_xor_circuit(
            vdd, w0, phase=2e-5, edge=1e-6, dt=1e-6), method)
    vdd, w0 = draw(st.floats(1.0, 9.0)), draw(st.floats(0.0, 1.0))
    build = (cells.build_spike_cell if kind == "spike"
             else cells.build_saturation_cell)
    return f"{kind} vdd={vdd!r} w0={w0!r}", build(vdd=vdd, w0=w0), None


def test_reference_cells_converge_across_the_ladder():
    # drawn supplies and w0 of the paper's cells, within the stamp bound:
    # in these ranges every analysis converges (none raises even a named
    # error) and every point passes the KCL judge; gmin stepping wins
    # points of these cells (the detector's first sweep point, the XOR's
    # t=0 operating point among them)
    won = collections.Counter()

    @seed(20261019)
    @settings(max_examples=40)
    @given(reference_cells())
    def check(case):
        label, circuit, method = case
        if method is None:
            d = next(d for d in circuit.analyses if d.kind == "dc")
            result = _bounded(circuit, lambda: solver.dc_sweep(
                circuit, d.source, d.start, d.stop, d.step),
                solver.sweep_points(d.start, d.stop, d.step).size, label)
        else:
            d = next(d for d in circuit.analyses if d.kind == "tran")
            result = _bounded(circuit, lambda: solver.transient(
                circuit, d.tstop, d.dt, method),
                solver.sweep_points(0.0, d.tstop, d.dt).size, label)
        assert result is not None, label
        won.update(result.strategies)
        if method != "trapezoidal":
            _judged(circuit, result, label)
    check()
    assert won["gmin-stepping"] >= 1, won
