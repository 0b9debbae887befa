"""Random netlists through every analysis.

Each drawn circuit has one to four nodes, each with a resistor to ground
or to an earlier node (so every node has a DC path), one DC source to
sweep and up to five more R/C/V/D/M/XMR elements between random
terminals. The operating point, a short DC sweep and a ten-step
transient must each either converge, the operating point with every
residual inside its tolerance, or raise a named ``DtlsimError``: any
other exception (a numpy ``RuntimeWarning`` among them) fails the test.
No analysis may stamp more often than the homotopy ladder allows.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dtlsim import devices, solver
from dtlsim.errors import DtlsimError
from dtlsim.netlist import parse_netlist

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
    lines = ["fuzz"]
    for i, nd in enumerate(nodes):
        lines.append(f"r_s{i} {nd} {draw(st.sampled_from(['0'] + nodes[:i]))} "
                     f"{draw(_decades(1, 6))}")
    lines.append(f"v_1 {draw(st.sampled_from(nodes))} 0 {draw(_num(-6, 6))}")
    cards = {
        "r": lambda: f"{draw(pair)} {draw(_decades(1, 6))}",
        "c": lambda: f"{draw(pair)} {draw(_decades(-12, -6))}",
        "v": lambda: f"{draw(pair)} " + draw(st.sampled_from([
            draw(_num(-6, 6)),
            f"pwl(0 0 5u {draw(_num(-6, 6))})"])),
        "d": lambda: f"{draw(pair)} zen",
        "m": lambda: " ".join(draw(terminal) for _ in range(4))
        + f" {draw(st.sampled_from(['nmod', 'pmod']))} wl={draw(_num(0.5, 4))}",
        "xmr": lambda: f"{draw(pair)} mem w0={draw(_num(0.0, 1.0))}",
    }
    kinds = draw(st.lists(st.sampled_from(sorted(cards)), max_size=5))
    lines += [f"{kind}_e{k} {cards[kind]()}" for k, kind in enumerate(kinds)]
    return "\n".join(lines) + "\n" + MODELS


def _stamp_bound(points: int, elements: int,
                 options: solver.SolverOptions) -> int:
    """Stamp calls of ``points`` solves that each walk every rung of every
    strategy to the iteration limit; the rungs are those ``_strategies``
    yields for any circuit."""
    system = solver._System(parse_netlist("rungs\nv_1 a 0 1\nr_1 a 0 1k\n"))
    solves = sum(len(rungs) for _, _, rungs
                 in solver._strategies(system, system.start, options))
    return points * solves * (options.max_newton_iters + 1) * elements


# a junction the source drives far past its knee: junction limiting must
# not let a linearized residual end Newton
@example("fuzz\nr_s0 n0 0 10\nv_1 n0 0 1\nd_e0 n0 0 zen\n" + MODELS,
         "backward-euler")
@seed(20261018)
@settings(max_examples=150)
@given(netlists(), st.sampled_from(["backward-euler", "trapezoidal"]))
def test_random_netlists_converge_or_raise_named_errors(text, method):
    circuit = parse_netlist(text)
    options = solver.SolverOptions()
    level = next(e for e in circuit.elements if e.name == "v_1").params.value()
    stamp, calls = devices.stamp, [0]

    def counted(elem, x, ctx, out):
        calls[0] += 1
        return stamp(elem, x, ctx, out)

    def run(analysis, points):
        calls[0] = 0
        try:
            with mock.patch.object(devices, "stamp", counted):
                result = analysis()
        except DtlsimError:
            result = None
        assert calls[0] <= _stamp_bound(points, len(circuit.elements),
                                        options), text
        return result

    op = run(lambda: solver.dc_operating_point(circuit, options), 1)
    if op is not None:
        for key, (res, tol) in solver.residual_report(circuit, op).items():
            assert res <= tol, (text, key, res, tol)
        for e in circuit.elements:   # DC holds every state at w0
            if e.kind == "xmr":
                assert op.raw[("w", e.name)] == e.params.w0

    sweep = run(lambda: solver.dc_sweep(circuit, "v_1", level - 1.0,
                                        level + 1.0, 0.5, options), 5)
    if sweep is not None:
        assert all(np.isfinite(col).all() for col in sweep.voltages.values())

    tr = run(lambda: solver.transient(circuit, 1e-5, 1e-6, method, options),
             11)
    if tr is not None:
        assert len(tr.times) == 11
        assert all(np.isfinite(col).all() for col in tr.voltages.values())
        assert all(((w >= 0.0) & (w <= 1.0)).all() for w in tr.states.values())
