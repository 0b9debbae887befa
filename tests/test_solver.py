"""Solver oracles: exact linear algebra, bisection, analytic RC, reference
state integration, and finite-difference Jacobian checks."""

import importlib
import math
import random
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
import scipy.integrate
import scipy.optimize

from dtlsim import cells, devices, solver
from dtlsim.devices import StampContext, ZenerParams, zener_ig
from dtlsim.errors import NoConvergence, SingularMatrix
from dtlsim.imaging import gen_gaussian_image, write_pgm
from dtlsim.netlist import Circuit, parse_netlist
from dtlsim.solver import dc_operating_point, dc_sweep, sweep_points, transient

from conftest import (FD_BENCH_DC, FD_BENCH_TRAN, fd_jacobian_check,
                      kcl_judge, make_tran_ctx_maker, run_fresh)

DIVIDER = """divider
v_1 in 0 6.0
r_1 in mid 1k
r_2 mid 0 2k
"""

DIODE = """diode bench
v_1 in 0 5.0
r_1 in d 10k
d_1 d 0 zen
.model zen zener
"""

RC_STEP = """rc charge
v_s in 0 pwl(0 0 1n 1)
r_1 in out 1k
c_1 out 0 1u
"""

# same network driven by a ramp spanning exactly tau; the sub-dt edge of
# RC_STEP pins both integrators to the same sampling artifact, so order
# comparisons need an edge-free drive
RC_RAMP = """rc ramp
v_s in 0 pwl(0 0 1m 1)
r_1 in out 1k
c_1 out 0 1u
"""


# --- linear exactness ---------------------------------------------------------

def test_divider_exact_in_one_iteration():
    op = dc_operating_point(parse_netlist(DIVIDER))
    assert abs(op["mid"] - 4.0) <= 1e-9
    assert abs(op["in"] - 6.0) <= 1e-9
    assert op.iterations == 1
    assert op.strategy == "newton"
    # branch current through the source: 6 V over 3 kOhm, into the + node
    assert op.raw[("i", "v_1")] == pytest.approx(-2e-3, rel=1e-9)


def test_kcl_judge_flags_a_point_off_the_solution():
    c = parse_netlist(DIVIDER)
    op = dc_operating_point(c)
    assert kcl_judge(c, op)[0] <= 1.0
    # mid 10 mV off breaks its KCL by 15 uA, past 1 nA + 1e-3 * 4 mA; both
    # nodes 3% up keep it but break the source's equation by 0.18 V, as does
    # another level than the one the point was solved at
    for point, overrides, row in (
            ({**op, "mid": op["mid"] + 0.01}, None, "op mid"),
            ({nd: 1.03 * v for nd, v in op.items()}, None, "op v_1"),
            (op, {"v_1": 3.0}, "op v_1")):
        ratio, where = kcl_judge(c, point, overrides=overrides)
        assert ratio > 1.0 and where == row, (ratio, where)


# --- diode vs bisection --------------------------------------------------------

def test_diode_operating_point_vs_bisection():
    c = parse_netlist(DIODE)
    op = dc_operating_point(c)
    p = ZenerParams()

    def kcl(vd):
        return (5.0 - vd) / 10e3 - zener_ig(p, vd)[0]

    vd_ref = scipy.optimize.brentq(kcl, 0.0, 5.0, xtol=1e-15, rtol=1e-15)
    assert op["d"] == pytest.approx(vd_ref, abs=1e-6)


def test_zener_breakdown_operating_point_vs_bisection():
    text = """zener clamp
v_1 in 0 6.0
r_1 in z 10k
d_1 0 z zen
.model zen zener
"""
    op = dc_operating_point(parse_netlist(text))
    p = ZenerParams()

    def kcl(vz):
        # current into node z from the resistor equals current z -> ground
        # through the reversed diode, i.e. -i_diode(-vz)
        return (6.0 - vz) / 10e3 + zener_ig(p, -vz)[0]

    vz_ref = scipy.optimize.brentq(kcl, 0.0, 6.0, xtol=1e-15, rtol=1e-15)
    assert op["z"] == pytest.approx(vz_ref, abs=1e-6)
    assert 3.9 < op["z"] < 4.3


# --- RC transient vs analytic ---------------------------------------------------

def _rc_error_at_tau(text: str, exact: float, method: str) -> float:
    tau = 1e-3
    tr = transient(parse_netlist(text), tstop=tau, dt=tau / 100.0,
                   method=method)
    return abs(tr.column("out")[-1] - exact) / exact


def test_rc_backward_euler_within_1pct():
    err = _rc_error_at_tau(RC_STEP, 1.0 - math.exp(-1.0), "backward-euler")
    assert err < 0.01


def test_trapezoidal_at_least_4x_better():
    # v(tau) for a 0..1 ramp over exactly tau is e^-1
    be = _rc_error_at_tau(RC_RAMP, math.exp(-1.0), "backward-euler")
    trap = _rc_error_at_tau(RC_RAMP, math.exp(-1.0), "trapezoidal")
    assert be < 0.01
    assert trap < be / 4.0


def test_transient_starts_from_dc_op():
    tr = transient(parse_netlist(RC_STEP), tstop=1e-4, dt=1e-5)
    assert tr.times[0] == 0.0
    assert tr.column("out")[0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(np.diff(tr.times), 1e-5)
    assert tr.strategies == len(tr.times) * ["newton"]


@pytest.mark.parametrize("method", ["backward-euler", "trapezoidal"])
@pytest.mark.parametrize("circuit, tstop, dt", [
    (cells.build_xor_circuit(phase=2e-5, edge=1e-6, dt=1e-6), 8e-5, 1e-6),
    (parse_netlist("rc\nv_s in 0 pwl(0 0.7 1u 1)\nr_1 in out 1k\n"
                   "c_1 out 0 1n\n"), 1e-5, 1e-7),
], ids=["xor", "rc"])
def test_transient_t0_row_is_the_operating_point(circuit, tstop, dt, method):
    tr = transient(circuit, tstop, dt, method=method)
    op = dc_operating_point(circuit)
    assert {k: tr.voltages[k][0].hex() for k in tr.voltages} \
        == {k: v.hex() for k, v in op.items()}
    assert {k: tr.states[k][0].hex() for k in tr.states} \
        == {k[1]: v.hex() for k, v in op.raw.items() if k[0] == "w"}
    assert tr.iterations[0] == op.iterations
    assert tr.strategies[0] == op.strategy


def test_transient_records_strategies_from_t0():
    # the XOR cell's t=0 operating point falls back to gmin stepping
    c = cells.build_xor_circuit()
    d = next(d for d in c.analyses if d.kind == "tran")
    tr = transient(c, 10 * d.dt, d.dt)
    assert len(tr.strategies) == len(tr.iterations) == len(tr.times) == 11
    assert tr.strategies == ["gmin-stepping"] + 10 * ["newton"]


def test_transient_checks_the_circuit_once(monkeypatch):
    c = cells.build_xor_circuit()
    d = next(d for d in c.analyses if d.kind == "tran")
    calls = {"validate": 0, "_check_dc_paths": 0, "_check_source_loops": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(Circuit, "validate",
                        counted("validate", Circuit.validate))
    for name in ("_check_dc_paths", "_check_source_loops"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    tr = transient(c, 10 * d.dt, d.dt)
    assert calls == {"validate": 1, "_check_dc_paths": 1,
                     "_check_source_loops": 1}
    # the memristor states are numbered after the DC unknowns
    assert list(tr.states) == [e.name for e in c.elements if e.kind == "xmr"]


# --- sweeps ---------------------------------------------------------------------

def test_sweep_points_counts():
    assert np.allclose(sweep_points(0.0, 6.0, 1.5), [0, 1.5, 3, 4.5, 6])
    # inclusive endpoint despite float division
    assert len(sweep_points(0.0, 0.3, 0.1)) == 4
    assert len(sweep_points(0.0, 6.0, 0.05)) == 121
    assert len(sweep_points(0.0, 999999.0, 1.0)) == 10**6
    assert len(sweep_points(0.0, 1.0, 2.0)) == 1   # a step past stop
    for start, stop, step in ((1.0, 0.0, 0.1), (0.0, 0.0, 0.1),
                              (0.0, 1.0, 0.0), (0.0, math.nan, 0.1)):
        with pytest.raises(ValueError, match="range needs"):
            sweep_points(start, stop, step)


@pytest.fixture
def tight(monkeypatch):
    """Default tolerances leave ~1e-5 of slack between differently seeded
    Newton runs; comparisons against pointwise solutions need the residual
    pushed down: reltol 1e-9, 1e-9 V on source rows, 1e-12 A on KCL rows."""
    monkeypatch.setattr(solver, "_RELTOL", 1e-9)
    monkeypatch.setattr(solver, "_ABSTOL", {"v": 1e-12, "i": 1e-9, "w": 1e-12})


def test_sweep_matches_pointwise_ops(tight):
    c = parse_netlist(DIODE)
    s = dc_sweep(c, "v_1", 0.0, 5.0, 1.0)
    assert len(s.inputs) == 6
    for val, vd in zip(s.inputs.tolist(), s.column("d")):
        at = parse_netlist(DIODE.replace("v_1 in 0 5.0", f"v_1 in 0 {val!r}"))
        assert vd == pytest.approx(dc_operating_point(at)["d"], abs=1e-8)


def test_sweep_argument_validation():
    c = parse_netlist(DIODE)
    with pytest.raises(ValueError):
        dc_sweep(c, "r_1", 0.0, 1.0, 0.1)     # not a source
    with pytest.raises(ValueError, match="'v_nope' is not a DC voltage source"):
        dc_sweep(c, "v_nope", 0.0, 1.0, 0.1)  # no such element
    for unhashable in (["v_1"], {"v_1"}):
        with pytest.raises(ValueError, match="is not a DC voltage source"):
            dc_sweep(c, unhashable, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        dc_sweep(c, "v_1", 1.0, 0.0, 0.1)     # descending
    with pytest.raises(ValueError):
        dc_sweep(c, "v_1", 0.0, 1.0, -0.1)
    for start, stop, step in ((-math.inf, 1.0, 0.1), (0.0, math.inf, 0.1),
                              (0.0, 1.0, math.inf), (math.nan, 1.0, 0.1),
                              (0.0, 1.0, math.nan), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError):
            dc_sweep(c, "v_1", start, stop, step)
    with pytest.raises(ValueError, match="1000001 points"):
        dc_sweep(c, "v_1", 0.0, 1.0, 1e-6)
    assert len(dc_sweep(c, "v_1", 0.0, 1.0, 2.0).inputs) == 1


# --- failure modes ----------------------------------------------------------------

def test_floating_node_named():
    text = "t\nv_1 a 0 5\nr_1 a 0 1k\nr_2 b c 1k\n"
    with pytest.raises(SingularMatrix) as ei:
        dc_operating_point(parse_netlist(text))
    assert ei.value.node == "b"
    assert "'b'" in str(ei.value)


def test_missing_ground_named():
    with pytest.raises(SingularMatrix):
        dc_operating_point(parse_netlist("t\nv_1 a b 5\nr_1 a b 1k\n"))


def test_capacitor_only_path_floats_in_dc():
    # a node reachable only through a capacitor has no DC level, and the
    # t=0 row of a transient is a DC solve, so both analyses refuse it
    text = "t\nv_1 a 0 5\nr_1 a 0 1k\nc_1 a b 1u\nr_2 b c 1k\n"
    with pytest.raises(SingularMatrix) as ei:
        dc_operating_point(parse_netlist(text))
    assert ei.value.node == "b"
    with pytest.raises(SingularMatrix):
        transient(parse_netlist(text), tstop=1e-6, dt=1e-7)


@pytest.mark.parametrize("text, loop", [
    ("parallel\nv_1 a 0 1\nv_2 a 0 2\n", "v_1, v_2"),
    ("self\nv_1 a a 1\nr_1 a 0 1k\n", "v_1"),
    ("ring\nv_1 a 0 1\nv_2 a b 1\nv_3 b 0 1\n", "v_1, v_2, v_3"),
])
def test_voltage_source_loop_named(text, loop, monkeypatch):
    def no_newton(*args):
        raise AssertionError("Newton ran on a structurally singular circuit")
    monkeypatch.setattr(solver, "_newton", no_newton)
    c = parse_netlist(text)
    for run in (lambda: dc_operating_point(c),
                lambda: dc_sweep(c, "v_1", 0.0, 1.0, 0.5),
                lambda: transient(c, 1e-6, 1e-7)):
        with pytest.raises(SingularMatrix,
                           match=f"^voltage sources {loop} form a loop$"):
            run()


def test_voltage_sources_without_loop_solve():
    # in series with a resistor, and in a chain, sources form no loop
    for text, node, level in (("t\nv_1 a 0 1\nr_1 a b 1k\nv_2 b 0 2\n", "b", 2.0),
                              ("t\nv_1 a b 1\nv_2 b 0 2\nr_1 a 0 1k\n", "a", 3.0)):
        op = dc_operating_point(parse_netlist(text))
        assert op[node] == pytest.approx(level, abs=1e-12)
        assert op.strategy == "newton"


def test_singular_step_names_null_vector_unknown(monkeypatch):
    keys = [("v", "a"), ("v", "b"), ("i", "v_1")]
    jac = np.diag([1.0, 0.0, 1.0])
    # the error-state scope every analysis enters around its solves
    with np.errstate(all="ignore"), pytest.raises(SingularMatrix) as ei:
        solver._lu_solve(jac, np.ones(3), keys)
    assert ei.value.node == "b"
    # one overflowing component is enough: its tiny pivot's unknown is named
    with np.errstate(all="ignore"), pytest.raises(SingularMatrix) as ei:
        solver._lu_solve(np.diag([1.0, 1e-300, 1.0]), np.full(3, 1e10), keys)
    assert ei.value.node == "b"
    jac[0, 0] = math.nan   # the non-finite row is named
    with np.errstate(all="ignore"), pytest.raises(SingularMatrix) as ei:
        solver._lu_solve(jac, np.ones(3), keys)
    assert ei.value.node == "a"

    def no_svd(a):
        raise np.linalg.LinAlgError("SVD did not converge")
    jac[0, 0] = 1.0   # finite, but no SVD: the first unknown is named
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with np.errstate(all="ignore"), pytest.raises(
            SingularMatrix, match=r"^singular system at unknown \('v', 'a'\)$"
    ) as ei:
        solver._lu_solve(jac, np.ones(3), keys)
    assert ei.value.node == "a"


def test_lu_solve_equals_numpy_solve_bit_for_bit():
    # one LAPACK call gives the bits of np.linalg.solve, on contiguous
    # systems and on the non-contiguous [:n, :n] view that assemble returns
    rng = np.random.default_rng(20261019)
    for n in range(1, 21):
        keys = [("v", str(k)) for k in range(n)]
        full = rng.standard_normal((n + 1, n + 1))
        rhs = rng.standard_normal(n)
        view = full[:n, :n]
        assert n == 1 or not view.flags.c_contiguous
        for jac in (view, np.ascontiguousarray(view)):
            dx = solver._lu_solve(jac, rhs, keys)
            assert dx.tobytes() == np.linalg.solve(jac, rhs).tobytes(), n
            # linear in the right-hand side, bit for bit: Newton solves
            # J d = F for d = -dx
            assert (solver._lu_solve(jac, -rhs, keys).tobytes()
                    == (-dx).tobytes()), n


def test_analyses_leave_numpy_error_state_as_found():
    # each analysis ignores floating-point errors inside its own scope only,
    # whether it returns or raises
    detector = cells.build_intensity_detector(cells.DETECTOR_CONFIG_2)
    d = next(d for d in detector.analyses if d.kind == "dc")
    runs = [
        lambda: dc_sweep(detector, d.source, d.start, d.stop, d.step),
        lambda: transient(parse_netlist(RC_STEP), 1e-4, 1e-5),
        lambda: transient(cells.build_xor_circuit(phase=2e-5, edge=1e-6,
                                                  dt=1e-6), 1e-5, 1e-6),
        lambda: dc_operating_point(parse_netlist(DIODE))]
    failing = [   # a structural check, then a singular step inside Newton
        (SingularMatrix, "t\nv_1 a 0 1\nr_1 b c 1k\n"),
        (NoConvergence, "t\nv_1 a 0 1\nr_1 a b 1e-320\nr_2 b 0 1k\n")]
    with np.errstate(divide="raise", over="warn", under="print",
                     invalid="raise"):
        state = np.geterr()
        for run in runs:
            run()
            assert np.geterr() == state
        for error, text in failing:
            with pytest.raises(error):
                dc_operating_point(parse_netlist(text))
            assert np.geterr() == state


def test_singular_first_sweep_point_warns_nothing(monkeypatch):
    # the zero start of the detector's first sweep point gives a singular
    # Jacobian: plain Newton fails there without a RuntimeWarning and gmin
    # stepping wins the point. Newton solves J d = F, and its failure names
    # the unknown that the solve of the negated residual names
    singular, lu_solve = [], solver._lu_solve

    def recorded(jac, rhs, keys):
        try:
            return lu_solve(jac, rhs, keys)
        except SingularMatrix as exc:
            with pytest.raises(SingularMatrix) as negated:
                lu_solve(jac, -rhs, keys)
            singular.append((str(exc), str(negated.value), exc.node))
            raise
    monkeypatch.setattr(solver, "_lu_solve", recorded)
    c = cells.build_intensity_detector(cells.DETECTOR_CONFIG_2)
    d = next(d for d in c.analyses if d.kind == "dc")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = dc_sweep(c, d.source, d.start, d.stop, d.step)
    named = "singular system at unknown ('v', 'out')"
    assert singular == [(named, named, "out")]
    assert s.strategies[0] == "gmin-stepping"


def test_a_nan_residual_never_ends_newton(monkeypatch):
    # NaN fails every comparison: at the divider's own solution, where
    # Newton ends at once, a residual row of NaN ends nothing, and the
    # update it gives is not finite
    c = parse_netlist(DIVIDER)
    sys_ = solver._System(c)
    x = np.array([dc_operating_point(c).raw[k] for k in sys_.keys])
    ctx = StampContext(levels=sys_.levels())
    assert solver._newton(sys_, x, ctx)[1] == 0
    assemble = solver._System.assemble
    for row in range(sys_.n):
        calls = []

        def nan_once(self, xs, ctx):
            jac, res, *rest = assemble(self, xs, ctx)
            if not calls:
                res[row] = math.nan
            calls.append(row)
            return jac, res, *rest
        monkeypatch.setattr(solver._System, "assemble", nan_once)
        with np.errstate(all="ignore"), pytest.raises(SingularMatrix):
            solver._newton(sys_, x, StampContext(levels=sys_.levels()))
        assert calls == [row]


def test_non_finite_jacobian_is_named_without_svd(monkeypatch):
    # 1/R overflows to inf here; LAPACK's SVD of a matrix holding inf may
    # never return, so only a finite Jacobian may reach it
    svd = np.linalg.svd

    def finite_svd(a, *args, **kwargs):
        assert np.isfinite(a).all(), "SVD of a non-finite matrix"
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    for text in ("t\nv_1 a 0 1\nr_1 a b 1e-320\nr_2 b 0 1k\n",
                 "t\nv_1 a 0 1\nxmr_1 a b mem\nr_2 b 0 1k\n"
                 ".model mem memristor ron=1e-320 roff=1e-320\n"):
        with pytest.raises(NoConvergence,
                           match=r"singular system at unknown \('v', 'a'\)"):
            dc_operating_point(parse_netlist(text))


# run in a fresh interpreter: import a module, run the command if there
# is one, and list the dtlsim and scipy modules then loaded, and numpy
_LOADED = """\
import contextlib, importlib, io, sys
importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    from dtlsim.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[2:]) == 0
print(*sorted(m for m in sys.modules if m.startswith("dtlsim.")
              or m.split(".")[0] == "scipy" or m == "numpy"))
"""

_CIRCUIT = ("cells", "devices", "netlist", "solver")


@pytest.mark.parametrize("module, argv, layers", [
    ("dtlsim", [], ()),
    ("dtlsim.cli", [], ()),
    ("dtlsim.cli", ["calibrate-xor"], ("dendrite",)),
    ("dtlsim.cli", ["gen-gaussian", "--size", "33", "--out", "g.pgm"],
     ("imaging",)),
    ("dtlsim.cli", ["detector", "--config", "2"], _CIRCUIT),
    ("dtlsim.cli", ["xor"], _CIRCUIT),
    ("dtlsim.cli", ["segment", "blob.pgm", "--config", "2"],
     _CIRCUIT + ("imaging",)),
], ids=["import", "import-cli", "calibrate-xor", "gen-gaussian", "detector",
        "xor", "segment"])
def test_import_leaves_scipy_out(tmp_path, module, argv, layers):
    """``import dtlsim`` loads no layer, ``import dtlsim.cli`` no layer and
    no numpy (a ``dtlsim`` process turns the cycle collector off before
    numpy loads), each command only the layers it runs, and none of them
    loads scipy."""
    write_pgm(tmp_path / "blob.pgm", gen_gaussian_image(65))
    proc = run_fresh(_LOADED, module, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    expected = {"dtlsim.errors", *(f"dtlsim.{m}" for m in layers)}
    if module == "dtlsim.cli":
        expected.add("dtlsim.cli")
    if layers:   # every layer imports numpy
        expected.add("numpy")
    assert proc.stdout.split() == sorted(expected)


def test_failure_names_its_point(monkeypatch):
    solve, calls = solver._solve_point, []

    def third_fails(*args):
        calls.append(None)
        if len(calls) == 3:
            raise NoConvergence("stuck", residual=1.0)
        return solve(*args)
    monkeypatch.setattr(solver, "_solve_point", third_fails)
    c = parse_netlist("braces\nv_{x} a 0 1\nr_1 a 0 1k\n")
    with pytest.raises(NoConvergence,
                       match=r"^sweep failed at v_\{x\}=1: stuck$") as ei:
        dc_sweep(c, "v_{x}", 0.0, 2.0, 0.5)
    assert (ei.value.at, ei.value.residual) == (1.0, 1.0)
    calls.clear()   # the t=0 operating point is the first solve
    with pytest.raises(NoConvergence,
                       match=r"^transient failed at t=2e-06s: stuck$") as ei:
        transient(parse_netlist(RC_STEP), tstop=1e-5, dt=1e-6)
    assert (ei.value.at, ei.value.residual) == (2e-6, 1.0)
    calls.clear()
    calls += [None, None]   # the next solve, the t=0 operating point, fails
    with pytest.raises(NoConvergence,
                       match=r"^transient failed at t=0s: stuck$") as ei:
        transient(parse_netlist(RC_STEP), tstop=1e-5, dt=1e-6)
    assert (ei.value.at, ei.value.residual) == (0.0, 1.0)


def test_no_convergence_when_starved(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 1)
    with pytest.raises(NoConvergence):
        dc_operating_point(parse_netlist(DIODE))


def test_spike_cell_fails_named_at_ten_iterations(monkeypatch):
    # at ten iterations a rung, the spike cell's operating point fails
    # both strategies and the failure says so
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 10)
    with pytest.raises(NoConvergence, match=r"^operating point did not "
                       r"converge \(newton and gmin stepping both failed: "
                       r"no convergence after 10 Newton iterations") as ei:
        dc_operating_point(cells.build_spike_cell(0.3))
    assert ei.value.residual > 0.0


def test_no_point_is_solved_off_the_circuit(monkeypatch):
    # every strategy ends on the circuit itself, zero gmin; a homotopy
    # whose last rung fails gives no answer
    assert [(name, rungs[-1]) for name, rungs in solver._LADDER] == [
        ("newton", 0.0), ("gmin-stepping", 0.0)]
    newton, walked = solver._newton, []

    def circuit_fails(system, x, ctx):
        walked.append(ctx.gmin)
        if ctx.gmin == 0.0:
            raise NoConvergence("stuck", residual=1.0)
        return newton(system, x, ctx)
    monkeypatch.setattr(solver, "_newton", circuit_fails)
    with pytest.raises(NoConvergence, match=r"both failed: stuck\)$"):
        dc_operating_point(cells.build_saturation_cell())
    assert walked.count(0.0) == 2


def test_failure_names_its_kind_of_point(monkeypatch):
    # a sweep point or a time step past t=0 is no operating point; the
    # ramp's level tells the failing points apart. A sweep point walks the
    # ladder, so Newton runs twice there (plain, then the first gmin rung)
    # and the failure names both strategies; a time step runs plain Newton
    # once, and its failure names newton alone
    newton, walked = solver._newton, []

    def fails_at_level(system, x, ctx):
        if ctx.levels[0] == level:
            walked.append(ctx.gmin)
            raise NoConvergence("stuck", residual=1.0)
        return newton(system, x, ctx)
    monkeypatch.setattr(solver, "_newton", fails_at_level)
    ramp = parse_netlist(RC_RAMP)
    for level, run, point, failed, rungs in (
            (1.0, lambda: dc_sweep(parse_netlist(DIVIDER), "v_1", 0.0, 2.0,
                                   0.5),
             "sweep failed at v_1=1: sweep point",
             "newton and gmin stepping both failed", [0.0, 1e-3]),
            (ramp.elements[0].params.value(3e-6),
             lambda: transient(ramp, tstop=1e-5, dt=1e-6),
             "transient failed at t=3e-06s: time step", "newton failed",
             [0.0])):
        walked.clear()
        with pytest.raises(NoConvergence) as ei:
            run()
        assert str(ei.value) == f"{point} did not converge ({failed}: stuck)"
        assert ei.value.residual == 1.0
        assert walked == rungs


def test_one_step_transient_with_dt_equal_to_tstop():
    # dt == tstop is one step: the operating point's row and one
    # backward-Euler row, v1 = (v0 + a vin) / (1 + a) with a = dt / RC
    tr = transient(parse_netlist(RC_STEP), tstop=1e-5, dt=1e-5)
    assert tr.times.tolist() == [0.0, 1e-5]
    a = 1e-5 / 1e-3
    assert tr.column("out").tolist() == pytest.approx([0.0, a / (1.0 + a)],
                                                      rel=1e-9, abs=1e-12)


def test_transient_argument_validation():
    c = parse_netlist(RC_STEP)
    with pytest.raises(ValueError):
        transient(c, tstop=1e-3, dt=1e-3, method="euler-forward")
    with pytest.raises(ValueError):
        transient(c, tstop=0.0, dt=1e-5)
    with pytest.raises(ValueError):
        transient(c, tstop=1e-5, dt=1e-3)
    for tstop, dt in ((math.inf, 1e-6), (1e-3, math.nan), (math.nan, 1e-6),
                      (math.inf, math.inf), (1e300, 1e-300)):
        with pytest.raises(ValueError):
            transient(c, tstop=tstop, dt=dt)
    with pytest.raises(ValueError, match="1000001 points"):
        transient(c, tstop=1.0, dt=1e-6)


# --- memristor dynamics -------------------------------------------------------------

MEMDRIVE = """memristor drive
v_s a 0 pwl(0 0 1u 2)
xmr_1 a 0 mem w0=0.5
.model mem memristor k=1e6
"""


def _memdrive_reference(tstop: float) -> float:
    # the source pins the memristor voltage, so the state is a scalar ODE
    # the device equations define directly; integrate it to high accuracy
    p = devices.MemristorParams(k_drift=1e6)

    def vsrc(t):
        return 2.0 * min(t / 1e-6, 1.0)

    def rate(t, w):
        ww = min(max(w[0], 0.0), 1.0)
        i = vsrc(t) / devices.memristance(p, ww)
        return [devices.memristor_state_rate(p, ww, i)]

    ref = scipy.integrate.solve_ivp(rate, (0.0, tstop), [0.5],
                                    rtol=1e-10, atol=1e-12, max_step=1e-5)
    return float(ref.y[0, -1])


def test_memristor_vs_reference_integration():
    w_ref = _memdrive_reference(2e-3)
    assert 0.55 < w_ref < 0.95  # the drive moves the state but not to a rail

    be = transient(parse_netlist(MEMDRIVE), tstop=2e-3, dt=2e-6)
    assert be.states["xmr_1"][-1] == pytest.approx(w_ref, abs=5e-4)
    trap = transient(parse_netlist(MEMDRIVE), tstop=2e-3, dt=2e-7,
                     method="trapezoidal")
    assert trap.states["xmr_1"][-1] == pytest.approx(w_ref, abs=1e-6)


def test_memristor_step_self_convergence():
    coarse = transient(parse_netlist(MEMDRIVE), tstop=2e-3, dt=2e-6)
    fine = transient(parse_netlist(MEMDRIVE), tstop=2e-3, dt=2e-7)
    assert coarse.states["xmr_1"][-1] == pytest.approx(
        fine.states["xmr_1"][-1], abs=2e-4)


def test_memristor_state_stays_boxed():
    text = """hard drive
v_s a 0 pwl(0 0 1u 5)
xmr_1 a 0 mem w0=0.5
.model mem memristor k=1e9
"""
    tr = transient(parse_netlist(text), tstop=1e-3, dt=1e-6)
    w = tr.states["xmr_1"]
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    assert w[-1] > 0.95  # driven to the low-resistance bound


@pytest.mark.parametrize("amplitude, k, rail", [
    (5.0, "1e9", 1.0),
    # at r_off the drive toward w = 0 is r_off / r_on times weaker
    (-5.0, "1e10", 0.0),
])
def test_memristor_state_box_binds_at_either_rail(amplitude, k, rail):
    # a pulse train drives the state into a rail, where full Newton steps
    # leave [0, 1] and the box alone holds them: with either bound moved
    # out by 0.01 the clamped load's Jacobian no longer matches the state
    # and a step fails at t = 0.402 ms
    text = f"""hard pulses
v_s a 0 pulse(0 {amplitude} 0 1u 1u 100u 200u)
xmr_1 a 0 mem w0=0.5
.model mem memristor k={k}
"""
    c = parse_netlist(text)
    tr = transient(c, tstop=1e-3, dt=1e-6)
    w = tr.states["xmr_1"]
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    assert w[-1] == pytest.approx(rail, abs=1e-6)
    assert kcl_judge(c, tr)[0] < 1.0, kcl_judge(c, tr)


def test_dc_freezes_memristor_state():
    text = """frozen
v_s a 0 6.0
xmr_1 a b mem w0=0.25
r_1 b 0 1k
.model mem memristor
"""
    op = dc_operating_point(parse_netlist(text))
    p = devices.MemristorParams(w0=0.25)
    r_total = devices.memristance(p, 0.25) + 1e3
    assert op["b"] == pytest.approx(6.0 * 1e3 / r_total, rel=1e-9)


# --- pinned Newton work ---------------------------------------------------------

# Counts of the paper's cells: a refactor of assembly or history handling
# must reproduce them exactly; the trapezoidal run reads companion history
# and restarts with backward Euler across the inputs' edges (1222 without)
@pytest.mark.parametrize("case, expected", [
    ("detector-config2", 302),
    ("xor-backward-euler", 903),
    ("xor-trapezoidal", 913),
])
def test_newton_work_is_pinned(case, expected):
    if case == "detector-config2":
        c = cells.build_intensity_detector(cells.DETECTOR_CONFIG_2)
        d = next(d for d in c.analyses if d.kind == "dc")
        s = dc_sweep(c, d.source, d.start, d.stop, d.step)
        assert len(s.inputs) == 151
        assert s.strategies == ["gmin-stepping"] + 150 * ["newton"]
        assert sum(s.iterations) == expected
    else:
        c = cells.build_xor_circuit()
        d = next(d for d in c.analyses if d.kind == "tran")
        tr = transient(c, d.tstop, d.dt, method=case.removeprefix("xor-"))
        assert len(tr.times) == 801
        assert sum(tr.iterations) == expected


def test_trapezoidal_xor_passes_the_kcl_judge():
    # every step against its recorded rule with the previous row's
    # capacitor currents and memristor rates; judged as backward Euler
    # throughout, the trapezoidal rows fail, since their history terms are
    # then missing, and judged as trapezoidal throughout, the restarted
    # rows fail, since they have none
    c = cells.build_xor_circuit()
    d = next(d for d in c.analyses if d.kind == "tran")
    tr = transient(c, d.tstop, d.dt, method="trapezoidal")
    ratio, where = kcl_judge(c, tr)
    assert ratio <= 1.0, (ratio, where)
    rows = len(tr.times) - 1
    assert kcl_judge(c, tr, rules=["dc"] + rows * ["backward-euler"])[0] > 1.0
    assert kcl_judge(c, tr, rules=["dc"] + rows * ["trapezoidal"])[0] > 1.0


_XOR = cells.build_xor_circuit()
_XOR_CORNERS = sorted({t for e in _XOR.elements if e.kind == "v"
                       and e.params.kind == "pwl" for t in e.params.params[0::2]})


_TRAIN = "pulse(0 1 0.5n 0.1n 0.1n 0.5n 1n)"   # corners inside every step


@st.composite
def _sources(draw, dt, steps):
    """Netlist waveforms of drawn kinds on a grid of ``steps`` steps of
    ``dt``: DC levels; pulses and PWL sources whose corners lie on grid
    times, within the solver's slack of them, past it or between them; PWL
    sources flat over the run; the 1 ns train."""
    def time():
        k = draw(st.integers(0, steps + 2))
        off = draw(st.sampled_from([0.0, 1e-11, -1e-11, 1e-6, -1e-6, 0.5]))
        return max(0.0, (k + off) * dt)
    waves = []
    for kind in draw(st.lists(st.sampled_from(
            ["dc", "pulse", "pwl", "flat", "train"]), min_size=1, max_size=4)):
        if kind == "dc":
            waves.append(repr(draw(st.floats(-5.0, 5.0))))
        elif kind == "pulse":
            delay, rise, width, fall, rest = (time() for _ in range(5))
            period = rise + width + fall + rest
            if period > 0.0:
                waves.append(f"pulse(0 1 {delay!r} {rise!r} {fall!r} "
                             f"{width!r} {period!r})")
        elif kind == "pwl":
            times = sorted(time() for _ in range(draw(st.integers(2, 5))))
            waves.append("pwl(" + " ".join(f"{t!r} {i % 3}"
                                           for i, t in enumerate(times)) + ")")
        elif kind == "flat":   # corners at 0 and past the run's end
            waves.append(f"pwl(0 1 {(steps + 1) * dt!r} 2)")
        else:
            waves.append(_TRAIN)
    return waves


@st.composite
def _source_circuits(draw):
    dt = draw(st.sampled_from([1e-7, 1e-6, 2.5e-6]))
    steps = draw(st.integers(1, 30))
    waves = draw(_sources(dt, steps))
    assume(waves)   # a lone zero-period pulse draws no card
    text = "sources\n" + "".join(f"v_{k} n{k} 0 {w}\nr_{k} n{k} 0 1k\n"
                                 for k, w in enumerate(waves))
    return parse_netlist(text), steps * dt, dt


@given(st.one_of(st.just(_XOR), _source_circuits().map(lambda case: case[0])),
       st.lists(st.one_of(st.sampled_from(_XOR_CORNERS), st.floats(-1e-6, 1e-4),
                          st.floats(-1e-3, 5e-3)), min_size=1, max_size=20))
def test_levels_evaluate_the_sources_by_element_number(circuit, times):
    # the XOR and drawn mixes of DC, pulse and PWL sources; each call
    # returns its own list
    sys_ = solver._System(circuit)
    for t in times:
        levels = sys_.levels(t)
        assert levels == [e.params.value(t) if e.kind == "v" else 0.0
                          for e in circuit.elements], t
        levels[0] = None
        assert sys_.levels(t)[0] is not None


def _restarts_by_scan(circuit, tstop, dt):
    """The trapezoidal rows' rules as classified by counting the corners
    of every source in every step."""
    points = sweep_points(0.0, tstop, dt).tolist()
    slack = 1e-9 * dt
    waves = [e.params for e in circuit.elements if e.kind == "v"]
    restarts = set()
    for k in range(1, len(points)):
        if any(w.corners(points[k - 1] + slack, points[k] - slack)
               for w in waves):
            restarts.update(points[k:k + 2])
    return ["dc"] + ["backward-euler" if t in restarts else "trapezoidal"
                     for t in points[1:]]


@settings(max_examples=60)
@example((parse_netlist("dc only\nv_1 a 0 1\nr_1 a 0 1k\n"), 1e-5, 1e-6))
@given(_source_circuits())
def test_restarts_equal_a_scan_of_every_source_in_every_step(case):
    # a DC source is never asked
    circuit, tstop, dt = case
    corners, asked = devices.SourceWaveform.corners, []

    def counted(self, a, b):
        asked.append(self)
        return corners(self, a, b)
    with mock.patch.object(devices.SourceWaveform, "corners", counted):
        rules = transient(circuit, tstop, dt, method="trapezoidal").rules
    assert rules == _restarts_by_scan(circuit, tstop, dt)
    for e in circuit.elements:
        if e.kind == "v" and e.params.kind == "dc":
            assert not any(w is e.params for w in asked), e.name


# --- trapezoidal steps across a source corner -------------------------------

def test_trapezoidal_steps_across_a_source_corner_restart():
    # the inputs' edges end 1 us after the phase boundaries, inside the
    # steps to rows 201, 401 and 601; each of those steps and the one after
    # it run as backward Euler. The boundaries themselves lie on the grid
    # (within 1e-9 dt) and restart nothing; backward Euler never restarts
    c = cells.build_xor_circuit()
    d = next(d for d in c.analyses if d.kind == "tran")
    trap = transient(c, d.tstop, d.dt, method="trapezoidal")
    assert trap.rules[0] == "dc"
    assert [k for k, rule in enumerate(trap.rules)
            if rule == "backward-euler"] == [201, 202, 401, 402, 601, 602]
    assert set(trap.rules[1:]) == {"trapezoidal", "backward-euler"}
    be = transient(c, d.tstop, d.dt)
    assert be.rules == ["dc"] + 800 * ["backward-euler"]
    # corners on the grid: the ramp's end at 1 us is step 5's end, and
    # 1.3 us lies an ulp past the grid's 13 * 0.1 us
    memdrive = transient(parse_netlist(MEMDRIVE), 2e-6, 2e-7, "trapezoidal")
    assert memdrive.rules == ["dc"] + 10 * ["trapezoidal"]
    ramp = transient(parse_netlist(RC_STEP.replace("1n", "1.3u")), 2e-6, 1e-7,
                     "trapezoidal")
    assert ramp.times[13] < 1.3e-6
    assert ramp.rules == ["dc"] + 20 * ["trapezoidal"]


def test_trapezoidal_xor_follows_a_tenth_step_run():
    # bounds stated before the restart was built: at the default dt, the
    # rows three or more steps past every corner within 50 mV of a dt/10
    # trapezoidal run (298 mV without the restart), every row within 1 V
    # (4.72 V without)
    c = cells.build_xor_circuit()
    d = next(d for d in c.analyses if d.kind == "tran")
    tr = transient(c, d.tstop, d.dt, method="trapezoidal")
    fine = transient(cells.build_xor_circuit(dt=d.dt / 10), d.tstop,
                     d.dt / 10, method="trapezoidal")
    assert np.allclose(fine.times[::10], tr.times, rtol=0.0, atol=1e-12)
    off = np.max([np.abs(tr.voltages[n] - fine.voltages[n][::10])
                  for n in tr.voltages], axis=0)
    assert off.max() <= 1.0, off.max()
    settled = [all(t <= corner or t - corner >= 3 * d.dt * (1 - 1e-9)
                   for corner in _XOR_CORNERS) for t in tr.times.tolist()]
    assert sum(settled) == 790
    assert off[settled].max() <= 0.05, off[settled].max()


def test_trapezoidal_xor_truth_table_at_drawn_w0():
    # w0 0.5 and the seven w0 of random.Random(1).uniform(0.4, 0.6), the
    # values perfbench's xor_transient integrates at seed 1
    rng = random.Random(1)
    for w0 in [0.5] + [rng.uniform(0.4, 0.6) for _ in range(7)]:
        c = cells.build_xor_circuit(w0=w0)
        d = next(d for d in c.analyses if d.kind == "tran")
        tr = transient(c, d.tstop, d.dt, method="trapezoidal")
        levels = cells.settle_phase_levels(tr, "out", 4)
        assert [int(v > 3.0) for v in levels] == [0, 1, 1, 0], (w0, levels)


def test_pulse_train_faster_than_the_grid_runs_as_backward_euler(monkeypatch):
    # a 1 ns pulse train on a 1 us grid puts corners inside every step, so
    # every trapezoidal row restarts and equals the backward-Euler run bit
    # for bit; each step is classified by one count of the pulse's corners,
    # not by listing its million edges
    text = """fast pulses
v_s a 0 pulse(0 1 0.5n 0.1n 0.1n 0.5n 1n)
r_1 a b 1k
c_1 b 0 1n
xmr_1 b 0 mem w0=0.5
.model mem memristor k=1e6
"""
    c = parse_netlist(text)
    corners, queries = devices.SourceWaveform.corners, [0]

    def counted(self, a, b):
        queries[0] += 1
        return corners(self, a, b)
    monkeypatch.setattr(devices.SourceWaveform, "corners", counted)
    t0 = time.perf_counter()
    trap = transient(c, 1e-3, 1e-6, method="trapezoidal")
    elapsed = time.perf_counter() - t0
    assert queries[0] == 1000
    assert elapsed < 1.0, elapsed
    assert trap.rules == ["dc"] + 1000 * ["backward-euler"]
    be = transient(c, 1e-3, 1e-6)
    assert queries[0] == 1000   # backward Euler classifies nothing
    assert trap.voltages["b"].tobytes() == be.voltages["b"].tobytes()
    assert trap.states["xmr_1"].tobytes() == be.states["xmr_1"].tobytes()
    assert trap.iterations == be.iterations
    assert kcl_judge(c, trap)[0] <= 1.0


# --- system-level finite-difference Jacobians -----------------------------------

def test_dc_jacobian_matches_finite_difference():
    circuit = parse_netlist(FD_BENCH_DC)
    levels = solver._System(circuit).levels()
    rng = np.random.default_rng(20240818)
    assert fd_jacobian_check(circuit,
                             lambda: StampContext(levels=levels),
                             rng, 50) == 50


def test_one_stamp_call_per_element_and_one_context_per_point(monkeypatch):
    # perfbench/tracing.py counts assemblies as devices.stamp calls over
    # elements, and fallback points as the distinct contexts stamped with
    # gmin; its traced baseline pins both runs' counts
    stamp, contexts, fallback = devices.stamp, [], []

    def counted(elem, x, ctx, out):
        contexts.append(ctx)
        if ctx.gmin:
            fallback.append(ctx)
        return stamp(elem, x, ctx, out)
    monkeypatch.setattr(devices, "stamp", counted)
    for c, analysis, assemblies, points in (
            (cells.build_intensity_detector(cells.DETECTOR_CONFIG_2), "dc",
             465, 151),
            (cells.build_xor_circuit(), "backward-euler", 1716, 801),
            (cells.build_xor_circuit(), "trapezoidal", 1726, 801)):
        contexts.clear()
        fallback.clear()
        d = next(d for d in c.analyses
                 if d.kind == ("dc" if analysis == "dc" else "tran"))
        result = (dc_sweep(c, d.source, d.start, d.stop, d.step)
                  if analysis == "dc" else
                  transient(c, d.tstop, d.dt, method=analysis))
        assert len(contexts) == assemblies * len(c.elements)
        assert len({id(ctx) for ctx in contexts}) == len(
            result.strategies) == points
        assert len({id(ctx) for ctx in fallback}) == sum(
            st != "newton" for st in result.strategies) == 1


def test_tracer_wraps_names_the_package_has(monkeypatch):
    # perfbench/tracing.py swaps these attributes while it traces; a
    # refactor that removes one must fail here, not only in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    tracing = importlib.import_module("tracing")
    wrapped = [(mod, attr) for mod, attr, _ in tracing.WRAPPED
               if mod.startswith("dtlsim.")]
    assert wrapped
    for mod, attr in wrapped:
        assert callable(getattr(importlib.import_module(mod), attr, None)), \
            (mod, attr)


def test_transient_jacobian_matches_finite_difference():
    circuit = parse_netlist(FD_BENCH_TRAN)
    ctx_maker = make_tran_ctx_maker(circuit)
    rng = np.random.default_rng(20240819)
    assert fd_jacobian_check(circuit, ctx_maker, rng, 50) == 50


def test_kcl_residuals_within_tolerance_nonlinear():
    c = parse_netlist(FD_BENCH_DC)
    op = dc_operating_point(c)
    assert kcl_judge(c, op)[0] <= 1.0, kcl_judge(c, op)


def test_junction_limited_iteration_does_not_count_as_converged():
    # the zener's stamp linearizes at the voltage junction limiting picked;
    # accepting that residual once reported n0 = -4.448 V with 2.87 A of
    # KCL error at n0
    c = parse_netlist("""fuzz
r_s0 n0 0 1k
r_s1 n1 n0 1meg
v_1 n1 0 -5.791
r_0 n0 n1 10
d_1 n0 0 zen
.model zen zener
""")
    op = dc_operating_point(c)
    assert op.strategy == "newton"
    assert kcl_judge(c, op)[0] <= 1.0, kcl_judge(c, op)

    def kcl(v):   # node n0's current balance, increasing in v
        return (v / 1e3 + (v + 5.791) * (1 / 1e6 + 1 / 10)
                + devices.zener_ig(devices.ZenerParams(), v)[0])
    n0 = scipy.optimize.brentq(kcl, -5.791, 0.0, xtol=1e-12)
    assert op["n0"] == pytest.approx(n0, abs=1e-6)
