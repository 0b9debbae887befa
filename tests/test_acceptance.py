"""Acceptance suite: one test per shipping criterion.

Each test prints a single "PASS: ..." or "FAIL: ..." line with the measured
numbers (run pytest with -s to see them on success) and then asserts, so a
verbose run shows one verdict per criterion either way. Criteria with a
runtime budget enforce it as part of the verdict.
"""

import math
import time

import numpy as np
import scipy.optimize

from dtlsim import solver
from dtlsim.cells import (DETECTOR_CONFIG_1, DETECTOR_CONFIG_2,
                          build_intensity_detector, build_saturation_cell,
                          build_spike_cell, build_xor_circuit, extract_band,
                          settle_phase_levels, smooth3)
from dtlsim.cli import main as cli_main
from dtlsim.dendrite import calibrate_xor, truth_table, xor_model
from dtlsim.devices import ZenerParams, zener_ig
from dtlsim.imaging import (ResponseLut, apply_detector, gen_gaussian_image,
                            read_pgm, ring_metrics, write_pgm)
from dtlsim.netlist import parse_netlist, serialize_netlist
from dtlsim.solver import dc_operating_point, transient

from conftest import (FD_BENCH_DC, FD_BENCH_TRAN, dc_from_directive,
                      fd_jacobian_check, kcl_judge, make_tran_ctx_maker,
                      tran_from_directive)

from dtlsim.devices import StampContext


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _n_interior_maxima(ys) -> int:
    """Count plateau-merged strict local maxima away from the endpoints."""
    n, i, m = 0, 1, len(ys)
    while i < m - 1:
        j = i
        while j < m - 1 and ys[j + 1] == ys[j]:
            j += 1
        if ys[i - 1] < ys[i] and j < m - 1 and ys[j + 1] < ys[j]:
            n += 1
        i = j + 1
    return n


def _kcl_detail(circuit, result) -> tuple[bool, str]:
    """The KCL judge's verdict on every point of a result, and its worst row."""
    ratio, where = kcl_judge(circuit, result)
    return ratio <= 1.0, f"KCL worst {ratio:.3f} of tolerance at {where}"


def test_saturation_cell_clamps_near_zener_breakdown():
    t0 = time.perf_counter()
    circuit = build_saturation_cell()
    sweep = dc_from_directive(circuit)
    peak = float(np.max(sweep.column("out")))
    elapsed = time.perf_counter() - t0
    kcl_ok, kcl = _kcl_detail(circuit, sweep)
    lo, hi = 4.2 * 0.95, 4.2 * 1.05
    ok = lo <= peak <= hi and elapsed < 5.0 and kcl_ok
    _gate("saturation clamp", ok,
          f"peak {peak:.4f} V in [{lo:.3f}, {hi:.3f}], {elapsed:.2f} s < 5 s, "
          f"{kcl}")


def test_spike_cell_sweep_has_single_interior_maximum():
    t0 = time.perf_counter()
    circuit = build_spike_cell()
    sweep = dc_from_directive(circuit)
    ys = smooth3(sweep.column("out"))
    n_max = _n_interior_maxima(ys)
    ipk = int(np.argmax(ys))
    elapsed = time.perf_counter() - t0
    kcl_ok, kcl = _kcl_detail(circuit, sweep)
    ok = n_max == 1 and 0 < ipk < len(ys) - 1 and elapsed < 5.0 and kcl_ok
    _gate("spike shape", ok,
          f"{n_max} interior maximum at sample {ipk}/{len(ys) - 1}, "
          f"{elapsed:.2f} s < 5 s, {kcl}")


def test_behavioral_xor_and_calibration_grid():
    t0 = time.perf_counter()
    table = truth_table(xor_model())
    theta2s = np.arange(11, 20) / 10.0        # 1.1 .. 1.9 step 0.1
    epss = [0.05, 0.1, 0.2]
    theta3s = np.arange(55, 100, 5) / 100.0   # 0.55 .. 0.95 step 0.05
    hits = calibrate_xor(theta2s, epss, theta3s)
    # independent oracle: the (0,0)/(1,1) branch sum clamps to exactly 1.0,
    # so a triple is XOR iff theta2 - eps > 1.0 in float arithmetic (every
    # grid theta3 already lies strictly inside (max/2, max) = (0.5, 1))
    expected = {(float(t2), float(e), float(t3))
                for t2 in theta2s for e in epss for t3 in theta3s
                if t2 - e > 1.0}
    revalid = all(
        truth_table(m := xor_model(1.0, t2, e, t3)) == [0, 1, 1, 0]
        and m.max_soma_input() > t3 > m.max_soma_input() / 2.0
        for t2, e, t3 in hits)
    elapsed = time.perf_counter() - t0
    ok = (table == [0, 1, 1, 0] and hits and set(hits) == expected
          and revalid and elapsed < 1.0)
    _gate("behavioral XOR", ok,
          f"defaults {table}, {len(hits)} grid hits == analytic set, "
          f"all revalidated, {elapsed:.2f} s < 1 s")


def test_circuit_xor_settles_to_truth_table():
    t0 = time.perf_counter()
    circuit = build_xor_circuit()
    vdd = 6.0
    result = tran_from_directive(circuit)
    levels = settle_phase_levels(result, "out", 4)
    elapsed = time.perf_counter() - t0
    kcl_ok, kcl = _kcl_detail(circuit, result)   # every backward-Euler step
    # phases drive (0,0), (0,1), (1,0), (1,1)
    high = [lv > 0.7 * vdd for lv in levels]
    low = [lv < 0.3 * vdd for lv in levels]
    ok = (high == [False, True, True, False]
          and low == [True, False, False, True] and elapsed < 30.0 and kcl_ok)
    _gate("circuit XOR", ok,
          "settled [" + ", ".join(f"{lv:.3f}" for lv in levels) + "] V "
          f"vs rails 0.3/0.7 x {vdd:.0f} V, {elapsed:.2f} s < 30 s, {kcl}")


def test_detector_band_widens_and_rises_with_second_supplies():
    t0 = time.perf_counter()
    bands, solved = [], []
    for config in (DETECTOR_CONFIG_1, DETECTOR_CONFIG_2):
        circuit = build_intensity_detector(config)
        sweep = dc_from_directive(circuit)
        bands.append(extract_band(sweep, "out"))
        solved.append((circuit, sweep))
    b1, b2 = bands
    elapsed = time.perf_counter() - t0
    kcl = [_kcl_detail(circuit, sweep) for circuit, sweep in solved]
    ok = (b2.width > b1.width and b2.height > b1.height and elapsed < 20.0
          and all(kcl_ok for kcl_ok, _ in kcl))
    _gate("detector ordering", ok,
          f"width {b2.width:.3f} > {b1.width:.3f} V, "
          f"height {b2.height:.3f} > {b1.height:.3f} V, "
          f"{elapsed:.2f} s < 20 s, " + "; ".join(detail for _, detail in kcl))


def test_gaussian_ring_thicker_and_brighter_with_second_supplies():
    t0 = time.perf_counter()
    image = gen_gaussian_image()
    rings = []
    for config in (DETECTOR_CONFIG_1, DETECTOR_CONFIG_2):
        sweep = dc_from_directive(build_intensity_detector(config))
        lut = ResponseLut.from_sweep(sweep, "out")
        rings.append(ring_metrics(apply_detector(image, lut)))
    r1, r2 = rings
    elapsed = time.perf_counter() - t0
    ok = (r2.thickness > r1.thickness
          and r2.peak_brightness >= r1.peak_brightness and elapsed < 60.0)
    _gate("ring ordering", ok,
          f"thickness {r2.thickness:.2f} > {r1.thickness:.2f} px, "
          f"brightness {r2.peak_brightness:.4f} >= {r1.peak_brightness:.4f}, "
          f"{elapsed:.2f} s < 60 s")


def test_solver_matches_independent_oracles():
    t0 = time.perf_counter()

    divider = parse_netlist("divider\nv_1 in 0 6.0\nr_1 in mid 1k\nr_2 mid 0 2k\n")
    div_err = abs(dc_operating_point(divider)["mid"] - 4.0)

    diode = parse_netlist("diode bench\nv_1 in 0 5.0\nr_1 in d 10k\n"
                          "d_1 d 0 zen\n.model zen zener\n")
    p = ZenerParams()
    vd_ref = scipy.optimize.bisect(
        lambda vd: (5.0 - vd) / 10e3 - zener_ig(p, vd)[0],
        0.0, 5.0, xtol=1e-12)
    diode_err = abs(dc_operating_point(diode)["d"] - vd_ref)

    rc = ("v_s in 0 pwl(0 0 {edge} 1)\nr_1 in out 1k\nc_1 out 0 1u\n")
    tau = 1e-3
    step = parse_netlist("rc step\n" + rc.format(edge="1n"))
    exact_step = 1.0 - math.exp(-1.0)
    tr = transient(step, tstop=tau, dt=tau / 100.0, method="backward-euler")
    rc_err = abs(tr.column("out")[-1] - exact_step) / exact_step

    # order comparison on the same RC but ramp-driven: the step's sub-dt
    # edge pins both integrators to one sampling artifact, an edge-free
    # drive (exact response e^-1 at tau) exposes the accuracy orders
    ramp = parse_netlist("rc ramp\n" + rc.format(edge="1m"))
    exact_ramp = math.exp(-1.0)
    errs = {}
    for method in ("backward-euler", "trapezoidal"):
        tr = transient(ramp, tstop=tau, dt=tau / 100.0, method=method)
        errs[method] = abs(tr.column("out")[-1] - exact_ramp) / exact_ramp
    ratio = errs["backward-euler"] / errs["trapezoidal"]

    rng = np.random.default_rng(20240820)
    dc_circuit = parse_netlist(FD_BENCH_DC)
    dc_levels = solver._System(dc_circuit).levels()
    n_dc = fd_jacobian_check(dc_circuit,
                             lambda: StampContext(levels=dc_levels),
                             rng, 50)
    tran_circuit = parse_netlist(FD_BENCH_TRAN)
    n_tr = fd_jacobian_check(tran_circuit, make_tran_ctx_maker(tran_circuit),
                             rng, 50)

    elapsed = time.perf_counter() - t0
    ok = (div_err <= 1e-9 and diode_err <= 1e-6 and rc_err < 0.01
          and ratio >= 4.0 and n_dc + n_tr == 100)
    _gate("solver oracles", ok,
          f"divider {div_err:.1e} V, diode {diode_err:.1e} V, "
          f"RC at tau {rc_err:.2%}, trap/BE ratio {ratio:.0f}x, "
          f"jacobians {n_dc + n_tr}/100 points within 1e-6, {elapsed:.2f} s")


def test_formats_round_trip_and_runs_are_deterministic(tmp_path):
    t0 = time.perf_counter()

    builders = (build_saturation_cell(), build_spike_cell(),
                build_xor_circuit(), build_intensity_detector())
    netlist_ok = all(parse_netlist(serialize_netlist(c)) == c
                     for c in builders)

    image = gen_gaussian_image(33)
    pgm_ok = True
    for binary in (True, False):
        path = tmp_path / f"g{int(binary)}.pgm"
        write_pgm(path, image, binary=binary)
        first = path.read_bytes()
        write_pgm(path, image, binary=binary)
        pgm_ok &= read_pgm(path) == image and path.read_bytes() == first

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["detector", "--out", str(out_a)])
    code_b = cli_main(["detector", "--out", str(out_b)])
    csv_ok = (code_a == code_b == 0
              and out_a.read_bytes() == out_b.read_bytes())

    elapsed = time.perf_counter() - t0
    ok = netlist_ok and pgm_ok and csv_ok
    _gate("format suite", ok,
          f"netlist round-trips {netlist_ok}, pgm round-trips {pgm_ok}, "
          f"csv byte-equal {csv_ok}, {elapsed:.2f} s")
