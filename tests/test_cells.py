"""Cell builders and response analysis.

The analysis helpers are tested against synthetic curves whose band edges
and peaks are exact by construction; the circuit-level numbers are frozen
from solved operating points and sweeps.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dtlsim import cells
from dtlsim.cells import (DETECTOR_CONFIG_1, DETECTOR_CONFIG_2,
                          DetectorConfig, build_intensity_detector,
                          build_saturation_cell, build_spike_cell,
                          build_xor_circuit, extract_band, peak_input,
                          settle_phase_levels, smooth3)
from dtlsim.dendrite import f_sat_clamp, xor_model
from dtlsim.devices import ZenerParams
from dtlsim.errors import DomainError, NoBand, NotUnimodal
from dtlsim.netlist import parse_netlist, serialize_netlist
from dtlsim.solver import (SweepResult, TransientResult, dc_operating_point,
                           dc_sweep, transient)

from conftest import dc_from_directive, tran_from_directive


def _sweep(xs, ys) -> SweepResult:
    return SweepResult(source="v_in", inputs=np.asarray(xs, dtype=float),
                       voltages={"out": np.asarray(ys, dtype=float)})


def _grid_100ths(stop_100: int, step_100: int = 5):
    # integer-scaled grid keeps the landmark inputs exactly representable
    return np.arange(0, stop_100 + 1, step_100) / 100.0


def _triangle(xs, center=1.5, height=2.0, half_width=0.5):
    return np.maximum(0.0, height * (1.0 - np.abs(xs - center) / half_width))


# --- smooth3 -------------------------------------------------------------

def test_smooth3_preserves_monotone_and_endpoints():
    y = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert np.array_equal(smooth3(y), y)
    y = [5.0, 1.0, 4.0, 0.0, 3.0]
    s = smooth3(y)
    assert s[0] == 5.0 and s[-1] == 3.0


def test_smooth3_clips_single_sample_spike():
    assert np.array_equal(smooth3([0.0, 0.0, 9.0, 0.0, 0.0]),
                          [0.0, 0.0, 0.0, 0.0, 0.0])


def test_smooth3_rejects_2d():
    with pytest.raises(ValueError):
        smooth3(np.zeros((3, 3)))


@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40))
def test_smooth3_stays_within_local_range(y):
    s = smooth3(y)
    for i in range(1, len(y) - 1):
        lo = min(y[i - 1], y[i], y[i + 1])
        hi = max(y[i - 1], y[i], y[i + 1])
        assert lo <= s[i] <= hi


# --- loop references of the vectorized curve scans --------------------------

def _smooth3_loop(y):
    y = np.asarray(y, dtype=float)
    out = y.copy()
    for i in range(1, len(y) - 1):
        out[i] = np.median(y[i - 1:i + 2])
    return out


def _runs_loop(ys):
    """(first, last) of each maximal run of equal values."""
    runs = []
    i = 0
    while i < len(ys):
        j = i
        while j + 1 < len(ys) and ys[j + 1] == ys[i]:
            j += 1
        runs.append((i, j))
        i = j + 1
    return runs


def _peak_index_loop(ys):
    runs = [(ys[i0], i0, i1) for i0, i1 in _runs_loop(ys)]
    return [(i0 + i1) // 2 for k, (val, i0, i1) in enumerate(runs)
            if 0 < k < len(runs) - 1
            and runs[k - 1][0] < val and runs[k + 1][0] < val]


def _crossings_loop(prof, half, ipk):
    lo = hi = None
    for i in range(ipk, 0, -1):
        if prof[i - 1] < half <= prof[i]:
            lo = (i - 1) + (half - prof[i - 1]) / (prof[i] - prof[i - 1])
            break
    for i in range(ipk, len(prof) - 1):
        if prof[i] >= half > prof[i + 1]:
            hi = i + (prof[i] - half) / (prof[i] - prof[i + 1])
            break
    return lo, hi


# plateaus and ties come from the few sampled levels
_CURVES = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                             st.floats(-1.0, 3.0)), min_size=3, max_size=40)


@given(_CURVES)
def test_curve_scans_equal_their_loops(y):
    y = np.array(y)
    assert np.array_equal(smooth3(y), _smooth3_loop(y))
    first, last = cells._runs(y)
    assert list(zip(first.tolist(), last.tolist())) == _runs_loop(y)

    xs = np.arange(len(y)) / 20.0
    maxima = _peak_index_loop(smooth3(y))
    if len(maxima) == 1:
        assert peak_input(_sweep(xs, y), "out") == xs[maxima[0]]
    else:
        with pytest.raises(NotUnimodal):
            peak_input(_sweep(xs, y), "out")

    half, ipk = 0.5 * y.max(), int(y.argmax())
    if half > 0.0:
        (i0, i1), = [r for r in _runs_loop(y >= half) if r[0] <= ipk <= r[1]]
        assert cells._half_crossings(np.arange(len(y), dtype=float), y, half,
                                     i0, i1) == _crossings_loop(y, half, ipk)


# --- extract_band on synthetic curves ---------------------------------------

def test_extract_band_triangle_exact():
    xs = _grid_100ths(300)
    band = extract_band(_sweep(xs, _triangle(xs)), "out")
    # the half-height samples sit exactly on grid points, so the
    # interpolated edges and the raw peak are exact
    assert band.theta_low == 1.25
    assert band.theta_high == 1.75
    assert band.height == 2.0
    assert band.width == 0.5


def test_extract_band_height_is_raw_not_smoothed():
    # smoothing clips the single-sample apex to 1.8 on this grid; the
    # reported height must still be the raw 2.0
    xs = _grid_100ths(300)
    ys = _triangle(xs)
    assert smooth3(ys).max() < ys.max()
    assert extract_band(_sweep(xs, ys), "out").height == 2.0


def test_extract_band_twin_peaks_not_unimodal():
    xs = _grid_100ths(300)
    ys = _triangle(xs, center=0.8) + _triangle(xs, center=2.2)
    with pytest.raises(NotUnimodal):
        extract_band(_sweep(xs, ys), "out")


def test_extract_band_rejects_monotone_ramp():
    xs = _grid_100ths(300)
    with pytest.raises(NoBand):
        extract_band(_sweep(xs, xs), "out")


def test_extract_band_rejects_flat_curve():
    xs = _grid_100ths(300)
    with pytest.raises(NoBand):
        extract_band(_sweep(xs, np.ones_like(xs)), "out")


def test_extract_band_rejects_nonpositive_curve():
    xs = _grid_100ths(300)
    with pytest.raises(NoBand):
        extract_band(_sweep(xs, -_triangle(xs)), "out")


def test_extract_band_rejects_band_touching_edge():
    xs = _grid_100ths(300)
    with pytest.raises(NoBand):
        extract_band(_sweep(xs, _triangle(xs, center=0.0)), "out")


def test_extract_band_rejects_short_sweep():
    with pytest.raises(NoBand):
        extract_band(_sweep([0.0, 1.0], [0.0, 1.0]), "out")


def test_extract_band_rejects_a_peak_that_smoothing_removes():
    # smoothing clips the single-sample peak, so no smoothed sample
    # reaches half the raw height
    with pytest.raises(NoBand, match="never reaches half height"):
        extract_band(_sweep(np.arange(5.0), [0.0, 0.0, 1.0, 0.0, 0.0]), "out")


# --- peak_input -----------------------------------------------------------------

def test_peak_input_triangle():
    xs = _grid_100ths(300)
    assert peak_input(_sweep(xs, _triangle(xs)), "out") == 1.5


def test_peak_input_plateau_returns_centre():
    xs = _grid_100ths(300)
    ys = np.minimum(_triangle(xs, height=2.0), 1.5)  # flat top 1.25..1.75
    assert peak_input(_sweep(xs, ys), "out") == 1.5


def test_peak_input_tolerates_boundary_tails():
    # a rising tail into the sweep edge is not an interior maximum
    xs = _grid_100ths(300)
    ys = _triangle(xs) + np.where(xs > 2.5, (xs - 2.5) * 0.4, 0.0)
    assert peak_input(_sweep(xs, ys), "out") == 1.5


def test_peak_input_double_bump_raises():
    xs = _grid_100ths(300)
    ys = _triangle(xs, center=0.8) + _triangle(xs, center=2.2)
    with pytest.raises(NotUnimodal):
        peak_input(_sweep(xs, ys), "out")


def test_peak_input_monotone_raises():
    xs = _grid_100ths(300)
    with pytest.raises(NotUnimodal):
        peak_input(_sweep(xs, xs), "out")


def test_unknown_node_is_a_domain_error_naming_the_nodes():
    # each caller of a result's column names the missing node and the nodes held
    xs = _grid_100ths(300)
    t = np.linspace(0.0, 1.0, 11)
    for call in (lambda: extract_band(_sweep(xs, _triangle(xs)), "nope"),
                 lambda: peak_input(_sweep(xs, _triangle(xs)), "nope"),
                 lambda: settle_phase_levels(_tran(t, t), "nope", 2)):
        with pytest.raises(DomainError, match=r"no node 'nope' among \['out'\]"):
            call()


# --- settle_phase_levels ----------------------------------------------------------

def _tran(times, values) -> TransientResult:
    return TransientResult(times=np.asarray(times, dtype=float),
                           voltages={"out": np.asarray(values, dtype=float)},
                           states={})


def test_settle_phase_levels_step_pattern():
    t = np.linspace(0.0, 4.0, 401)
    # 1,2,3,4 per unit interval; phase-boundary samples keep the old level,
    # matching a source that transitions just after the boundary
    v = np.ceil(np.clip(t, 1e-9, None))
    assert settle_phase_levels(_tran(t, v), "out", 4) == [1.0, 2.0, 3.0, 4.0]


def test_settle_phase_levels_discards_transition():
    t = np.linspace(0.0, 1.0, 101)
    v = np.where(t < 0.5, 9.0, 1.0)   # early transient, settled tail
    assert settle_phase_levels(_tran(t, v), "out", 1) == [1.0]


def test_settle_phase_levels_window_without_samples():
    # the settling windows of phases 2 and 3 hold no sample: each takes
    # the last sample before its end, the one at t=1
    r = _tran([0.0, 1.0, 4.0], [1.0, 2.0, 3.0])
    assert settle_phase_levels(r, "out", 4) == [2.0, 2.0, 2.0, 3.0]


def test_settle_phase_levels_phase_before_the_first_sample():
    # phase 1 of 4 ends at t=0.25, before any sample: no level to report
    r = _tran([0.5, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"^phase 1 of 4 ends at t=0\.25s, "
                       r"before the first sample at t=0\.5s$"):
        settle_phase_levels(r, "out", 4)
    assert settle_phase_levels(r, "out", 2) == [1.0, 2.0]


def test_settle_phase_levels_validation():
    t = np.linspace(0.0, 1.0, 11)
    r = _tran(t, t)
    for bad in (0, -1, 2.5, 2.0, "2", None):
        with pytest.raises(ValueError):
            settle_phase_levels(r, "out", bad)
    assert settle_phase_levels(r, "out", np.int64(2)) == \
        settle_phase_levels(r, "out", 2)
    with pytest.raises(ValueError):
        settle_phase_levels(_tran([0.0], [0.0]), "out", 1)
    with pytest.raises(ValueError, match="non-decreasing"):
        settle_phase_levels(_tran([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]), "out", 1)


def test_settle_phase_levels_bounds_phases_before_any_work():
    # the count is checked before the node is looked up
    r = _tran(np.linspace(0.0, 1.0, 11), np.zeros(11))
    for bad in (cells._MAX_POINTS + 1, 10**9):
        with pytest.raises(ValueError, match="n_phases must be an integer"):
            settle_phase_levels(r, "nope", bad)


def _masked_phase_levels(t, y, n_phases):
    """Reference: one mask over the whole time axis per phase."""
    span = float(t[-1]) / n_phases
    levels = []
    for k in range(n_phases):
        hi = span * (k + 1)
        lo = hi - 0.2 * span
        m = (t >= lo) & (t <= hi)
        if not m.any():
            m = t <= hi
            m[:-1] &= t[1:] > hi  # fall back to the last sample in range
        levels.append(float(y[m].mean()))
    return levels


# times from 0 on a coarse grid, so that repeated times and windows
# without samples are common, or arbitrary floats
_phase_times = st.one_of(
    st.lists(st.integers(0, 40), min_size=1, max_size=60).map(
        lambda ks: [k / 8.0 for k in ks]),
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60))


@given(_phase_times, st.integers(1, 300), st.randoms(use_true_random=False))
def test_settle_phase_levels_equals_masked_loop(times, n_phases, rnd):
    t = np.array(sorted([0.0] + times))
    assume(t[-1] > 0.0)
    y = np.array([rnd.uniform(-5.0, 5.0) for _ in t])
    assert settle_phase_levels(_tran(t, y), "out", n_phases) == \
        _masked_phase_levels(t, y, n_phases)


# --- builders --------------------------------------------------------------------

def test_builders_round_trip_through_serialize():
    for c in (build_saturation_cell(), build_spike_cell(w0=0.3),
              build_xor_circuit(vdd=5.0), build_intensity_detector(),
              build_intensity_detector(DETECTOR_CONFIG_2)):
        text = serialize_netlist(c)
        again = parse_netlist(text)
        assert serialize_netlist(again) == text
        assert again == c


def test_builder_validation():
    with pytest.raises(DomainError):
        build_saturation_cell(w0=-0.1)
    with pytest.raises(DomainError):
        build_saturation_cell(vdd=0.0)
    with pytest.raises(DomainError):
        build_spike_cell(w0=1.5)
    with pytest.raises(DomainError, match="^vdd must be positive, got 0$"):
        build_spike_cell(vdd=0)
    with pytest.raises(DomainError, match="^vdd must be positive, got -1$"):
        build_xor_circuit(vdd=-1)
    with pytest.raises(DomainError):
        build_xor_circuit(edge=1e-3, phase=1e-3)
    with pytest.raises(DomainError):
        build_xor_circuit(dt=2e-3, phase=1e-3)
    with pytest.raises(DomainError):
        build_xor_circuit(load_cap=0.0)
    with pytest.raises(DomainError):
        build_intensity_detector(sweep_step=4.0, sweep_stop=3.0)
    with pytest.raises(DomainError):
        DetectorConfig(vdd1=0.0)
    with pytest.raises(DomainError):
        DetectorConfig(vss2=-0.5)
    with pytest.raises(DomainError):
        DetectorConfig(w0=2.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, kwargs, name", [
    (build_saturation_cell, {"vdd": _NAN}, "vdd"),
    (build_spike_cell, {"vdd": _INF}, "vdd"),
    (build_xor_circuit, {"vdd": _INF}, "vdd"),
    (build_xor_circuit, {"phase": _NAN}, "phase"),
    (build_xor_circuit, {"phase": _INF}, "phase"),
    (build_xor_circuit, {"edge": _NAN}, "edge"),
    (build_xor_circuit, {"dt": _NAN}, "dt"),
    (build_xor_circuit, {"load_cap": _NAN}, "load_cap"),
    (build_xor_circuit, {"load_cap": _INF}, "load_cap"),
    (build_intensity_detector, {"sweep_stop": _NAN}, "sweep_stop"),
    (build_intensity_detector, {"sweep_stop": _INF}, "sweep_stop"),
    (build_intensity_detector, {"sweep_step": _NAN}, "sweep_step"),
    (DetectorConfig, {"vdd1": _NAN}, "vdd1"),
    (DetectorConfig, {"vss2": _INF}, "vss2"),
    (DetectorConfig, {"bulk_n2": -_INF}, "bulk_n2"),
    (DetectorConfig, {"w0": _NAN}, "w0"),
])
def test_non_finite_parameters_are_domain_errors(monkeypatch, build, kwargs,
                                                 name):
    def no_text(text):
        raise AssertionError("netlist text built for a non-finite parameter")
    monkeypatch.setattr(cells, "parse_netlist", no_text)
    with pytest.raises(DomainError, match=name):
        build(**kwargs)


def test_builders_embed_their_directive():
    d = build_saturation_cell(vdd=6.0).analyses[0]
    assert (d.kind, d.source, d.start, d.stop) == ("dc", "v_in", 0.0, 6.0)
    assert d.step == 0.05
    d = build_xor_circuit(phase=1e-3).analyses[0]
    assert (d.kind, d.tstop, d.dt) == ("tran", 4e-3, 5e-6)


# --- frozen circuit responses ------------------------------------------------------

def test_saturation_cell_clamps_below_breakdown():
    s = dc_from_directive(build_saturation_cell())
    out = s.column("out")
    assert out[0] == pytest.approx(0.0, abs=1e-6)
    assert np.all(np.diff(smooth3(out)) > -1e-6)   # monotone rise
    assert out.max() == pytest.approx(4.098289, abs=1e-3)
    assert out.max() < 4.2


def test_spike_cell_peak_moves_down_with_w0():
    peaks = []
    for w0 in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = dc_from_directive(build_spike_cell(w0=w0))
        peaks.append(peak_input(s, "out"))
    assert peaks == pytest.approx([3.05, 2.95, 2.80, 2.60, 2.35], abs=1e-9)
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_spike_cell_output_is_crushed_past_peak():
    s = dc_from_directive(build_spike_cell())
    out = s.column("out")
    assert out.max() > 2.5
    assert out[-1] < 1.0   # end of sweep sits far below the peak


def test_xor_circuit_settled_levels():
    tr = tran_from_directive(build_xor_circuit())
    vdd = 6.0
    levels = settle_phase_levels(tr, "out", 4)
    assert levels == pytest.approx([0.0906, 5.7471, 5.7471, 0.1460],
                                   abs=2e-3)
    bits = [1 if v > 0.5 * vdd else 0 for v in levels]
    assert bits == [0, 1, 1, 0]
    assert levels[1] > 0.7 * vdd and levels[2] > 0.7 * vdd
    assert levels[0] < 0.3 * vdd and levels[3] < 0.3 * vdd


def test_xor_sum_nodes_follow_the_behavioral_branches():
    # cross-layer oracle: each sum node averages one input and the other's
    # complement through matched memristors, so it settles at its
    # behavioral branch's sum (collect at logic level 1) x vdd/2, clamped
    # by f_sat_clamp at the zener's vz; the bound, set before measuring,
    # is 0.1 V in every phase
    vdd = 6.0
    tr = tran_from_directive(build_xor_circuit(vdd=vdd))
    phases = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for node, branch in zip(("suma", "sumb"), xor_model().branches):
        want = [f_sat_clamp(branch.collect(x, 1.0) * vdd / 2.0,
                            ZenerParams().vz) for x in phases]
        assert settle_phase_levels(tr, node, 4) == pytest.approx(want, abs=0.1)


def test_xor_circuit_static_low_corner():
    # DC point evaluates the sources at t=0, the (0,0) phase: each sum node
    # averages one grounded input with the other's full-swing complement
    op = dc_operating_point(build_xor_circuit())
    assert op["suma"] == pytest.approx(2.969, abs=5e-3)
    assert op["sumb"] == pytest.approx(op["suma"], abs=1e-6)
    assert op["out"] < 0.3 * 6.0


def test_detector_frozen_bands():
    s1 = dc_from_directive(build_intensity_detector(DETECTOR_CONFIG_1))
    b1 = extract_band(s1, "out")
    assert b1.theta_low == pytest.approx(0.293243, abs=1e-3)
    assert b1.theta_high == pytest.approx(0.458937, abs=1e-3)
    assert b1.height == pytest.approx(1.372181, abs=1e-3)

    s2 = dc_from_directive(build_intensity_detector(DETECTOR_CONFIG_2))
    b2 = extract_band(s2, "out")
    assert b2.theta_low == pytest.approx(0.120786, abs=1e-3)
    assert b2.theta_high == pytest.approx(0.888400, abs=1e-3)
    assert b2.height == pytest.approx(2.446240, abs=1e-3)

    assert b2.width > b1.width
    assert b2.height > b1.height


def test_detector_output_low_outside_band():
    s = dc_from_directive(build_intensity_detector(DETECTOR_CONFIG_1))
    out = s.column("out")
    b = extract_band(s, "out")
    xs = np.asarray(s.inputs)
    outside = (xs < b.theta_low - 0.15) | (xs > b.theta_high + 0.15)
    assert np.all(out[outside] < 0.5 * b.height)
