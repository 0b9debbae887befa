"""Behavioral threshold-map and XOR-neuron tests; the truth table and grid
counts are frozen, the rest are exhaustive or property-based."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlsim import dendrite
from dtlsim.dendrite import (DendriteBranch, NeuronModel, calibrate_xor,
                             complement, eval_neuron, f1, f_sat, f_sat_clamp,
                             f_spk1, f_spk2, truth_table, xor_model)
from dtlsim.errors import InvalidThreshold


# --- scalar maps -----------------------------------------------------------

def test_f1_levels_and_boundary():
    assert f1(0.0, 1.0) == 1.0
    assert f1(0.999, 1.0) == 1.0
    assert f1(1.0, 1.0) == -1.0     # fires exactly at threshold
    assert f1(5.0, 1.0) == -1.0


def test_f_sat_boundary_and_scaling():
    assert f_sat(0.0, 1.5) == 0.0
    assert f_sat(0.75, 1.5) == 0.5
    assert f_sat(1.5, 1.5) == 1.0
    assert f_sat(9.0, 1.5) == 1.0


def test_f_sat_clamp_is_min():
    for a in (-1.0, 0.0, 0.3, 1.49, 1.5, 2.0, 100.0):
        assert f_sat_clamp(a, 1.5) == min(a, 1.5)


@given(st.floats(-10, 10), st.floats(0.1, 10))
def test_f_sat_is_scaled_clamp(a, theta2):
    assert f_sat(a, theta2) == f_sat_clamp(a, theta2) / theta2


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.1, 10))
def test_f_sat_monotone(a1, a2, theta2):
    lo, hi = min(a1, a2), max(a1, a2)
    assert f_sat(lo, theta2) <= f_sat(hi, theta2)


def test_spike_units_fire_low_at_boundary():
    # spikes are active-low: 0 means fired
    assert f_spk1(1.4, 1.5, 0.1) == 0.0      # exactly theta2 - eps
    assert f_spk1(1.3999, 1.5, 0.1) == 1.0
    assert f_spk2(0.75, 0.75) == 0.0
    assert f_spk2(0.7499, 0.75) == 1.0


@given(st.floats(-100, 100), st.floats(0.1, 10))
def test_complement_is_an_involution(x, level):
    assert complement(complement(x, level), level) == pytest.approx(
        x, abs=1e-12)
    assert complement(0.0, level) == level


# --- branches and neurons ---------------------------------------------------

def test_branch_validation():
    with pytest.raises(InvalidThreshold):
        DendriteBranch((), 1.5, 0.1)
    with pytest.raises(InvalidThreshold):
        DendriteBranch((0.5, 1.0), 1.5, 0.1)
    b = DendriteBranch((1.0, -1.0), 1.5, 0.1)
    with pytest.raises(InvalidThreshold):
        b.collect((1.0,), 1.0)
    for theta2, eps in ((math.nan, 0.1), (math.inf, 0.1), (1.5, math.nan)):
        with pytest.raises(InvalidThreshold):
            DendriteBranch((1.0, -1.0), theta2, eps)


def test_neuron_model_validation():
    b = (DendriteBranch((1.0, -1.0), 1.5, 0.1),
         DendriteBranch((-1.0, 1.0), 1.5, 0.1))
    # averaging soma: theta3 bounded by (max/2, max) = (0.5, 1), exclusive
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(InvalidThreshold):
            NeuronModel(b, theta3=bad)
    with pytest.raises(InvalidThreshold):
        NeuronModel((), theta3=0.75)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidThreshold):
            NeuronModel(b, theta3=0.75, logic_high=bad)
    with pytest.raises(InvalidThreshold):
        NeuronModel(b, theta3=math.nan)


def test_xor_model_parameter_windows():
    for theta2 in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(InvalidThreshold):
            xor_model(theta2=theta2)
    with pytest.raises(InvalidThreshold):
        xor_model(eps=0.0)
    with pytest.raises(InvalidThreshold):
        xor_model(eps=1.5)


# --- the XOR neuron ------------------------------------------------------------

def test_default_truth_table_is_xor():
    assert truth_table(xor_model()) == [0, 1, 1, 0]


def test_truth_table_scales_with_logic_level():
    m = xor_model(logic_high=6.0, theta2=9.0, eps=0.6, theta3=0.75)
    assert truth_table(m) == [0, 1, 1, 0]


def test_eval_neuron_trace_intermediate_values():
    tr = eval_neuron(xor_model(), (1.0, 0.0))
    assert tr.branch_sums == (2.0, 0.0)
    assert tr.branch_spikes == (0.0, 1.0)   # only the matched branch fires
    assert tr.soma_input == 0.5
    assert tr.output == 1.0

    tr = eval_neuron(xor_model(), (0.0, 0.0))
    assert tr.branch_sums == (1.0, 1.0)
    assert tr.branch_spikes == (1.0, 1.0)
    assert tr.soma_input == 1.0
    assert tr.output == 0.0


@given(st.floats(1.001, 1.999),
       st.floats(0.01, 0.99),
       st.floats(0.501, 0.999))
def test_xor_holds_across_valid_region(theta2, eps_frac, theta3):
    # eps below theta2 - logic_high keeps the equal-input branch sums out of
    # the firing window; everything in that box computes XOR
    eps = eps_frac * (theta2 - 1.0)
    if eps <= 0.0:
        return
    assert truth_table(xor_model(1.0, theta2, eps, theta3)) == [0, 1, 1, 0]


def test_oversize_eps_breaks_xor():
    # equal inputs land at sum 1; eps past theta2-1 makes them fire too
    m = xor_model(theta2=1.5, eps=0.7, theta3=0.75)
    assert truth_table(m) == [1, 1, 1, 1]


# --- calibration grid ------------------------------------------------------------

def test_calibrate_default_grid_count():
    hits = calibrate_xor(np.linspace(1.1, 1.9, 5),
                         np.linspace(0.05, 0.45, 5),
                         np.linspace(0.55, 0.95, 5))
    assert len(hits) == 95
    # analytic cross-check: valid iff eps < theta2 - 1 (theta3 never binds
    # inside its validity window)
    expected = sum(1 for t2 in np.linspace(1.1, 1.9, 5)
                   for ep in np.linspace(0.05, 0.45, 5)
                   if ep < t2 - 1.0) * 5
    assert len(hits) == expected


def test_calibrate_hits_revalidate():
    hits = calibrate_xor([1.3, 1.7], [0.1, 0.5], [0.6, 0.9])
    assert hits
    for theta2, eps, theta3 in hits:
        assert truth_table(xor_model(1.0, theta2, eps, theta3)) == [0, 1, 1, 0]


def test_calibrate_skips_invalid_combinations():
    # eps >= theta2 raises inside xor_model; calibrate must skip, not raise
    hits = calibrate_xor([1.5], [0.2, 2.0], [0.75])
    assert hits == [(1.5, 0.2, 0.75)]


def test_calibrate_empty_grid():
    assert calibrate_xor([1.99], [1.5], [0.75]) == []


def test_calibrate_refuses_too_many_combinations(monkeypatch):
    class Tried(Exception):
        pass

    def tried(*args):
        raise Tried
    # the soma spike runs only once the grid is being evaluated
    monkeypatch.setattr(dendrite, "f_spk2", tried)
    # ranges have a length without holding their values
    with pytest.raises(InvalidThreshold, match="1000001 combinations"):
        calibrate_xor(range(1000001), range(1), range(1))
    with pytest.raises(InvalidThreshold, match="1001000 combinations"):
        calibrate_xor(range(1001), range(1000), range(1))
    with pytest.raises(Tried):   # exactly at the limit: evaluation starts
        calibrate_xor(range(1000), range(1000), range(1))


def reference_calibrate_xor(theta2_grid, eps_grid, theta3_grid,
                            logic_high=1.0):
    """The one-combination-at-a-time search through xor_model and
    truth_table, as calibrate_xor did it before the grid was broadcast."""
    hits = []
    for theta2 in theta2_grid:
        for eps in eps_grid:
            for theta3 in theta3_grid:
                try:
                    model = xor_model(logic_high, theta2, eps, theta3)
                except InvalidThreshold:
                    continue
                if truth_table(model) == [0, 1, 1, 0]:
                    hits.append((float(theta2), float(eps), float(theta3)))
    return hits


def near(x, ulps=2):
    """x and the floats up to ``ulps`` steps either side of it."""
    out = [x]
    for to in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = np.nextafter(y, to).item()
            out.append(y)
    return out


@st.composite
def calibration_grids(draw):
    """Random grids seeded with every boundary of the validity windows and
    the spike comparisons: theta2 at L and 2L, eps at theta2 and at theta2
    minus each branch sum (0, L, 2L) and a few ulps either side, theta3 at
    0.5 and 1."""
    level = draw(st.sampled_from([1.0, 6.0, 0.3]) | st.floats(0.01, 100.0))

    def scaled(lo, hi):
        return st.floats(lo, hi).map(lambda f: f * level)
    theta2 = draw(st.lists(scaled(0.8, 2.2)
                           | st.sampled_from([level, 2.0 * level]),
                           min_size=1, max_size=6))
    edges = [e for t in theta2 for s in (0.0, level, 2.0 * level)
             for e in near(t - s)]
    eps = draw(st.lists(scaled(-0.1, 1.1) | st.sampled_from(edges),
                        min_size=1, max_size=6))
    theta3 = draw(st.lists(st.floats(0.4, 1.1)
                           | st.sampled_from([0.5, 1.0, 0.75]),
                           min_size=1, max_size=6))
    return theta2, eps, theta3, level


@settings(max_examples=300)
@given(calibration_grids())
def test_calibrate_grid_equals_reference_loop(grids):
    theta2, eps, theta3, level = grids
    want = reference_calibrate_xor(theta2, eps, theta3, level)
    got = calibrate_xor(theta2, eps, theta3, level)
    assert got == want
    assert all(type(v) is float for hit in got for v in hit)
    got = calibrate_xor(np.array(theta2), np.array(eps), np.array(theta3),
                        level)
    assert got == want


def test_calibrate_evaluates_without_the_scalar_model(monkeypatch):
    cases = [((np.linspace(1.1, 1.9, 21), np.linspace(0.05, 0.45, 21),
               np.linspace(0.55, 0.95, 21)), 1.0),
             (([1.0, 1.5, 2.0], [0.5, 1.5, 0.0, 0.1], [0.5, 0.75, 1.0]), 1.0)]
    for level in (1.0, 6.0, 0.3):   # eps within three ulps of theta2 - L
        theta2 = np.linspace(level, 2.0 * level, 13).tolist()
        eps = [e for t in theta2 for e in near(t - level, 3)]
        cases.append(((theta2, eps, [0.5, 0.75, 1.0]), level))
    want = [reference_calibrate_xor(*grids, level) for grids, level in cases]
    assert len(want[0]) == 7371 and want[1] == [(1.5, 0.1, 0.75)]
    assert all(want[2:])

    def refuse(*args):
        raise AssertionError("scalar model used")
    monkeypatch.setattr(dendrite, "xor_model", refuse)
    monkeypatch.setattr(dendrite, "eval_neuron", refuse)
    assert [calibrate_xor(*grids, level) for grids, level in cases] == want


def test_calibrate_logic_high_must_be_positive_finite():
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(InvalidThreshold, match="logic_high"):
            calibrate_xor([1.5], [0.1], [0.75], logic_high=bad)


def test_calibrate_grid_values_must_be_finite():
    for name, grids in (("theta2_grid", ([1.5, math.nan], [0.1], [0.75])),
                        ("eps_grid", ([1.5], [math.inf], [0.75])),
                        ("theta3_grid", ([1.5], [0.1], np.array([-math.inf])))):
        with pytest.raises(InvalidThreshold, match=f"{name} values must be finite"):
            calibrate_xor(*grids)


def test_calibrate_grid_must_be_1d_real_sequence():
    good = [0.75]
    for bad in (np.full((2, 2), 0.75), ["x"], [[0.75], [0.75, 0.8]],
                [0.75j], [None], "0.75", np.float64(0.75),
                (t for t in good)):
        with pytest.raises(InvalidThreshold, match="theta3_grid must be a "
                                                   "one-dimensional"):
            calibrate_xor([1.5], [0.1], bad)
    assert calibrate_xor([1.5], [], [0.75]) == []
    assert calibrate_xor(np.array([1.5]), np.array([]), good) == []


def test_elementwise_maps_equal_scalar_calls():
    xs = np.array([-1.0, 0.0, 0.75, 1.4, 1.5, 2.0, 3.0])
    for fn, args in ((f1, (1.5,)), (f_sat, (1.5,)), (f_sat_clamp, (1.5,)),
                     (f_spk1, (1.5, 0.1)), (f_spk2, (0.75,)),
                     (complement, (1.0,))):
        got = fn(xs, *args)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [fn(float(x), *args) for x in xs]
        assert all(type(fn(float(x), *args)) is not np.ndarray for x in xs)
    assert f_sat(0.0, 0.0) == f_sat(1.0, 0.0) == 1.0   # no division kept
    model = xor_model()
    grid = np.array([0.0, 1.0])
    x1, x2 = np.meshgrid(grid, grid, indexing="ij")
    tr = eval_neuron(model, (x1.ravel(), x2.ravel()))
    assert tr.output.tolist() == truth_table(model)
