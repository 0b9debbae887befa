"""Behavioral threshold-unit and XOR-neuron tests; the truth table and grid
counts are frozen, the rest are exhaustive or property-based."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlsim import dendrite
from dtlsim.dendrite import (DendriteBranch, NeuronModel, ThresholdUnit,
                             calibrate_xor, complement, eval_neuron, f1,
                             f_sat, f_sat_clamp, f_spk1, f_spk2, truth_table,
                             xor_model)
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


# --- threshold units ---------------------------------------------------------

def test_threshold_unit_dispatch():
    assert ThresholdUnit("f1", 1.0)(2.0) == -1.0
    assert ThresholdUnit("sat", 2.0)(1.0) == 0.5
    assert ThresholdUnit("sat_clamp", 2.0)(3.0) == 2.0
    assert ThresholdUnit("spk1", 1.5, eps=0.1)(1.45) == 0.0
    assert ThresholdUnit("spk2", 0.75)(0.5) == 1.0


def test_threshold_unit_validation():
    with pytest.raises(InvalidThreshold):
        ThresholdUnit("sigmoid", 1.0)
    with pytest.raises(InvalidThreshold):
        ThresholdUnit("spk1", 1.5, eps=0.0)
    with pytest.raises(InvalidThreshold):
        ThresholdUnit("spk1", 1.5, eps=1.5)
    for kind in ("f1", "sat", "sat_clamp", "spk1", "spk2"):
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidThreshold):
                ThresholdUnit(kind, theta, eps=0.1)
    for theta in (0.0, -1.0):   # a + 0 divisor or a sign flip
        with pytest.raises(InvalidThreshold):
            ThresholdUnit("sat", theta)
    with pytest.raises(InvalidThreshold):
        ThresholdUnit("f1", 1.0, eps=math.nan)


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
    with pytest.raises(InvalidThreshold):
        NeuronModel(b, theta3=0.75, soma_combine="median")
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidThreshold):
            NeuronModel(b, theta3=0.75, logic_high=bad)
    with pytest.raises(InvalidThreshold):
        NeuronModel(b, theta3=math.nan)
    # summing soma shifts the window to (1, 2)
    assert NeuronModel(b, theta3=1.5, soma_combine="sum").max_soma_input() == 2.0
    with pytest.raises(InvalidThreshold):
        NeuronModel(b, theta3=0.75, soma_combine="sum")


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


def test_xor_with_summing_soma():
    b = (DendriteBranch((1.0, -1.0), 1.5, 0.1),
         DendriteBranch((-1.0, 1.0), 1.5, 0.1))
    m = NeuronModel(b, theta3=1.5, soma_combine="sum")
    assert truth_table(m) == [0, 1, 1, 0]


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
    monkeypatch.setattr(dendrite, "xor_model", tried)
    # ranges have a length without holding their values
    with pytest.raises(InvalidThreshold, match="1000001 combinations"):
        calibrate_xor(range(1000001), range(1), range(1))
    with pytest.raises(InvalidThreshold, match="1001000 combinations"):
        calibrate_xor(range(1001), range(1000), range(1))
    with pytest.raises(Tried):   # exactly at the limit: evaluation starts
        calibrate_xor(range(1000), range(1000), range(1))
