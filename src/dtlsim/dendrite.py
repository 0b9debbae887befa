"""Behavioral dendritic threshold maps and the two-branch XOR neuron.

Transfer functions and branch/soma evaluation are elementwise: they take
Python floats or numpy arrays (thresholds included) and broadcast, and a
scalar call returns a float. Exact-equality firing conditions are resolved
as threshold crossings: a spike unit outputs 0 once its input reaches the
firing region and 1 below it.

Each validity rule is one predicate that also works elementwise: the
constructors raise when it fails, and ``calibrate_xor`` uses it as a mask
over the whole (theta2, eps, theta3) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidThreshold

MAX_COMBINATIONS = 10**6   # (theta2, eps, theta3) triples calibrate_xor tries
_XOR_WEIGHTS = ((1.0, -1.0), (-1.0, 1.0))   # xor_model's two branches
_XOR_TABLE = (0, 1, 1, 0)
_Value = float | np.ndarray   # an elementwise argument or result


def f1(x: _Value, theta1: _Value) -> _Value:
    """Two-level threshold map onto {+1, -1}."""
    return np.where(x < theta1, 1.0, -1.0)[()]


def complement(x: _Value, level: _Value) -> _Value:
    """Logic complement about a level; an involution: c(c(x)) == x."""
    return level - x


def f_sat(a: _Value, theta2: _Value) -> _Value:
    """Normalized saturation: a/theta2 below threshold, 1 at and above."""
    # a/theta2 is computed everywhere but kept only below theta2, so a
    # theta2 of 0 (outside the domain, theta2 > 0) still maps a >= 0 to 1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a >= theta2, 1.0, np.divide(a, theta2))[()]


def f_sat_clamp(a: _Value, theta2: _Value) -> _Value:
    """Clamped saturation: identity below theta2, flat theta2 above."""
    return np.where(a >= theta2, theta2, a)[()]


def f_spk1(b: _Value, theta2: _Value, eps: _Value) -> _Value:
    """Dendrite spike: 0 once b is within eps of the saturation ceiling."""
    return np.where(b >= theta2 - eps, 0.0, 1.0)[()]


def f_spk2(c: _Value, theta3: _Value) -> _Value:
    """Soma spike: 0 at or above theta3, 1 below."""
    return np.where(c >= theta3, 0.0, 1.0)[()]


# --- validity rules: bool for scalars, a mask for arrays ---------------------

def _positive_finite(logic_high):
    return (0.0 < logic_high) & (logic_high < math.inf)


def _theta2_window(theta2, logic_high):
    return (logic_high < theta2) & (theta2 < 2.0 * logic_high)


def _eps_window(eps, theta2):
    return (0.0 < eps) & (eps < theta2)


def _theta3_window(theta3, peak):
    return (peak > theta3) & (theta3 > peak / 2.0)


def _collect(weights, inputs, level):
    """Branch sum: inputs weighted +1 pass, -1 pass their complement."""
    return sum(x if w > 0 else complement(x, level)
               for w, x in zip(weights, inputs))


def _branch_spike(total, theta2, eps):
    return f_spk1(f_sat_clamp(total, theta2), theta2, eps)


def _soma_input(spikes, soma_combine: str):
    c = sum(spikes)
    return c / len(spikes) if soma_combine == "avg" else c


@dataclass(frozen=True)
class DendriteBranch:
    """Weighted collector followed by clamp-then-spike.

    weights are +1 (pass the input) or -1 (pass its complement about the
    logic level); the branch sum feeds f_sat_clamp then f_spk1.
    """

    weights: tuple[float, ...]
    theta2: float
    eps: float

    def __post_init__(self):
        if not self.weights or any(w not in (1.0, -1.0) for w in self.weights):
            raise InvalidThreshold("branch weights must be +1 or -1")
        if not (math.isfinite(self.theta2) and math.isfinite(self.eps)):
            raise InvalidThreshold(f"thresholds must be finite, got "
                                   f"theta2={self.theta2}, eps={self.eps}")

    def collect(self, inputs: tuple[_Value, ...], level: float) -> _Value:
        if len(inputs) != len(self.weights):
            raise InvalidThreshold(
                f"branch expects {len(self.weights)} inputs, got {len(inputs)}")
        return _collect(self.weights, inputs, level)


@dataclass(frozen=True)
class NeuronModel:
    """Parallel dendrite branches into an averaging or summing soma."""

    branches: tuple[DendriteBranch, ...]
    theta3: float
    logic_high: float = 1.0
    soma_combine: str = "avg"

    def __post_init__(self):
        if not self.branches:
            raise InvalidThreshold("neuron needs at least one branch")
        if self.soma_combine not in ("avg", "sum"):
            raise InvalidThreshold(f"unknown soma combine {self.soma_combine!r}")
        if not _positive_finite(self.logic_high):
            raise InvalidThreshold(
                f"logic_high must be positive and finite, got {self.logic_high}")
        peak = self.max_soma_input()
        if not _theta3_window(self.theta3, peak):
            raise InvalidThreshold(
                f"theta3 must satisfy max > theta3 > max/2 "
                f"(max={peak}, theta3={self.theta3})")

    def max_soma_input(self) -> float:
        """Largest soma input over branch spike values (spikes are 0/1)."""
        return 1.0 if self.soma_combine == "avg" else float(len(self.branches))


@dataclass(frozen=True)
class NeuronTrace:
    output: _Value
    branch_sums: tuple[_Value, ...]
    branch_spikes: tuple[_Value, ...]
    soma_input: _Value


def eval_neuron(model: NeuronModel, inputs: tuple[_Value, ...]) -> NeuronTrace:
    """Evaluate branches then soma; returns the intermediates too. Inputs
    may be arrays, which every field of the trace then broadcasts over."""
    sums = tuple(b.collect(tuple(inputs), model.logic_high) for b in model.branches)
    spikes = tuple(_branch_spike(s, b.theta2, b.eps)
                   for s, b in zip(sums, model.branches))
    c = _soma_input(spikes, model.soma_combine)
    return NeuronTrace(f_spk2(c, model.theta3), sums, spikes, c)


def xor_model(logic_high: float = 1.0, theta2: float = 1.5, eps: float = 0.1,
              theta3: float = 0.75) -> NeuronModel:
    """Two antisymmetric branches (+1,-1) and (-1,+1) into an averaging soma."""
    if not _theta2_window(theta2, logic_high):
        raise InvalidThreshold(
            f"theta2 must lie in (logic_high, 2*logic_high), got {theta2}")
    if not _eps_window(eps, theta2):
        raise InvalidThreshold(f"eps must lie in (0, theta2), got {eps}")
    branches = tuple(DendriteBranch(w, theta2, eps) for w in _XOR_WEIGHTS)
    return NeuronModel(branches, theta3, logic_high)


def _logic_inputs(level):
    """The truth-table rows (0,0), (0,1), (1,0), (1,1) at a logic level."""
    return [(x1, x2) for x1 in (0.0, level) for x2 in (0.0, level)]


def truth_table(model: NeuronModel) -> list[int]:
    """Outputs for logic inputs (0,0), (0,1), (1,0), (1,1)."""
    return [int(eval_neuron(model, inputs).output)
            for inputs in _logic_inputs(model.logic_high)]


def _not_a_grid(name: str) -> InvalidThreshold:
    return InvalidThreshold(
        f"{name} must be a one-dimensional sequence of real numbers")


def _grid_array(name: str, grid) -> np.ndarray:
    try:
        values = np.asarray(grid)
    except (ValueError, TypeError, OverflowError):   # ragged, say
        raise _not_a_grid(name) from None
    if values.ndim != 1 or values.dtype.kind not in "iuf":
        raise _not_a_grid(name)
    values = values.astype(float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise InvalidThreshold(f"{name} values must be finite, got {bad[0]}")
    return values


def calibrate_xor(theta2_grid, eps_grid, theta3_grid,
                  logic_high: float = 1.0) -> list[tuple[float, float, float]]:
    """Grid-search the (theta2, eps, theta3) triples whose truth table is XOR.

    The grids are one-dimensional sequences of finite real numbers with at
    most MAX_COMBINATIONS triples between them, and logic_high is positive
    and finite. The whole broadcast grid is evaluated at once: triples that
    fail xor_model's threshold validity are masked out, not raised. Hits
    come theta2-major, then eps, then theta3, as the grids list them.
    """
    grids = {"theta2_grid": theta2_grid, "eps_grid": eps_grid,
             "theta3_grid": theta3_grid}
    combos = 1
    for name, grid in grids.items():   # lengths only: nothing is built yet
        try:
            combos *= len(grid)
        except TypeError:
            raise _not_a_grid(name) from None
    if combos > MAX_COMBINATIONS:
        raise InvalidThreshold(f"{combos} combinations exceed the limit of "
                               f"{MAX_COMBINATIONS}")
    if not _positive_finite(logic_high):
        raise InvalidThreshold(
            f"logic_high must be positive and finite, got {logic_high}")
    values = [_grid_array(name, grid) for name, grid in grids.items()]
    theta2, eps, theta3 = np.ix_(*values)
    # xor_model's windows, then NeuronModel's theta3 window for its
    # averaging soma, whose largest input is 1
    hit = (_theta2_window(theta2, logic_high) & _eps_window(eps, theta2)
           & _theta3_window(theta3, 1.0))
    with np.errstate(over="ignore"):   # theta2 - eps of a masked-out pair
        for inputs, want in zip(_logic_inputs(logic_high), _XOR_TABLE):
            spikes = [_branch_spike(_collect(w, inputs, logic_high), theta2, eps)
                      for w in _XOR_WEIGHTS]
            hit &= f_spk2(_soma_input(spikes, "avg"), theta3) == want
    i, j, k = np.nonzero(hit)
    return list(zip(values[0][i].tolist(), values[1][j].tolist(),
                    values[2][k].tolist()))
