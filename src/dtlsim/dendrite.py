"""Behavioral dendritic threshold units and the two-branch XOR neuron.

All transfer functions are stateless scalar maps. Exact-equality firing
conditions are resolved as threshold crossings: a spike unit outputs 0 once
its input reaches the firing region and 1 below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidThreshold

MAX_COMBINATIONS = 10**6   # (theta2, eps, theta3) triples calibrate_xor tries


def f1(x: float, theta1: float) -> float:
    """Two-level threshold map onto {+1, -1}."""
    return 1.0 if x < theta1 else -1.0


def complement(x: float, level: float) -> float:
    """Logic complement about a level; an involution: c(c(x)) == x."""
    return level - x


def f_sat(a: float, theta2: float) -> float:
    """Normalized saturation: a/theta2 below threshold, 1 at and above."""
    return 1.0 if a >= theta2 else a / theta2


def f_sat_clamp(a: float, theta2: float) -> float:
    """Clamped saturation: identity below theta2, flat theta2 above."""
    return theta2 if a >= theta2 else a


def f_spk1(b: float, theta2: float, eps: float) -> float:
    """Dendrite spike: 0 once b is within eps of the saturation ceiling."""
    return 0.0 if b >= theta2 - eps else 1.0


def f_spk2(c: float, theta3: float) -> float:
    """Soma spike: 0 at or above theta3, 1 below."""
    return 0.0 if c >= theta3 else 1.0


_UNIT_KINDS = ("f1", "sat", "sat_clamp", "spk1", "spk2")


@dataclass(frozen=True)
class ThresholdUnit:
    """One named transfer function with bound thresholds."""

    kind: str
    theta: float
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in _UNIT_KINDS:
            raise InvalidThreshold(f"unknown unit kind {self.kind!r}")
        if not (math.isfinite(self.theta) and math.isfinite(self.eps)):
            raise InvalidThreshold(f"thresholds must be finite, got "
                                   f"theta={self.theta}, eps={self.eps}")
        if self.kind == "sat" and not self.theta > 0.0:
            raise InvalidThreshold(f"sat needs theta > 0, got {self.theta}")
        if self.kind == "spk1" and not 0.0 < self.eps < self.theta:
            raise InvalidThreshold(f"spk1 needs 0 < eps < theta, got eps={self.eps}")

    def __call__(self, x: float) -> float:
        if self.kind == "f1":
            return f1(x, self.theta)
        if self.kind == "sat":
            return f_sat(x, self.theta)
        if self.kind == "sat_clamp":
            return f_sat_clamp(x, self.theta)
        if self.kind == "spk1":
            return f_spk1(x, self.theta, self.eps)
        return f_spk2(x, self.theta)


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

    def collect(self, inputs: tuple[float, ...], level: float) -> float:
        if len(inputs) != len(self.weights):
            raise InvalidThreshold(
                f"branch expects {len(self.weights)} inputs, got {len(inputs)}")
        return sum(x if w > 0 else complement(x, level)
                   for w, x in zip(self.weights, inputs))

    def spike(self, inputs: tuple[float, ...], level: float) -> float:
        return f_spk1(f_sat_clamp(self.collect(inputs, level), self.theta2),
                      self.theta2, self.eps)


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
        if not 0.0 < self.logic_high < math.inf:
            raise InvalidThreshold(
                f"logic_high must be positive and finite, got {self.logic_high}")
        peak = self.max_soma_input()
        if not peak > self.theta3 > peak / 2.0:
            raise InvalidThreshold(
                f"theta3 must satisfy max > theta3 > max/2 "
                f"(max={peak}, theta3={self.theta3})")

    def max_soma_input(self) -> float:
        """Largest soma input over branch spike values (spikes are 0/1)."""
        return 1.0 if self.soma_combine == "avg" else float(len(self.branches))


@dataclass(frozen=True)
class NeuronTrace:
    output: float
    branch_sums: tuple[float, ...]
    branch_spikes: tuple[float, ...]
    soma_input: float


def eval_neuron(model: NeuronModel, inputs: tuple[float, ...]) -> NeuronTrace:
    """Evaluate branches then soma; returns the intermediates too."""
    sums = tuple(b.collect(tuple(inputs), model.logic_high) for b in model.branches)
    spikes = tuple(b.spike(tuple(inputs), model.logic_high) for b in model.branches)
    c = sum(spikes)
    if model.soma_combine == "avg":
        c /= len(model.branches)
    return NeuronTrace(f_spk2(c, model.theta3), sums, spikes, c)


def xor_model(logic_high: float = 1.0, theta2: float = 1.5, eps: float = 0.1,
              theta3: float = 0.75) -> NeuronModel:
    """Two antisymmetric branches (+1,-1) and (-1,+1) into an averaging soma."""
    if not logic_high < theta2 < 2.0 * logic_high:
        raise InvalidThreshold(
            f"theta2 must lie in (logic_high, 2*logic_high), got {theta2}")
    if not 0.0 < eps < theta2:
        raise InvalidThreshold(f"eps must lie in (0, theta2), got {eps}")
    branches = (DendriteBranch((1.0, -1.0), theta2, eps),
                DendriteBranch((-1.0, 1.0), theta2, eps))
    return NeuronModel(branches, theta3, logic_high)


def truth_table(model: NeuronModel) -> list[int]:
    """Outputs for logic inputs (0,0), (0,1), (1,0), (1,1)."""
    hi = model.logic_high
    rows = []
    for x1 in (0.0, hi):
        for x2 in (0.0, hi):
            rows.append(int(eval_neuron(model, (x1, x2)).output))
    return rows


def calibrate_xor(theta2_grid, eps_grid, theta3_grid,
                  logic_high: float = 1.0) -> list[tuple[float, float, float]]:
    """Grid-search the (theta2, eps, theta3) triples whose truth table is XOR.

    The grids are sequences with at most MAX_COMBINATIONS triples between
    them. Combinations that fail threshold validity cannot produce a truth
    table and are skipped rather than raised.
    """
    combos = len(theta2_grid) * len(eps_grid) * len(theta3_grid)
    if combos > MAX_COMBINATIONS:
        raise InvalidThreshold(f"{combos} combinations exceed the limit of "
                               f"{MAX_COMBINATIONS}")
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
