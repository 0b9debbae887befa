"""Modified nodal analysis with damped Newton iteration.

Unknowns are numbered once per circuit and analysis mode (``_System``):
node voltages (sorted names, ground ``0`` excluded), then voltage-source
branch currents (element order), then memristor states (transient only).
The iterate is a flat vector in that order, and every element carries its
unknown numbers as a tuple. Ground takes one extra slot past the last
unknown: stamps read 0.0 from it and write into its row and column like
any other, and the solver drops them. The residual form is used
throughout: F(x) collects KCL sums per node, source voltage equations and
implicit state equations, and Newton solves J dx = -F.

Every analysis starts from ``_System``, the one place that validates the
circuit and runs the structural checks: every node needs a DC path to
ground (the offending node is named) and no voltage sources may form a
loop (the loop's sources are named). Each solved point gets a fresh
``StampContext`` whose ``levels`` hold every source's level at that point,
evaluated once (``_System.levels``, which also checks overrides). DC sweeps
and transients share one point loop (``_march``): each point starts from
the last solution, and its iterations and winning strategy are recorded.

Transient companion memory (capacitor currents, memristor drift rates) is
computed only by the stamps: every assembly records it, and the record of
the assembly that converged a step seeds the next step.

Robustness ladder for each point: plain Newton with zero gmin so linear
circuits are exact, then a geometric gmin ladder, then source stepping.
Update damping clamps per-component steps at ``options.damping_limit``
but only for unknowns that nonlinear device stamps touch; purely linear
circuits therefore converge in exactly one Newton iteration.

A Newton step that ``numpy.linalg.solve`` finds singular, or that comes
out non-finite, raises SingularMatrix naming the unknown with the largest
component of the Jacobian's null vector (its last right-singular vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import devices
from .devices import StampContext
from .errors import NoConvergence, SingularMatrix

_W_ABSTOL = 1e-12
_MAX_POINTS = 10**6   # points of a sweep, rows of a transient


@dataclass
class SolverOptions:
    reltol: float = 1e-3
    abstol_v: float = 1e-6
    abstol_i: float = 1e-9
    max_newton_iters: int = 100
    damping_limit: float = 0.5
    gmin_start: float = 1e-3
    gmin_final: float = 1e-12
    source_steps: int = 10

    def __post_init__(self):
        inf = math.inf   # every bound below is also False for NaN
        for name, ok, rule in (
                ("reltol", 0.0 <= self.reltol < inf, "finite and >= 0"),
                ("abstol_v", 0.0 <= self.abstol_v < inf, "finite and >= 0"),
                ("abstol_i", 0.0 <= self.abstol_i < inf, "finite and >= 0"),
                ("damping_limit", 0.0 < self.damping_limit < inf, "finite and > 0"),
                ("gmin_final", 0.0 < self.gmin_final < inf, "finite and > 0"),
                ("gmin_start", self.gmin_final <= self.gmin_start < inf,
                 "finite and >= gmin_final"),
                ("max_newton_iters", 0 <= self.max_newton_iters < inf, "finite and >= 0"),
                ("source_steps", self.source_steps >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"SolverOptions.{name} must be {rule}, "
                                 f"got {getattr(self, name)!r}")


class OpPoint(dict):
    """Node name -> voltage mapping with solve metadata attached."""

    def __init__(self, voltages: dict[str, float], raw: dict, iterations: int,
                 strategy: str):
        super().__init__(voltages)
        self.raw = raw
        self.iterations = iterations
        self.strategy = strategy


@dataclass
class SweepResult:
    source: str
    inputs: np.ndarray
    voltages: dict[str, np.ndarray]
    iterations: list[int] = field(default_factory=list)
    strategies: list[str] = field(default_factory=list)

    def column(self, node: str) -> np.ndarray:
        return self.voltages[node]


@dataclass
class TransientResult:
    times: np.ndarray
    voltages: dict[str, np.ndarray]
    states: dict[str, np.ndarray]
    iterations: list[int] = field(default_factory=list)
    strategies: list[str] = field(default_factory=list)

    def column(self, node: str) -> np.ndarray:
        return self.voltages[node]


class _Assembly:
    """Stamp target of one assembly: rows and columns are unknown numbers
    plus the ground slot (see the stamps section of ``devices``)."""

    __slots__ = ("slots", "jac", "res", "scale", "memory")

    def __init__(self, slots: dict[str, tuple[int, ...]], size: int):
        self.slots = slots
        self.jac = [[0.0] * size for _ in range(size)]
        self.res = [0.0] * size
        self.scale = [0.0] * size
        self.memory: dict[str, float] = {}


class _System:
    """Frozen unknown numbering for one circuit and analysis mode; the one
    place that validates the circuit and runs the structural checks."""

    def __init__(self, circuit, transient: bool):
        circuit.validate()
        _check_dc_paths(circuit)
        _check_source_loops(circuit)
        self.elements = circuit.elements
        self.sources = {e.name: e.params for e in circuit.elements if e.kind == "v"}
        nodes = [nd for nd in circuit.nodes if nd != devices.GROUND]
        keys = [("v", nd) for nd in nodes]
        keys += [("i", name) for name in self.sources]
        if transient:
            keys += [("w", e.name) for e in circuit.elements if e.kind == "xmr"]
        self.keys = keys
        self.n = n = len(keys)
        self.nv = len(nodes)
        self.states = slice(n - sum(k[0] == "w" for k in keys), n)
        index = {k: i for i, k in enumerate(keys)}
        index[("v", devices.GROUND)] = n   # the ground slot
        self.slots = {}
        nonlinear = np.zeros(n + 1, dtype=bool)
        for e in circuit.elements:
            slots = tuple(index[("v", nd)] for nd in e.nodes)
            if e.kind == "v":
                slots += (index[("i", e.name)],)
            elif e.kind == "xmr" and transient:
                slots += (index[("w", e.name)],)
            if e.kind in ("d", "m") or (e.kind == "xmr" and transient):
                nonlinear[list(slots)] = True
            self.slots[e.name] = slots
        self.nonlinear = nonlinear[:n]

    def assemble(self, xs: list[float], ctx: StampContext):
        """Jacobian, residual, residual scale and companion memory at the
        iterate ``xs`` (unknowns, then 0.0 for the ground slot)."""
        out = _Assembly(self.slots, self.n + 1)
        for e in self.elements:
            devices.stamp(e, xs, ctx, out)
        n, nv = self.n, self.nv
        jac = np.array(out.jac)[:n, :n]
        res = np.array(out.res[:n])
        scale = np.array(out.scale[:n])
        if ctx.gmin:
            diag = np.arange(nv)
            jac[diag, diag] += ctx.gmin
            leak = ctx.gmin * np.array(xs[:nv])
            res[:nv] += leak
            scale[:nv] += np.abs(leak)
        return jac, res, scale, out.memory

    def levels(self, t: float = 0.0,
               overrides: dict[str, float] | None = None) -> dict[str, float]:
        """Every voltage source's level at time t, before source stepping;
        ``overrides`` must set voltage sources to finite levels."""
        overrides = overrides or {}
        for name, level in overrides.items():
            if name not in self.sources:
                raise ValueError(f"override {name!r} is not a voltage source")
            if not math.isfinite(level):
                raise ValueError(f"override {name}={level} is not finite")
        return {name: overrides[name] if name in overrides else wave.value(t)
                for name, wave in self.sources.items()}

    def abstol(self, options: SolverOptions) -> np.ndarray:
        """Absolute residual tolerance per row: KCL rows are currents,
        source rows voltages, state rows dimensionless."""
        base = {"v": options.abstol_i, "i": options.abstol_v, "w": _W_ABSTOL}
        return np.array([base[k[0]] for k in self.keys])


def _with_ground(x: np.ndarray) -> list[float]:
    xs = x.tolist()
    xs.append(0.0)
    return xs


def _check_dc_paths(circuit) -> None:
    """Every node needs a potential conductive path to ground."""
    nodes = set(circuit.nodes)
    if devices.GROUND not in nodes:
        raise SingularMatrix(
            f"no ground node '0'; node {min(nodes)!r} has no DC path to ground",
            node=min(nodes))
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for e in circuit.elements:
        if e.kind in ("r", "v", "d", "xmr"):
            a, b = e.nodes
        elif e.kind == "m":
            a, b = e.nodes[0], e.nodes[2]   # channel
        else:
            continue
        adj[a].add(b)
        adj[b].add(a)
    seen = {devices.GROUND}
    stack = [devices.GROUND]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    floating = nodes - seen
    if floating:
        bad = min(floating)
        raise SingularMatrix(f"node {bad!r} has no DC path to ground", node=bad)


def _check_source_loops(circuit) -> None:
    """No loop of voltage sources: its branch currents would be undetermined."""
    adj: dict[str, list[tuple[str, str]]] = {}   # a forest of the sources so far
    for e in circuit.elements:
        if e.kind != "v":
            continue
        a, b = e.nodes
        # depth-first search for the forest path a -> b, by source names
        paths = {a: []}
        stack = [a]
        while stack and b not in paths:
            nd = stack.pop()
            for nxt, name in adj.get(nd, ()):
                if nxt not in paths:
                    paths[nxt] = paths[nd] + [name]
                    stack.append(nxt)
        if b in paths:
            loop = ", ".join(sorted(paths[b] + [e.name]))
            raise SingularMatrix(f"voltage sources {loop} form a loop", node=a)
        adj.setdefault(a, []).append((b, e.name))
        adj.setdefault(b, []).append((a, e.name))


def _lu_solve(jac: np.ndarray, rhs: np.ndarray, keys: list[tuple]) -> np.ndarray:
    try:
        dx = np.linalg.solve(jac, rhs)
        if np.all(np.isfinite(dx)):
            return dx
    except np.linalg.LinAlgError:
        pass
    try:
        weight = np.abs(np.linalg.svd(jac)[2][-1])
    except np.linalg.LinAlgError:   # no SVD: name the first non-finite row
        weight = ~np.isfinite(jac).all(axis=1)
    k = keys[int(weight.argmax())]
    raise SingularMatrix(f"singular system at unknown {k!r}", node=k[1])


def _newton(sys: _System, x0: np.ndarray, ctx: StampContext,
            options: SolverOptions) -> tuple[np.ndarray, int, dict]:
    """Damped Newton from x0; returns the solution, the iteration count
    and the companion memory recorded by the converged assembly."""
    abstol = sys.abstol(options)
    x = x0
    xs = ctx.prev_iter = _with_ground(x)
    iters = 0
    while True:
        jac, res, scale, memory = sys.assemble(xs, ctx)
        absres = np.abs(res)
        if np.all(absres <= abstol + options.reltol * scale):
            return x, iters, memory
        if iters >= options.max_newton_iters:
            last_res = float(absres.max())
            raise NoConvergence(
                f"no convergence after {iters} Newton iterations "
                f"(max residual {last_res:.3e})", residual=last_res)
        dx = _lu_solve(jac, -res, sys.keys)
        lim = options.damping_limit
        x = x + np.where(sys.nonlinear, np.clip(dx, -lim, lim), dx)
        x[sys.states] = np.clip(x[sys.states], 0.0, 1.0)
        ctx.prev_iter = xs
        xs = _with_ground(x)
        iters += 1


def _gmin_ladder(options: SolverOptions) -> list[float]:
    out = []
    g = options.gmin_start
    while g > options.gmin_final:
        out.append(g)
        g /= 10.0
    out.append(options.gmin_final)
    return out


def _solve_point(sys: _System, x0: np.ndarray, ctx: StampContext,
                 options: SolverOptions) -> tuple[np.ndarray, int, str, dict]:
    """Newton with homotopy fallbacks; ctx.gmin/srcscale are scratch.

    Each strategy walks its (gmin, source scale) rungs from its start,
    then solves at zero gmin and full sources; after a homotopy a failure
    of that last solve keeps the last rung's solution.

    Returns the solution, the total iteration count, the strategy that
    won and the companion memory of the solution's assembly.
    """
    zeros = np.zeros(sys.n)
    zeros[sys.states] = x0[sys.states]
    strategies = (
        ("newton", x0, []),
        ("gmin-stepping", x0, [(g, 1.0) for g in _gmin_ladder(options)]),
        ("source-stepping", zeros, [(options.gmin_final, k / options.source_steps)
                                    for k in range(1, options.source_steps + 1)]),
    )
    last: Exception | None = None
    for name, x, rungs in strategies:
        total = 0
        try:
            for ctx.gmin, ctx.srcscale in rungs:
                x, iters, memory = _newton(sys, x, ctx, options)
                total += iters
        except (NoConvergence, SingularMatrix) as exc:
            last = exc
            continue
        ctx.gmin, ctx.srcscale = 0.0, 1.0
        try:
            x, iters, memory = _newton(sys, x, ctx, options)
            total += iters
        except (NoConvergence, SingularMatrix) as exc:
            if not rungs:
                last = exc
                continue
        return x, total, name, memory
    raise NoConvergence(
        f"operating point did not converge (newton, gmin stepping and "
        f"source stepping all failed: {last})",
        residual=getattr(last, "residual", None))


def _march(sys: _System, x: np.ndarray, memory: dict, points: np.ndarray,
           context, options: SolverOptions, where):
    """Solve the points in order, each from the last solution and its
    companion memory through a fresh ``context(point, x, memory)``; a
    failure is re-raised naming ``where(point)``. Returns the solutions as
    columns, the iterations and the strategies."""
    cols = np.empty((sys.n, points.size))
    iterations, strategies = [], []
    for i, at in enumerate(points.tolist()):
        try:
            x, iters, strategy, memory = _solve_point(
                sys, x, context(at, x, memory), options)
        except NoConvergence as exc:
            raise NoConvergence(f"{where(at)}: {exc}",
                                residual=exc.residual, at=at) from exc
        cols[:, i] = x
        iterations.append(iters)
        strategies.append(strategy)
    return cols, iterations, strategies


def _operating_point(circuit, options: SolverOptions, overrides=None,
                     x0: dict | None = None):
    """Checked DC solve: returns the system and _solve_point's result."""
    sys = _System(circuit, transient=False)
    ctx = StampContext(levels=sys.levels(0.0, overrides))
    x0 = x0 or {}
    start = np.array([x0.get(k, 0.0) for k in sys.keys], dtype=float)
    return sys, _solve_point(sys, start, ctx, options)


def dc_operating_point(circuit, options: SolverOptions | None = None, *,
                       overrides: dict[str, float] | None = None,
                       x0: dict | None = None) -> OpPoint:
    """Solve the DC operating point; memristor states stay frozen at w0.

    Returns an OpPoint mapping node name -> voltage (ground excluded), with
    ``raw`` (all unknowns), ``iterations`` and ``strategy`` attached.
    """
    sys, (x, iters, strategy, _) = _operating_point(
        circuit, options or SolverOptions(), overrides, x0)
    raw = dict(zip(sys.keys, x.tolist()))
    voltages = {k[1]: v for k, v in raw.items() if k[0] == "v"}
    return OpPoint(voltages, raw, iters, strategy)


def sweep_points(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop (within 1e-9 of a step)."""
    if not (all(map(math.isfinite, (start, stop, step)))
            and stop > start and step > 0.0):
        raise ValueError(f"range needs finite start < stop and step > 0, got "
                         f"{start}, {stop}, {step}")
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_POINTS:
        raise ValueError(f"{np.floor(steps) + 1:.7g} points from {start} to "
                         f"{stop} exceed the limit of {_MAX_POINTS}")
    return start + step * np.arange(int(math.floor(steps)) + 1)


def dc_sweep(circuit, source: str, start: float, stop: float, step: float,
             options: SolverOptions | None = None) -> SweepResult:
    """Swept operating points with continuation (each solution seeds the next)."""
    values = sweep_points(start, stop, step)
    sys = _System(circuit, transient=False)
    source = source.lower()
    wave = sys.sources.get(source)
    if wave is None or wave.kind != "dc":
        raise ValueError(f"{source!r} is not a DC voltage source")
    levels = sys.levels()
    cols, iterations, strategies = _march(
        sys, np.zeros(sys.n), {}, values,
        lambda val, x, memory: StampContext(levels={**levels, source: val}),
        options or SolverOptions(),
        lambda val: f"sweep failed at {source}={val:.6g}")
    columns = {k[1]: col for k, col in zip(sys.keys, cols[:sys.nv])}
    return SweepResult(source, values, columns, iterations, strategies)


def transient(circuit, tstop: float, dt: float,
              method: str = "backward-euler",
              options: SolverOptions | None = None) -> TransientResult:
    """Fixed-step transient integration.

    The t=0 row is the DC operating point with sources evaluated at t=0;
    memristor states start at w0, advance by the chosen implicit rule and
    stay in [0, 1] (every Newton update clamps them). Companion memory
    starts from the operating point's assembly: no capacitor current and
    the DC memristor drift rates. ``iterations`` and ``strategies`` have
    one entry per row, the operating point's first.
    """
    if method not in ("backward-euler", "trapezoidal"):
        raise ValueError(f"unknown method {method!r}")
    times = sweep_points(0.0, tstop, dt)
    if dt > tstop:
        raise ValueError(f"transient needs dt <= tstop, got {dt} > {tstop}")
    options = options or SolverOptions()
    _, (x_op, op_iters, op_strategy, memory) = _operating_point(circuit, options)
    sys = _System(circuit, transient=True)
    # the transient numbering extends the DC one by the memristor states
    x = np.concatenate((x_op, [e.params.w0 for e in circuit.elements
                               if e.kind == "xmr"]))
    cols, iterations, strategies = _march(
        sys, x, memory, times[1:],
        lambda t, x, memory: StampContext(
            mode="tran", dt=dt, method=method, levels=sys.levels(t),
            prev_step=_with_ground(x), hist=memory),
        options, lambda t: f"transient failed at t={t:.6g}s")
    cols = np.column_stack((x, cols))
    keys = sys.keys
    return TransientResult(
        times, {k[1]: col for k, col in zip(keys, cols[:sys.nv])},
        {k[1]: col for k, col in zip(keys[sys.states], cols[sys.states])},
        [op_iters] + iterations, [op_strategy] + strategies)


def residual_report(circuit, op: OpPoint,
                    options: SolverOptions | None = None, *,
                    overrides: dict[str, float] | None = None) -> dict:
    """Re-assemble the KCL residual at a solved point (zero gmin).

    Returns {unknown key: (|residual|, tolerance)}; useful for verifying
    the convergence contract independently of the Newton loop. Pass the
    same ``overrides`` the point was solved with.
    """
    options = options or SolverOptions()
    sys = _System(circuit, transient=False)
    ctx = StampContext(levels=sys.levels(0.0, overrides))
    xs = [op.raw[k] for k in sys.keys] + [0.0]
    _, res, scale, _ = sys.assemble(xs, ctx)
    tol = sys.abstol(options) + options.reltol * scale
    return {k: (abs(float(res[i])), float(tol[i])) for i, k in enumerate(sys.keys)}
