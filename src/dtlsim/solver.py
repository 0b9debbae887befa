"""Modified nodal analysis with damped Newton iteration.

Unknowns are numbered once per circuit (``_System``), the same for every
analysis: node voltages (sorted names, ground ``0`` excluded), then
voltage-source branch currents (element order), then memristor states
(element order). In DC a state's row holds it at w0 and couples to no
node, so the node equations are those of the frozen circuit; a transient
starts from the operating point's own solution. The iterate is a flat
vector in that order; ``_System`` binds each element once to its unknown
numbers and its position, which indexes the per-point lists (source
levels, companion memory). Ground takes one extra slot past the last
unknown: stamps read 0.0 from it and write into its row and column like
any other, and the solver drops them. The residual form is used
throughout: F(x) collects KCL sums per node, source voltage equations
and implicit state equations, and Newton solves J dx = -F.

Assembly is split as in SPICE's setup and load. When it numbers the
unknowns, ``_System`` binds each element's stamp once (``devices.KINDS``
holds a binder and a pattern per kind): the binder returns the element's
load, which holds its slots, its position and every constant of its
parameters, and the pattern, one per kind in every mode, is mapped
through the slots into one flat index over the residual bins, then the
Jacobian bins. Each assembly then only runs the loads, one
``devices.stamp`` call per element, which extend one Python list with
their values. One ``struct`` pack of the list's fixed length writes it
as doubles into the first half of a buffer that ``_System`` owns
(``struct.error`` if a load wrote too many or too few values), and one
``np.abs`` writes their magnitudes into the second half. One
``np.bincount`` then adds the whole buffer into the bins [residual n |
Jacobian n*n, row-major | scale n | one dump bin]: the values into the
residual and Jacobian bins, the residual magnitudes into the scale bins;
ground's row, column and residual and every Jacobian magnitude go into
the dump bin, which is dropped, so the Jacobian is one C-contiguous
reshape of its bins. It adds in input order, so each sum is the one the
stamps' ``+=`` would give. A
MOSFET's or a transient memristor's load reuses its last values when its
inputs repeat bit for bit (see the stamps section of ``devices``); the
loads are bound per ``_System``, so no memo outlives one analysis.

Every analysis starts from ``_System``, the one place that validates the
circuit and runs the structural checks: every node needs a DC path to
ground (the offending node is named) and no voltage sources may form a
loop (the loop's sources are named). Each solved point gets a fresh
``StampContext`` whose ``levels`` hold every source's level at that point
(``_System.levels``): a copy of the DC sources' levels, fixed once per
circuit, with each time-varying source evaluated once. Every analysis, the
operating point too, is one point loop (``_march``) from ``_System.start``:
each point starts from the last solution, and its iterations and winning
strategy are recorded; a transient's t=0 row is its operating point.

A transient step's context carries the coefficients (h, carry) of its
integration rule (``devices.integration``); DC is h == 0. The rule is one
per step, not one per analysis: a backward-Euler run takes it at every
step, while a trapezoidal run restarts with backward Euler on a step that
has a source corner strictly inside it and on the step after it, as
SPICE resets the order at a breakpoint (``transient`` classifies the
steps once, before the first, asking only the time-varying sources).
Companion memory (capacitor currents, memristor drift rates) is computed
only by the stamps: every assembly records it, and the record of the
assembly that converged a step seeds the next step.

Robustness ladder for each DC point (``_LADDER``, after SPICE2's): a
strategy is a list of gmin rungs that Newton solves in turn, ending on
the circuit itself, gmin 0. Plain Newton is that rung alone, so linear
circuits are exact; a geometric gmin ladder (``_GMIN_RUNGS``) is tried
only when plain Newton fails, and wins if its every rung converges. As
in SPICE3's transient loop, that is the DC points' recovery only: a time
step runs plain Newton alone. The tolerances and the iteration cap are
module constants. Update
damping clamps per-component steps at ``_DAMPING_LIMIT`` in every mode,
on the unknowns of zeners and MOSFETs alone: the junctions and channels
that SPICE2 limits. A memristor's unknowns take the full step, its state
boxed in [0, 1], and purely linear circuits converge in exactly one
Newton iteration. The residual tolerances, the step bounds and the state
box are built once per circuit (``_System.bounds``), as are Newton's
buffers for |F| and its tolerance test and the gmin rungs' diagonal.

Each Newton update is one LAPACK call, ``solve1``: the ``dd->d`` gufunc
under ``numpy.linalg.solve``, without its Python wrapper, on the residual
itself: J d = F gives d = -dx bit for bit, as LU is linear in the
right-hand side. d is clamped by the symmetric step bounds, taken from
the iterate and boxed in its own buffer. The tests count with
``np.count_nonzero``: the update's finite components, and the rows within
the tolerance formed in place in the assembly's fresh scale (a NaN fails
``<=``, so it never converges). Every analysis enters
``np.errstate(all="ignore")`` once, in ``_march``, and restores numpy's
error state as it returns or raises; the loads compute on Python floats,
so the scope hides nothing of theirs. A singular or overflowing step
thus comes back non-finite and raises SingularMatrix naming the first
non-finite row of the Jacobian, or in a finite Jacobian the unknown with
the largest component of its null vector (its last right-singular vector).

No analysis makes a reference cycle, so a process may run it with the
cycle collector off (the ``dtlsim`` process does): a failed strategy
keeps its exception's text and residual, not the exception, whose
traceback would hold the frame that holds it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import solve1

from . import devices
from .devices import StampContext
from .errors import DomainError, NoConvergence, SingularMatrix

_RELTOL = 1e-3
# absolute residual tolerance of a row by its unknown's kind: KCL rows
# (node voltages) are currents, source rows (branch currents) voltages
# and state rows dimensionless
_ABSTOL = {"v": 1e-9, "i": 1e-6, "w": 1e-12}
_MAX_NEWTON_ITERS = 100
_MAX_POINTS = 10**6   # points of a sweep, rows of a transient
_GRID_SLACK = 1e-9   # steps: a stop or corner this close to the grid is on it
_DAMPING_LIMIT = 0.5   # Newton step bound on zener and MOSFET unknowns
_GMIN_FINAL = 1e-12
# gmin stepping: 1e-3 divided by 10 while above _GMIN_FINAL, which ends on
# the near-duplicate 1.0000000000000002e-12, then _GMIN_FINAL and the circuit
_GMIN_RUNGS = [1e-3]
while _GMIN_RUNGS[-1] / 10.0 > _GMIN_FINAL:
    _GMIN_RUNGS.append(_GMIN_RUNGS[-1] / 10.0)
# (name, gmin rungs) of each strategy in turn; each ends on the circuit
_LADDER = (("newton", (0.0,)),
           ("gmin-stepping", (*_GMIN_RUNGS, _GMIN_FINAL, 0.0)))


class OpPoint(dict):
    """Node name -> voltage mapping with solve metadata attached; ``raw``
    maps every unknown's key (``("v", node)``, ``("i", source)``,
    ``("w", memristor)``) to its value."""

    def __init__(self, voltages: dict[str, float], raw: dict, iterations: int,
                 strategy: str):
        super().__init__(voltages)
        self.raw = raw
        self.iterations = iterations
        self.strategy = strategy


class _Voltages:
    def column(self, node: str) -> np.ndarray:
        """The voltages of ``node``; DomainError if the result has none."""
        if node not in self.voltages:
            raise DomainError(f"no node {node!r} among {sorted(self.voltages)}")
        return self.voltages[node]


@dataclass
class SweepResult(_Voltages):
    source: str
    inputs: np.ndarray
    voltages: dict[str, np.ndarray]
    iterations: list[int] = field(default_factory=list)
    strategies: list[str] = field(default_factory=list)


@dataclass
class TransientResult(_Voltages):
    """Rows of a transient; ``iterations``, ``strategies`` and ``rules``
    (the integration rule of each row, "dc" for the operating point) have
    one entry per row, the operating point's first."""

    times: np.ndarray
    voltages: dict[str, np.ndarray]
    states: dict[str, np.ndarray]
    iterations: list[int] = field(default_factory=list)
    strategies: list[str] = field(default_factory=list)
    rules: list[str] = field(default_factory=list)


# a netlist element bound to its unknown numbers, position and stamp load
@dataclass(frozen=True, slots=True)
class _Element:
    kind: str
    params: object
    slots: tuple[int, ...]
    number: int
    load: object


class _Assembly:
    """Stamp target of one assembly: the value list that the stamps
    extend in element order (see the stamps section of ``devices``)."""

    __slots__ = ("values", "memory", "limited")

    def __init__(self, count: int):
        self.values = []
        self.memory = [0.0] * count
        self.limited = False


class _System:
    """Frozen unknown numbering of one circuit, shared by every analysis
    of it; the one place that validates the circuit and runs the
    structural checks."""

    def __init__(self, circuit):
        circuit.validate()
        _check_dc_paths(circuit)
        _check_source_loops(circuit)
        elements = circuit.elements
        keys = [("v", nd) for nd in circuit.nodes if nd != devices.GROUND]
        self.nv = len(keys)
        memristors = [e for e in elements if e.kind == "xmr"]
        keys += [("i", e.name) for e in elements if e.kind == "v"]
        keys += [("w", e.name) for e in memristors]
        self.keys = keys
        self.n = n = len(keys)
        self.states = slice(n - len(memristors), n)
        # the iterate every analysis starts from: zeros, the states at w0
        self.start = np.zeros(n)
        self.start[self.states] = [e.params.w0 for e in memristors]
        index = {k: i for i, k in enumerate(keys)}
        index[("v", devices.GROUND)] = n   # the ground slot
        self.dump = dump = n * (n + 2)   # the bin past the scale's
        row = [*range(n), dump]   # each slot's residual bin
        self.elements = []
        flat = []
        for number, e in enumerate(elements):
            slots = tuple(index[("v", nd)] for nd in e.nodes)
            if e.kind == "v":
                slots += (index[("i", e.name)],)
            elif e.kind == "xmr":
                slots += (index[("w", e.name)],)
            bind, (rows, cells) = devices.KINDS[e.kind]
            self.elements.append(_Element(e.kind, e.params, slots, number,
                                          bind(e.params, slots, number)))
            flat += [row[slots[r]] for r in rows]
            flat += [n * (slots[r] + 1) + slots[c]
                     if max(slots[r], slots[c]) < n else dump for r, c in cells]
        self.sources = {e.name: bound for e, bound in zip(elements, self.elements)
                        if e.kind == "v"}
        # the levels of the DC sources, fixed; the other sources vary in time
        self.fixed = [0.0] * len(elements)
        self.varying = []
        for e in self.sources.values():
            if e.params.kind == "dc":
                self.fixed[e.number] = e.params.value()
            else:
                self.varying.append(e)
        # bins [residual n | Jacobian n*n, row-major | scale n | dump]: the
        # values' index, then their magnitudes'; ground's row, column and
        # residual and every Jacobian magnitude go into the dump bin
        index = np.array(flat, dtype=np.intp)
        self.index = np.concatenate(
            [index, np.where(index < n, n * (n + 1) + index, dump)])
        # the values, then their magnitudes; pack_into fills the first half
        # (struct.error unless the list has one value per bin)
        self.buffer = np.empty(2 * len(flat))
        self.values, self.magnitudes = np.split(self.buffer, 2)
        self.pack_into = struct.Struct(f"{len(flat)}d").pack_into
        # Newton's bounds: the absolute residual tolerance per row, the step
        # bound on zener and MOSFET unknowns (a memristor's laws are
        # polynomial) and its negative, and the box of every unknown,
        # [0, 1] on the states
        abstol = np.array([_ABSTOL[k[0]] for k in keys])
        step = np.full(n + 1, np.inf)
        for e in self.elements:
            if e.kind in ("d", "m"):
                step[list(e.slots)] = _DAMPING_LIMIT
        low, high = np.full(n, -np.inf), np.full(n, np.inf)
        low[self.states], high[self.states] = 0.0, 1.0
        self.bounds = abstol, step[:n], -step[:n], low, high
        # Newton's workspace, |F| and the rows within tolerance, and the
        # node diagonal that a gmin rung loads
        self.absres, self.within = np.empty(n), np.empty(n, dtype=bool)
        self.diag = np.arange(self.nv)

    def assemble(self, xs: list[float], ctx: StampContext):
        """Jacobian, residual, residual scale, companion memory and the
        junction-limiting flag at the iterate ``xs`` (unknowns, then 0.0
        for the ground slot)."""
        out = _Assembly(len(self.elements))
        stamp = devices.stamp
        for e in self.elements:
            stamp(e, xs, ctx, out)
        n, nv = self.n, self.nv
        self.pack_into(self.buffer, 0, *out.values)
        np.abs(self.values, out=self.magnitudes)
        flat = np.bincount(self.index, self.buffer, self.dump + 1)
        res = flat[:n]
        jac = flat[n:n * (n + 1)].reshape(n, n)
        scale = flat[n * (n + 1):self.dump]
        if ctx.gmin:
            diag = self.diag
            jac[diag, diag] += ctx.gmin
            leak = ctx.gmin * np.array(xs[:nv])
            res[:nv] += leak
            scale[:nv] += np.abs(leak)
        return jac, res, scale, out.memory, out.limited

    def levels(self, t: float = 0.0) -> list[float]:
        """Every voltage source's level at time t by element number, 0.0
        at the other elements."""
        levels = self.fixed.copy()
        for e in self.varying:
            levels[e.number] = e.params.value(t)
        return levels


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
    """The solution dx of jac dx = rhs, by one LAPACK call. Inside an
    analysis' error-state scope a singular jac gives a non-finite dx
    without a warning; a non-finite dx raises SingularMatrix."""
    dx = solve1(jac, rhs)
    if np.count_nonzero(np.isfinite(dx)) == dx.size:
        return dx
    # the first non-finite row; LAPACK's SVD may never return on one
    weight = ~np.isfinite(jac).all(axis=1)
    if not weight.any():
        try:
            weight = np.abs(np.linalg.svd(jac)[2][-1])
        except np.linalg.LinAlgError:   # no SVD: name the first unknown
            pass
    k = keys[int(weight.argmax())]
    raise SingularMatrix(f"singular system at unknown {k!r}", node=k[1])


def _newton(sys: _System, x: np.ndarray,
            ctx: StampContext) -> tuple[np.ndarray, int, list]:
    """Damped Newton from x within ``sys.bounds``; returns the
    solution, the iteration count and the companion memory recorded by
    the converged assembly. An assembly in which junction limiting moved
    a voltage does not end the loop: its residual is not the iterate's."""
    abstol, step, back, low, high = sys.bounds
    assemble, keys, n = sys.assemble, sys.keys, sys.n
    # plain ufuncs, not np.clip or a fancy index: call overhead dominates
    maximum, minimum, subtract = np.maximum, np.minimum, np.subtract
    absolute, less_equal, count = np.abs, np.less_equal, np.count_nonzero
    absres, within = sys.absres, sys.within
    xs = ctx.prev_iter = _with_ground(x)
    iters = 0
    while True:
        jac, res, scale, memory, limited = assemble(xs, ctx)
        scale *= _RELTOL   # the tolerance, in place
        scale += abstol
        absolute(res, out=absres)
        if not limited and count(less_equal(absres, scale, out=within)) == n:
            return x, iters, memory
        if iters >= _MAX_NEWTON_ITERS:
            last_res = float(absres.max())
            raise NoConvergence(
                f"no convergence after {iters} Newton iterations "
                f"(max residual {last_res:.3e})", residual=last_res)
        d = _lu_solve(jac, res, keys)
        maximum(d, back, out=d)
        minimum(d, step, out=d)
        x = subtract(x, d, out=d)
        maximum(x, low, out=x)
        minimum(x, high, out=x)
        ctx.prev_iter = xs
        xs = _with_ground(x)
        iters += 1


def _solve_point(sys: _System, x0: np.ndarray, ctx: StampContext,
                 kind: str) -> tuple[np.ndarray, int, str, list]:
    """Newton with a gmin-stepping fallback at DC points; ctx.gmin is scratch.

    Each strategy of ``_LADDER`` walks its gmin rungs from x0, each rung's
    solution starting the next; the first strategy whose every rung
    converges wins. The last rung is the circuit itself, so no point is
    reported solved on a gmin-loaded solution. A time step (h > 0) runs
    the first strategy, plain Newton, alone.

    Returns the solution, the total iteration count, the strategy that
    won and the companion memory of the solution's assembly; a failure
    names the ``kind`` of point ("operating point", "sweep point" or
    "time step").
    """
    step = ctx.h > 0.0
    for name, rungs in _LADDER[:1] if step else _LADDER:
        x, total = x0, 0
        try:
            for ctx.gmin in rungs:
                x, iters, memory = _newton(sys, x, ctx)
                total += iters
        except (NoConvergence, SingularMatrix) as exc:
            # the text, not the exception: its traceback holds this frame
            last, residual = str(exc), getattr(exc, "residual", None)
            continue
        return x, total, name, memory
    tried = "newton" if step else "newton and gmin stepping both"
    raise NoConvergence(f"{kind} did not converge ({tried} failed: {last})",
                        residual=residual)


def _march(sys: _System, points: list[float], context, where, kind: str):
    """Solve the points in order from ``sys.start``, each from the last
    solution and its companion memory through a fresh ``context(point, x,
    memory)``; a failure names the point a ``kind`` (a "time step" at
    h > 0) and is re-raised naming ``where(point)`` unless ``where`` is
    None. Returns the solutions as columns, the iterations and strategies."""
    cols = np.empty((sys.n, len(points)))
    iterations, strategies = [], []
    x, memory = sys.start, []
    with np.errstate(all="ignore"):
        for i, at in enumerate(points):
            ctx = context(at, x, memory)
            try:
                x, iters, strategy, memory = _solve_point(
                    sys, x, ctx, "time step" if ctx.h > 0.0 else kind)
            except NoConvergence as exc:
                if where is None:
                    raise
                raise NoConvergence(f"{where(at)}: {exc}",
                                    residual=exc.residual, at=at) from exc
            cols[:, i] = x
            iterations.append(iters)
            strategies.append(strategy)
    return cols, iterations, strategies


def dc_operating_point(circuit) -> OpPoint:
    """Solve the DC operating point; memristor states stay frozen at w0.

    The sources sit at their t=0 levels and Newton starts from zero, the
    memristor states from w0. Returns an OpPoint mapping node name ->
    voltage (ground excluded), with ``raw`` (all unknowns, the memristor
    states at w0 among them), ``iterations`` and ``strategy`` attached.
    """
    sys = _System(circuit)
    cols, (iters,), (strategy,) = _march(
        sys, [0.0], lambda at, x, memory: StampContext(levels=sys.levels()),
        None, "operating point")
    raw = dict(zip(sys.keys, cols[:, 0].tolist()))
    voltages = {k[1]: v for k, v in raw.items() if k[0] == "v"}
    return OpPoint(voltages, raw, iters, strategy)


def sweep_points(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop (within _GRID_SLACK steps)."""
    if not (all(map(math.isfinite, (start, stop, step)))
            and stop > start and step > 0.0):
        raise DomainError(f"range needs finite start < stop and step > 0, got "
                          f"{start}, {stop}, {step}")
    steps = (stop - start) / step + _GRID_SLACK
    if not steps < _MAX_POINTS:
        raise DomainError(f"{np.floor(steps) + 1:.7g} points from {start} to "
                          f"{stop} exceed the limit of {_MAX_POINTS}")
    return start + step * np.arange(int(math.floor(steps)) + 1)


def dc_sweep(circuit, source: str, start: float, stop: float,
             step: float) -> SweepResult:
    """Swept operating points with continuation (each solution seeds the next)."""
    values = sweep_points(start, stop, step)
    sys = _System(circuit)
    swept = None
    if isinstance(source, str):   # a list or set would not hash
        source = source.lower()
        swept = sys.sources.get(source)
    if swept is None or swept.params.kind != "dc":
        raise DomainError(f"{source!r} is not a DC voltage source")
    levels = sys.levels()

    def context(val, x, memory):   # points are solved one at a time
        levels[swept.number] = val
        return StampContext(levels=levels)
    cols, iterations, strategies = _march(
        sys, values.tolist(), context,
        lambda val: f"sweep failed at {source}={val:.6g}", "sweep point")
    columns = {k[1]: col for k, col in zip(sys.keys, cols[:sys.nv])}
    return SweepResult(source, values, columns, iterations, strategies)


def transient(circuit, tstop: float, dt: float,
              method: str = "backward-euler") -> TransientResult:
    """Fixed-step transient integration.

    The t=0 row is the DC operating point with sources evaluated at t=0;
    memristor states start at w0, advance by the chosen implicit rule and
    stay in [0, 1] (every Newton update clamps them). Companion memory
    starts from the operating point's assembly: no capacitor current and
    the DC memristor drift rates.

    Under the trapezoidal rule, a step with a source corner strictly
    inside it (``SourceWaveform.corners``; a corner within _GRID_SLACK
    dt of a grid time lies on the grid) runs as backward Euler, which does
    not ring after the corner. So does the step after it: the memory the
    straddling step recorded is its average over the corner, not the
    derivative the trapezoidal rule needs. ``iterations``, ``strategies``
    and ``rules``, the rule each row ran, have one entry per row, the
    operating point's first.
    """
    rule = devices.integration(method, dt)
    times = sweep_points(0.0, tstop, dt)
    if dt > tstop:
        raise DomainError(f"transient needs dt <= tstop, got {dt} > {tstop}")
    sys = _System(circuit)
    points = times.tolist()
    restarts = set()   # end times of the steps run as backward Euler
    if method == "trapezoidal":
        slack = _GRID_SLACK * dt
        waves = [e.params for e in sys.varying]   # a DC source has no corner
        for k in range(1, len(points)):
            a, b = points[k - 1] + slack, points[k] - slack
            for w in waves:
                if w.corners(a, b):
                    restarts.update(points[k:k + 2])
                    break
    rules = ["dc"] + ["backward-euler" if t in restarts else method
                      for t in points[1:]]
    euler = devices.integration("backward-euler", dt)

    def context(t, x, memory):
        if t == 0.0:
            return StampContext(levels=sys.levels())
        h, carry = euler if t in restarts else rule
        return StampContext(h=h, carry=carry, levels=sys.levels(t),
                            prev_step=_with_ground(x), hist=memory)
    cols, iterations, strategies = _march(
        sys, points, context,
        "transient failed at t={:.6g}s".format, "operating point")
    keys = sys.keys
    return TransientResult(
        times, {k[1]: col for k, col in zip(keys, cols[:sys.nv])},
        {k[1]: col for k, col in zip(keys[sys.states], cols[sys.states])},
        iterations, strategies, rules)
