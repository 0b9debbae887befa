"""Assembly against the nested-list stamping it replaced.

``reference_assemble`` is the assembly as it was before the stamps wrote
values only: every stamp added into a nested-list Jacobian and residual
and a residual scale, row by row, in element order. The solver's
pattern-and-bincount assembly must give the same Jacobian, residual,
scale and companion memory bit for bit at any iterate, because
``np.bincount`` adds in input order, as these loops did.

The reference stamps still read the integration method and step, and
levels, slots and history by element name; the solver's stamps read the
coefficients of ``devices.integration`` and lists by element number. Both
sides are fed from the same random draw, so the comparison also judges
the coefficient form of the integration rule against its branch form.

The reference evaluates the devices through the public functions, which
share their laws with the solver's bound loads; ``test_device_laws``
pins those laws, and the comparison here judges what each load adds:
its slots, its own folded constants and the order of its values.
"""

import collections
import dataclasses
import struct
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtlsim import cells, devices, solver
from dtlsim.devices import (MemristorParams, StampContext, _window_grad,
                            _zener_limited_v, memristance,
                            memristor_state_rate, mosfet_defaults,
                            mosfet_ids_grad, window_factor, zener_ig)
from dtlsim.netlist import parse_netlist

from conftest import FD_BENCH_DC, FD_BENCH_TRAN

# every stamp kind in one circuit, with each kind's terminals off ground
# at least once: a cell in the ground row or column is dropped unseen
ALL_KINDS = """all kinds
v_1 a 0 pwl(0 0 1u 2.5)
v_2 e d 0.3
r_1 a b 1k
c_1 b e 1u
d_1 b e zen
m_1 c b d e nmod wl=2.0
m_2 d c a a pmod
r_2 c 0 10k
r_3 a c 22k
xmr_1 a d mem w0=0.4
r_4 d 0 4.7k
r_5 e 0 3.3k
.model zen zener
.model nmod mosfet type=n
.model pmod mosfet type=p
.model mem memristor k=1e6
"""


# --- the reference: nested-list stamping ----------------------------------------


class NestedAssembly:
    __slots__ = ("slots", "jac", "res", "scale", "memory")

    def __init__(self, slots, size):
        self.slots = slots
        self.jac = [[0.0] * size for _ in range(size)]
        self.res = [0.0] * size
        self.scale = [0.0] * size
        self.memory = {}


def _add_f(out, row, val):
    out.res[row] += val
    out.scale[row] += abs(val)


def _stamp_two_terminal(out, a, b, i, g):
    _add_f(out, a, i)
    _add_f(out, b, -i)
    ja, jb = out.jac[a], out.jac[b]
    ja[a] += g
    ja[b] -= g
    jb[a] -= g
    jb[b] += g


def _stamp_resistor(elem, x, ctx, out):
    a, b = out.slots[elem.name]
    g = 1.0 / elem.params.resistance
    _stamp_two_terminal(out, a, b, (x[a] - x[b]) * g, g)


def _stamp_capacitor(elem, x, ctx, out):
    if ctx.mode == "dc":
        out.memory[elem.name] = 0.0
        return
    a, b = out.slots[elem.name]
    v = x[a] - x[b]
    vp = ctx.prev_step[a] - ctx.prev_step[b]
    c = elem.params.capacitance
    if ctx.method == "trapezoidal":
        g = 2.0 * c / ctx.dt
        i = g * (v - vp) - ctx.hist.get(elem.name, 0.0)
    else:
        g = c / ctx.dt
        i = g * (v - vp)
    out.memory[elem.name] = i
    _stamp_two_terminal(out, a, b, i, g)


def _stamp_vsource(elem, x, ctx, out):
    a, b, k = out.slots[elem.name]
    level = ctx.levels[elem.name]
    i = x[k]
    _add_f(out, a, i)
    _add_f(out, b, -i)
    out.jac[a][k] += 1.0
    out.jac[b][k] -= 1.0
    _add_f(out, k, x[a])
    _add_f(out, k, -x[b])
    _add_f(out, k, -level)
    out.jac[k][a] += 1.0
    out.jac[k][b] -= 1.0


def _stamp_zener(elem, x, ctx, out):
    a, b = out.slots[elem.name]
    p = elem.params
    v = x[a] - x[b]
    vlim, _ = _zener_limited_v(p, v, ctx.prev_iter[a] - ctx.prev_iter[b])
    i0, g = zener_ig(p, vlim)
    _stamp_two_terminal(out, a, b, i0 + g * (v - vlim), g)


def _stamp_mosfet(elem, x, ctx, out):
    d, g_, s, b = cols = out.slots[elem.name]
    i, di_dvgs, di_dvds, di_dvsb = mosfet_ids_grad(
        elem.params, x[g_] - x[s], x[d] - x[s], x[s] - x[b])
    _add_f(out, d, i)
    _add_f(out, s, -i)
    jd, js = out.jac[d], out.jac[s]
    vals = (di_dvds, di_dvgs, -di_dvgs - di_dvds + di_dvsb, -di_dvsb)
    for col, val in zip(cols, vals):
        jd[col] += val
        js[col] -= val


def _stamp_memristor(elem, x, ctx, out):
    p = elem.params
    if ctx.mode == "dc":
        a, b = out.slots[elem.name]
        w = p.w0
    else:
        a, b, k = out.slots[elem.name]
        w = min(max(x[k], 0.0), 1.0)
    va, vb = x[a], x[b]
    r = memristance(p, w)
    g = 1.0 / r
    i = (va - vb) * g
    _stamp_two_terminal(out, a, b, i, g)
    rate = memristor_state_rate(p, w, i)
    out.memory[elem.name] = rate
    if ctx.mode == "dc":
        return
    di_dw = -(va - vb) * (p.r_on - p.r_off) / (r * r)
    out.jac[a][k] += di_dw
    out.jac[b][k] -= di_dw
    fw = window_factor(p, w)
    drate_dw = p.k_drift * (di_dw * fw + i * _window_grad(p, w))
    drate_dv = p.k_drift * fw * g
    _add_f(out, k, w - ctx.prev_step[k])
    if ctx.method == "trapezoidal":
        dte = 0.5 * ctx.dt
        _add_f(out, k, -dte * (rate + ctx.hist.get(elem.name, 0.0)))
    else:
        dte = ctx.dt
        _add_f(out, k, -dte * rate)
    jk = out.jac[k]
    jk[k] += 1.0 - dte * drate_dw
    jk[a] -= dte * drate_dv
    jk[b] += dte * drate_dv


REFERENCE_STAMPS = {
    "r": _stamp_resistor,
    "c": _stamp_capacitor,
    "v": _stamp_vsource,
    "d": _stamp_zener,
    "m": _stamp_mosfet,
    "xmr": _stamp_memristor,
}


def reference_assemble(sys_, xs, ctx):
    out = NestedAssembly(sys_.slots, sys_.n + 1)
    for e in sys_.elements:
        REFERENCE_STAMPS[e.kind](e, xs, ctx, out)
    n, nv = sys_.n, sys_.nv
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


# --- the comparison ---------------------------------------------------------------

CIRCUITS = {
    "saturation": cells.build_saturation_cell,
    "spike w0=0.3": lambda: cells.build_spike_cell(0.3),
    "spike w0=0.8": lambda: cells.build_spike_cell(0.8),
    "xor": cells.build_xor_circuit,
    "detector config1": lambda: cells.build_intensity_detector(
        cells.DETECTOR_CONFIG_1),
    "detector config2": lambda: cells.build_intensity_detector(
        cells.DETECTOR_CONFIG_2),
    "fd bench dc": lambda: parse_netlist(FD_BENCH_DC),
    "fd bench tran": lambda: parse_netlist(FD_BENCH_TRAN),
    "all kinds": lambda: parse_netlist(ALL_KINDS),
}

# (mode, method, gmin); each test id keeps the source scale that its
# context once also set, so that the suite's test names stay the same
CONTEXTS = [
    ("dc", "backward-euler", 0.0),
    ("dc", "backward-euler", 1e-3),
    ("dc", "backward-euler", 1e-12),
    ("tran", "backward-euler", 0.0),
    ("tran", "trapezoidal", 0.0),
    ("tran", "trapezoidal", 1e-4),
    ("tran", "backward-euler", 1e-12),
]
CONTEXT_IDS = [f"{mode}-{method}-{gmin}-{scale}" for (mode, method, gmin),
               scale in zip(CONTEXTS, (1.0, 1.0, 0.4, 1.0, 1.0, 0.7, 0.2))]


def _iterate(sys_, rng):
    """Node voltages and branch currents in a cell's range, memristor
    states a little past [0, 1] (the stamp clamps them), then ground."""
    x = rng.uniform(-2.0, 7.0, sys_.n)
    x[sys_.nv:] = rng.uniform(-1e-3, 1e-3, sys_.n - sys_.nv)
    x[sys_.states] = rng.uniform(-0.1, 1.1, len(x[sys_.states]))
    return x.tolist() + [0.0]


def _reference_view(sys_, circuit, mode):
    """The system as the reference's stamps see it: the netlist elements
    and their slots by name; in DC a memristor has its two nodes only, and
    the state rows and columns stay empty."""
    slots = {e.name: bound.slots[:2] if mode == "dc" and e.kind == "xmr"
             else bound.slots for e, bound in zip(circuit.elements,
                                                  sys_.elements)}
    return types.SimpleNamespace(elements=circuit.elements, slots=slots,
                                 n=sys_.n, nv=sys_.nv)


def _compare(circuit, mode, method, gmin, rng, trials):
    """Assemble ``circuit`` in one context mode at ``trials`` random
    iterates, by the solver and by the reference, and require the same
    bits."""
    sys_ = solver._System(circuit)
    oracle = _reference_view(sys_, circuit, mode)
    names = [e.name for e in circuit.elements]
    # DC holds each state at w0 by its own unit row: the reference, which
    # has no state rows in DC, is compared outside them
    states = np.arange(sys_.n)[sys_.states]
    w0 = np.array([e.params.w0 for e in circuit.elements if e.kind == "xmr"])
    history = {e.name: float(rng.uniform(-1e-3, 1e-3))
               for e in circuit.elements if e.kind in ("c", "xmr")}
    for trial in range(trials):
        xs = _iterate(sys_, rng)
        ref = types.SimpleNamespace(
            mode=mode, dt=float(rng.choice([1e-7, 1e-5])), method=method,
            gmin=gmin,
            levels=sys_.levels(float(rng.uniform(0.0, 1e-3))),
            prev_step=_iterate(sys_, rng) if mode == "tran" else [],
            # a point's first assembly has the iterate as its last one
            prev_iter=_iterate(sys_, rng) if trial % 3 else xs,
            hist=dict(history))
        h, carry = (devices.integration(method, ref.dt) if mode == "tran"
                    else (0.0, 0.0))
        ctx = StampContext(
            h=h, carry=carry, gmin=gmin,
            levels=ref.levels, prev_step=ref.prev_step,
            prev_iter=ref.prev_iter,
            hist=[history.get(name, 0.0) for name in names])
        ref.levels = {name: ref.levels[e.number]
                      for name, e in sys_.sources.items()}
        jac, res, scale, memory, _ = sys_.assemble(xs, ctx)
        want = reference_assemble(oracle, xs, ref)
        keep = np.arange(sys_.n)
        if mode == "dc":
            drift = np.array(xs)[states] - w0
            assert np.array_equal(jac[states], np.eye(sys_.n)[states])
            assert np.array_equal(res[states], drift)
            assert np.array_equal(scale[states], np.abs(drift))
            keep = keep[:sys_.states.start]
            assert not jac[np.ix_(keep, states)].any()
        block = np.ix_(keep, keep)
        assert np.array_equal(jac[block], want[0][block])
        assert np.array_equal(res[keep], want[1][keep])
        assert np.array_equal(scale[keep], want[2][keep])
        assert {name: memory[names.index(name)] for name in want[3]} == want[3]
        assert set(want[3]) == set(history)


@pytest.mark.parametrize("mode, method, gmin", CONTEXTS, ids=CONTEXT_IDS)
@pytest.mark.parametrize("name", list(CIRCUITS))
def test_assembly_equals_nested_list_reference(name, mode, method, gmin):
    rng = np.random.default_rng(
        [list(CIRCUITS).index(name), CONTEXTS.index((mode, method, gmin))])
    _compare(CIRCUITS[name](), mode, method, gmin, rng, 12)


def _positive(lo, hi):
    """Floats log-uniform in [lo, hi], written as a netlist number."""
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: repr(10.0 ** e))


@st.composite
def model_cards(draw):
    """The ``.model`` cards of ALL_KINDS with drawn parameters: either
    channel polarity for both MOSFETs, gamma and lambda 0 or not, any
    zener currents and knee, r_on equal to r_off or not, p_window 1-4."""
    def mosfet(name):
        kv = {"type": draw(st.sampled_from(["n", "p"])),
              "vth0": draw(st.sampled_from(["0.2", "0.45", "0.9"])),
              "kp": draw(_positive(1e-5, 1e-3)),
              "wl": draw(_positive(0.2, 20.0)),
              "gamma": draw(st.sampled_from(["0", "0.4"]) | _positive(1e-3, 1.5)),
              "lambda": draw(st.sampled_from(["0", "0.05"]) | _positive(1e-4, 0.3)),
              "phi2": draw(_positive(0.3, 1.0))}
        return f".model {name} mosfet " + " ".join(f"{k}={v}" for k, v in kv.items())
    r_on = float(draw(_positive(10.0, 1e5)))
    r_off = r_on * draw(st.just(1.0) | st.floats(1.0, 1e3))
    return "\n".join([
        mosfet("nmod"), mosfet("pmod"),
        f".model zen zener is={draw(_positive(1e-16, 1e-9))} "
        f"n={draw(_positive(1.0, 2.0))} vz={draw(_positive(1.0, 9.0))} "
        f"ibv={draw(_positive(1e-6, 1e-2))}",
        f".model mem memristor ron={r_on!r} roff={r_off!r} "
        f"k={draw(_positive(1e2, 1e7))} p={draw(st.integers(1, 4))}"])


@pytest.mark.parametrize("mode, method, gmin", CONTEXTS, ids=CONTEXT_IDS)
@settings(max_examples=25)
@given(cards=model_cards(), seed=st.integers(0, 2**32 - 1))
def test_assembly_with_drawn_models_equals_reference(cards, seed, mode,
                                                     method, gmin):
    # every circuit above uses default or near-default models: a constant
    # that a load folds wrongly for another parameter set shows only here
    text = ALL_KINDS[:ALL_KINDS.index(".model")] + cards + "\n"
    _compare(parse_netlist(text), mode, method, gmin,
             np.random.default_rng(seed), 3)


def test_context_without_last_iterate_linearizes_at_the_iterate():
    # a context built without prev_iter assembles as a point's first
    # assembly does, with the iterate as its own last one
    for text in (FD_BENCH_DC, FD_BENCH_TRAN):
        circuit = parse_netlist(text)
        assert any(e.kind == "d" for e in circuit.elements)
        sys_ = solver._System(circuit)
        rng = np.random.default_rng(11)
        for _ in range(20):
            xs = _iterate(sys_, rng)
            contexts = (StampContext(levels=sys_.levels()),
                        StampContext(levels=sys_.levels(), prev_iter=xs))
            without, with_ = (sys_.assemble(xs, ctx) for ctx in contexts)
            for a, b in zip(without, with_):
                assert np.array_equal(a, b)


def test_each_stamp_lists_its_pattern():
    # every value a stamp writes has a place in its kind's one pattern, in
    # every mode, and every place gets a value
    circuit = parse_netlist(ALL_KINDS)
    assert {e.kind for e in circuit.elements} == set(devices.KINDS)
    sys_ = solver._System(circuit)
    count = len(sys_.elements)
    rng = np.random.default_rng(7)
    prev = _iterate(sys_, rng)
    for ctx in [StampContext(levels=sys_.levels())] + [
            StampContext(*devices.integration(method, 1e-6),
                         levels=sys_.levels(), prev_step=prev,
                         hist=[0.0] * count)
            for method in ("backward-euler", "trapezoidal")]:
        xs = ctx.prev_iter = _iterate(sys_, rng)
        for e in sys_.elements:
            out = solver._Assembly(count)
            devices.stamp(e, xs, ctx, out)
            rows, cells_ = devices.KINDS[e.kind][1]
            assert len(out.values) == len(rows) + len(cells_), \
                (e.number, ctx.h, ctx.carry)
            width = len(e.slots)
            assert all(0 <= p < width for p in rows)
            assert all(0 <= p < width for cell in cells_ for p in cell)


@pytest.mark.parametrize("extra", [1, -1], ids=["one too many", "one too few"])
def test_a_mis_sized_load_fails_the_assembly(extra):
    # a load that writes one value too many or too few raises in the
    # assembly that ran it, and the assembly returns nothing
    sys_ = solver._System(parse_netlist(ALL_KINDS))
    k = next(i for i, e in enumerate(sys_.elements) if e.kind == "d")
    load = sys_.elements[k].load

    def mis_sized(x, ctx, out):
        load(x, ctx, out)
        if extra > 0:
            out.values.append(0.0)
        else:
            out.values.pop()
    sys_.elements[k] = dataclasses.replace(sys_.elements[k], load=mis_sized)
    xs = _iterate(sys_, np.random.default_rng(5))
    with pytest.raises((ValueError, struct.error)):
        sys_.assemble(xs, StampContext(levels=sys_.levels()))


# --- the MOSFET and memristor memo ------------------------------------------------


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _fresh(elem, x, ctx):
    """What a freshly bound load of elem, with no memo yet, writes at x."""
    out = solver._Assembly(elem.number + 1)
    devices.KINDS[elem.kind][0](elem.params, elem.slots, elem.number)(
        x, ctx, out)
    return out.values, out.memory[elem.number]


def _memo_checked(analysis):
    """Run ``analysis()`` with every MOSFET and memristor load compared,
    bit for bit, with a freshly bound load of its element at the same
    iterate and context; return the number of compared loads whose inputs
    (slot values and h) repeat their element's last ones, by kind."""
    stamp, last, repeats = devices.stamp, {}, collections.Counter()

    def checked(elem, x, ctx, out):
        start = len(out.values)
        stamp(elem, x, ctx, out)
        if elem.kind not in ("m", "xmr"):
            return
        values, memory = _fresh(elem, x, ctx)
        assert _bits(out.values[start:]) == _bits(values), elem
        assert _bits([out.memory[elem.number]]) == _bits([memory]), elem
        key = tuple(x[slot] for slot in elem.slots) + (ctx.h,)
        if elem.kind == "m" or ctx.h:   # a DC memristor load has no memo
            repeats[elem.kind] += last.get(elem.number) == key
        last[elem.number] = key
    with mock.patch.object(devices, "stamp", checked):
        analysis()
    return repeats


@pytest.mark.parametrize("method", ["backward-euler", "trapezoidal"])
def test_memoized_loads_equal_fresh_loads_over_an_xor_transient(method):
    circuit = cells.build_xor_circuit(phase=2e-5, edge=1e-6, dt=1e-6)
    d = next(d for d in circuit.analyses if d.kind == "tran")
    repeats = _memo_checked(
        lambda: solver.transient(circuit, d.tstop, d.dt, method))
    assert repeats["m"] and repeats["xmr"], repeats


def test_memoized_loads_equal_fresh_loads_over_a_detector_sweep():
    circuit = cells.build_intensity_detector(cells.DETECTOR_CONFIG_2)
    d = next(d for d in circuit.analyses if d.kind == "dc")
    repeats = _memo_checked(
        lambda: solver.dc_sweep(circuit, d.source, d.start, d.stop, d.step))
    assert repeats["m"], repeats


def test_memo_hit_reads_the_context_and_every_terminal():
    # one memristor load at the same iterate and h under two contexts that
    # differ in w_n, history and carry: the second call repeats the first's
    # inputs and must still write the second context's state row and
    # memory; then one MOSFET load whose bulk alone moves
    xmr = solver._Element("xmr", MemristorParams(k_drift=1e6), (0, 1, 2), 0,
                          None)
    load = devices.KINDS["xmr"][0](xmr.params, xmr.slots, xmr.number)
    x = [1.3, 0.2, 0.4, 0.0]
    written = []
    for method, dt, prev_step, hist in (("backward-euler", 1e-6,
                                         [1.1, 0.3, 0.38, 0.0], [2e3]),
                                        ("trapezoidal", 2e-6,
                                         [0.9, 0.1, 0.41, 0.0], [-5e2])):
        ctx = StampContext(*devices.integration(method, dt),
                           prev_step=prev_step, hist=hist)
        out = solver._Assembly(1)
        load(x, ctx, out)
        values, memory = _fresh(xmr, x, ctx)
        assert _bits(out.values) == _bits(values), method
        assert _bits(out.memory) == _bits([memory]), method
        written.append(out.values)
    assert written[0][2:4] != written[1][2:4]   # the contexts differ there

    m = solver._Element("m", mosfet_defaults("n"), (0, 1, 2, 3), 0, None)
    load = devices.KINDS["m"][0](m.params, m.slots, m.number)
    written = []
    for vb in (0.0, -1.0):
        x = [2.0, 1.5, 0.0, vb, 0.0]
        out = solver._Assembly(1)
        load(x, StampContext(), out)
        assert _bits(out.values) == _bits(_fresh(m, x, StampContext())[0]), vb
        written.append(out.values)
    assert written[0] != written[1]   # the body effect moves the current
