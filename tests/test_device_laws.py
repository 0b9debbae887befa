"""The device laws pinned bit for bit over a fixed grid.

Each law's outputs on its grid are written as ``float.hex`` (a
``DomainError`` as its name) and digested; the digests were recorded from
the laws as they were written before the stamps were bound once per
circuit. Folding a constant, merging two bodies or reordering one
operation changes a digest, where the frozen anchors and the
finite-difference checks in ``test_devices`` would pass.
"""

import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from dtlsim.devices import (KINDS, MemristorParams, MosfetParams,
                            StampContext, ZenerParams, _window_grad,
                            _zener_limited_v, memristance,
                            memristor_state_rate, mosfet_defaults,
                            mosfet_ids_grad, window_factor, zener_ig)
from dtlsim.errors import DomainError

MOSFETS = [
    mosfet_defaults("n"),
    mosfet_defaults("p"),
    MosfetParams(gamma=0.0),
    MosfetParams(lam=0.0),
    MosfetParams(polarity="p", vth0=0.3, kprime=85e-6, w_over_l=3.7,
                 lam=0.12, gamma=0.9, phi2=0.6),
]
# vsb = -1.2 forward-biases the source-bulk junction, where the body term
# is held at sqrt(0), and a negative vds swaps drain and source
MOSFET_GRID = list(itertools.product(
    (-2.5, -0.4, 0.2, 0.45, 0.9, 1.6, 3.3),
    (-3.0, -0.7, -0.05, 0.0, 0.05, 0.7, 3.0),
    (-1.2, -0.3, 0.0, 0.4, 1.5)))

ZENERS = [ZenerParams(),
          ZenerParams(i_sat=3e-12, n=1.05, v_thermal=0.0259, vz=5.6,
                      i_bv=2e-4)]
# past +-22 V (about 700 thermal voltages) an exponential runs on its
# linear tail above _EXP_CAP
ZENER_VOLTS = np.linspace(-40.0, 40.0, 161).tolist() + [
    -26.0, -5.2, -4.2, -0.0, 0.7, 21.0, 21.7, 22.0, 30.0]
LIMIT_VOLTS = (-30.0, -6.0, -4.6, -4.2, -1.0, 0.0, 0.5, 0.7, 0.9, 2.0, 25.0)

MEMRISTORS = [MemristorParams(p_window=1),
              MemristorParams(p_window=2),
              MemristorParams(r_on=50.0, r_off=2e6, k_drift=3.3e3,
                              p_window=3),
              MemristorParams(r_on=5e3, r_off=5e3, p_window=3)]
STATES = np.linspace(0.0, 1.0, 21).tolist() + [0.123, 0.999]


def _calls(law):
    """(function, arguments) of every call on ``law``'s grid."""
    if law == "mosfet_ids_grad":
        return [(mosfet_ids_grad, (p, *point))
                for p in MOSFETS for point in MOSFET_GRID]
    if law == "zener_ig":
        return [(zener_ig, (p, v)) for p in ZENERS for v in ZENER_VOLTS]
    if law == "_zener_limited_v":
        return [(_zener_limited_v, (p, v, vprev)) for p in ZENERS
                for v in LIMIT_VOLTS for vprev in LIMIT_VOLTS]
    if law == "memristor_state_rate":
        return [(memristor_state_rate, (p, w, i)) for p in MEMRISTORS
                for w in STATES for i in (-2e-3, 0.0, 7e-5)]
    fn = {"memristance": memristance, "window_factor": window_factor,
          "_window_grad": _window_grad}[law]
    return [(fn, (p, w)) for p in MEMRISTORS for w in STATES + [-0.1, 1.1]]


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    if isinstance(value, bool):
        return str(value)
    return float.hex(value)


def _digest(law) -> str:
    lines = []
    for fn, args in _calls(law):
        try:
            lines.append(_text(fn(*args)))
        except DomainError:
            lines.append("DomainError")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


PINNED = {
    "mosfet_ids_grad":
        "57caa2c6b88ffb93c787cf81fc065d7c888133f9f8c6d2d24dc7ad6314917321",
    "zener_ig":
        "efbf27caebe32d728dd51f36a449f5dfd47a0d0f75f80beaab188c967ced6e49",
    "_zener_limited_v":
        "41136f8923bc9370f88b02b570bfbf1e3c764af813741aa7b8e8b1636cefa9fd",
    "memristance":
        "4fe84f0e13d06c54fb84762bec7e3d37038b818f0e65d64ae8effad68596eb33",
    "window_factor":
        "92af631968cac5467c4ed4641811201ae4c5568324139c688b54c7c5734a4cc8",
    "memristor_state_rate":
        "4a6333831fbc2144abe48fdb6cce8234465059d36d0aae822d73462fa1cbc441",
    "_window_grad":
        "599b770d378a19ae31186ac600ec1acd7911d6c1b89189d06291d9e9a634848f",
}


@pytest.mark.parametrize("law", list(PINNED))
def test_device_law_is_pinned_bit_for_bit(law):
    assert _digest(law) == PINNED[law]


@pytest.mark.parametrize("p", ZENERS, ids=["default", "custom"])
def test_zener_load_is_its_limit_then_its_law(p):
    # the bound load, bit for bit: limit against the last iterate, the law
    # at the limited voltage, the tangent back to the iterate's voltage;
    # with no last iterate the load linearizes at the iterate itself
    load = KINDS["d"][0](p, (0, 1), 0)
    cases = [(v, [vprev, 0.0]) for v in LIMIT_VOLTS for vprev in LIMIT_VOLTS]
    cases += [(v, None) for v in ZENER_VOLTS]
    limited = set()
    for v, prev_iter in cases:
        out = SimpleNamespace(values=[], limited=False)
        load([v, 0.0], StampContext(prev_iter=prev_iter), out)
        vlim, moved = _zener_limited_v(p, v, v if prev_iter is None
                                       else prev_iter[0])
        i0, g = zener_ig(p, vlim)
        want = (i0 + g * (v - vlim), g, moved)
        got = (out.values[0], out.values[2], out.limited)
        assert _text(got) == _text(want), (v, prev_iter)
        limited.add(moved)
    assert limited == {False, True}
