"""Reference dendritic cells built as netlists, plus response analysis.

Builders return parsed :class:`~dtlsim.netlist.Circuit` objects with an
embedded analysis directive, constructed by generating netlist text and
feeding it through the parser. That keeps every cell expressible in the
on-disk format and makes serialize/parse round-trips hold by construction.

The saturation cell is a memristor in series with a grounded zener: the
output tracks the input until the zener breakdown pins it near 4.2 V.
The spike cell drives the output directly through a series resistor and
crushes it past a threshold set by an inverter whose pull-down current
runs through a memristor; the state variable w0 therefore moves the
input at which the output peaks. The XOR neuron uses two such branches
(each summing one input and the complement of the other through matched
memristors into a zener-clamped node) followed by skewed inverters and a
resistively averaged soma stage. The intensity detector cascades a
body-biased inverter, a memristor/zener coupler and a second inverter so
the output goes high only inside a band of input voltages.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NoBand, NotUnimodal
from .netlist import Circuit, _fmt as _f, parse_netlist
from .solver import _MAX_POINTS, SweepResult, TransientResult

__all__ = [
    "BandResponse",
    "DetectorConfig",
    "DETECTOR_CONFIG_1",
    "DETECTOR_CONFIG_2",
    "build_intensity_detector",
    "build_saturation_cell",
    "build_spike_cell",
    "build_xor_circuit",
    "extract_band",
    "peak_input",
    "settle_phase_levels",
    "smooth3",
]


def _check_finite(**values: float) -> None:
    """Name the first non-finite value before any netlist text is built."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _check_w0(w0: float) -> None:
    if not 0.0 <= w0 <= 1.0:
        raise DomainError(f"w0 must lie in [0, 1], got {w0}")


def build_saturation_cell(vdd: float = 6.0, w0: float = 0.5) -> Circuit:
    """Memristor feeding a zener-clamped output node.

    The embedded ``.dc`` directive sweeps the input from 0 to ``vdd``.
    Below breakdown the zener only leaks, so the output follows the
    input minus a negligible drop; past breakdown the output saturates
    just under the 4.2 V zener voltage.
    """
    _check_finite(vdd=vdd)
    _check_w0(w0)
    if vdd <= 0:
        raise DomainError(f"vdd must be positive, got {vdd}")
    text = f"""saturation cell
v_in in 0 0.0
xmr_mem in out mem w0={_f(w0)}
d_clamp 0 out zen
.model mem memristor
.model zen zener
.dc v_in 0.0 {_f(vdd)} {_f(vdd / 120.0)}
"""
    return parse_netlist(text)


def build_spike_cell(w0: float = 0.5, vdd: float = 6.0) -> Circuit:
    """Spiking cell: the output rises with the input, then is crushed.

    A weak inverter (m_inv_*) flips once the input passes a threshold
    set by the memristor degenerating its pull-down source; its output
    then gates m_crush, which pulls the output node low through the
    100k series resistor. Larger w0 means lower memristance, less
    degeneration and an earlier flip, so the response peak moves to a
    lower input voltage. The zener bounds the peak height if the flip
    threshold exceeds its breakdown.
    """
    _check_finite(vdd=vdd)
    _check_w0(w0)
    if vdd <= 0:
        raise DomainError(f"vdd must be positive, got {vdd}")
    text = f"""spike cell
v_in in 0 0.0
v_dd vdd 0 {_f(vdd)}
r_ser in out 100k
d_clamp 0 out zen
m_inv_p pinv in vdd vdd pmod wl=0.05
m_inv_n pinv in dgn 0 nmod wl=0.05
xmr_th dgn 0 mem w0={_f(w0)}
m_crush 0 pinv out out pmod wl=14.0
.model pmod mosfet type=p
.model nmod mosfet type=n
.model zen zener
.model mem memristor
.dc v_in 0.0 {_f(vdd)} {_f(vdd / 120.0)}
"""
    return parse_netlist(text)


def build_xor_circuit(vdd: float = 6.0, w0: float = 0.5,
                      phase: float = 1e-3, edge: float = 1e-6,
                      dt: float | None = None,
                      load_cap: float = 100e-12) -> Circuit:
    """Two-branch XOR neuron driven by a four-phase input pattern.

    inv1/inv2 complement the inputs. Each branch averages one input and
    the other input's complement through two matched memristors into a
    zener-clamped sum node, so the sum sits near 0, vdd/2 or the clamp
    level. The branch inverters inv3/inv4 are skewed to flip only at
    the clamped both-high level; their outputs are averaged resistively
    and inv5 (skewed higher still) restores full logic swing. The
    output is high exactly when one input is high.

    The PWL sources step through (0,0), (0,1), (1,0), (1,1), one
    ``phase`` seconds each with ``edge`` second transitions. The
    embedded ``.tran`` uses ``dt`` (default phase/200).
    """
    if dt is None:
        dt = phase / 200.0
    _check_finite(vdd=vdd, phase=phase, edge=edge, dt=dt, load_cap=load_cap)
    _check_w0(w0)
    if vdd <= 0:
        raise DomainError(f"vdd must be positive, got {vdd}")
    if phase <= 0 or edge <= 0 or edge >= phase:
        raise DomainError(f"need 0 < edge < phase, got {edge} vs {phase}")
    if dt <= 0 or dt > phase:
        raise DomainError(f"dt must lie in (0, phase], got {dt}")
    if load_cap <= 0:
        raise DomainError(f"load_cap must be positive, got {load_cap}")
    T, e, v = phase, edge, vdd
    va = f"pwl(0 0 {_f(2*T)} 0 {_f(2*T+e)} {_f(v)} {_f(4*T)} {_f(v)})"
    vb = (f"pwl(0 0 {_f(T)} 0 {_f(T+e)} {_f(v)} {_f(2*T)} {_f(v)} "
          f"{_f(2*T+e)} 0 {_f(3*T)} 0 {_f(3*T+e)} {_f(v)} {_f(4*T)} {_f(v)})")
    text = f"""two stage xor neuron
v_a a 0 {va}
v_b b 0 {vb}
v_dd vdd 0 {_f(v)}
m_inv1_p ac a vdd vdd pmod wl=2.83
m_inv1_n ac a 0 0 nmod wl=1.0
m_inv2_p bc b vdd vdd pmod wl=2.83
m_inv2_n bc b 0 0 nmod wl=1.0
xmr_a1 a suma mem w0={_f(w0)}
xmr_a2 bc suma mem w0={_f(w0)}
d_a 0 suma zen
xmr_b1 ac sumb mem w0={_f(w0)}
xmr_b2 b sumb mem w0={_f(w0)}
d_b 0 sumb zen
m_inv3_p spka suma vdd vdd pmod wl=8.0
m_inv3_n spka suma 0 0 nmod wl=1.08
m_inv4_p spkb sumb vdd vdd pmod wl=8.0
m_inv4_n spkb sumb 0 0 nmod wl=1.08
r_avg1 spka soma 10k
r_avg2 spkb soma 10k
m_inv5_p out soma vdd vdd pmod wl=12.0
m_inv5_n out soma 0 0 nmod wl=0.285
c_suma suma 0 {_f(load_cap)}
c_sumb sumb 0 {_f(load_cap)}
c_soma soma 0 {_f(load_cap)}
c_out out 0 {_f(load_cap)}
.model pmod mosfet type=p
.model nmod mosfet type=n
.model zen zener
.model mem memristor
.tran {_f(4*T)} {_f(dt)}
"""
    return parse_netlist(text)


@dataclass(frozen=True)
class DetectorConfig:
    """Supply and bias magnitudes for the intensity detector.

    vss1, vss2, bulk_n1 and bulk_n2 are magnitudes of rails wired below
    ground; bulk_p1 is wired above. The defaults are the narrow-band
    configuration; DETECTOR_CONFIG_2 widens and raises the pass band by
    lifting the first stage rails and the second stage supply.
    """

    vdd1: float = 1.6
    vss1: float = 1.6
    vdd2: float = 1.6
    vss2: float = 0.6
    bulk_p1: float = 1.0
    bulk_n1: float = 1.0
    bulk_n2: float = 1.0
    w0: float = 0.5

    def __post_init__(self):
        values = dataclasses.asdict(self)
        _check_finite(**values)
        for name, val in values.items():
            if name != "w0" and val < 0:
                raise DomainError(
                    f"{name} is a magnitude and must be >= 0, got {val}")
        if self.vdd1 <= 0 or self.vdd2 <= 0:
            raise DomainError("vdd1 and vdd2 must be positive")
        _check_w0(self.w0)


DETECTOR_CONFIG_1 = DetectorConfig()
DETECTOR_CONFIG_2 = DetectorConfig(vdd1=1.9, vss1=1.9, vdd2=2.6)


def build_intensity_detector(config: DetectorConfig = DETECTOR_CONFIG_1,
                             sweep_stop: float = 3.0,
                             sweep_step: float = 0.02) -> Circuit:
    """Band detector: output goes high between two input thresholds.

    Stage one is a body-biased inverter m_p1/m_n1. While its output y1
    is high, the zener forward-couples y1 onto node z, holding z above
    the second inverter's threshold; once the input passes the first
    threshold, y1 collapses, the zener releases, and z follows the
    input through the memristor instead. The second inverter m_p2/m_n2
    then defines the upper threshold. Forward body bias on both first
    stage devices lowers their effective thresholds, which is what
    keeps the lower band edge in the sub-volt range.
    """
    _check_finite(sweep_stop=sweep_stop, sweep_step=sweep_step)
    if sweep_stop <= 0 or sweep_step <= 0 or sweep_step > sweep_stop:
        raise DomainError(
            f"need 0 < step <= stop, got {sweep_step} vs {sweep_stop}")
    c = config
    text = f"""intensity band detector
v_in in 0 0.0
v_dd1 vdd1 0 {_f(c.vdd1)}
v_ss1 vss1 0 {_f(-c.vss1)}
v_dd2 vdd2 0 {_f(c.vdd2)}
v_ss2 vss2 0 {_f(-c.vss2)}
v_bp1 bp1 0 {_f(c.bulk_p1)}
v_bn1 bn1 0 {_f(-c.bulk_n1)}
v_bn2 bn2 0 {_f(-c.bulk_n2)}
m_p1 y1 in vdd1 bp1 pmod wl=12.0
m_n1 y1 in vss1 bn1 nmod wl=1.4
xmr_ref in z mem w0={_f(c.w0)}
d_pull y1 z zen
m_p2 out z vdd2 vdd2 pmod wl=2.0
m_n2 out z vss2 bn2 nmod wl=1.2
.model pmod mosfet type=p
.model nmod mosfet type=n
.model zen zener is=1e-12
.model mem memristor
.dc v_in 0.0 {_f(sweep_stop)} {_f(sweep_step)}
"""
    return parse_netlist(text)


def smooth3(y: Sequence[float] | np.ndarray) -> np.ndarray:
    """3-point running median; endpoints are copied through."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("smooth3 expects a 1-D sequence")
    out = y.copy()
    a, b, c = y[:-2], y[1:-1], y[2:]
    out[1:-1] = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    return out


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of equal values."""
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    return (np.concatenate(([0], change)),
            np.concatenate((change - 1, [len(values) - 1])))


def _half_crossings(x: np.ndarray, y: np.ndarray, half: float, i0: int,
                    i1: int) -> tuple[float | None, float | None]:
    """Linearly interpolated crossings of ``half`` just below and above the
    run y[i0..i1]; None where the run reaches the end of the data."""
    def cross(a: int) -> float:   # between samples a and a + 1
        return x[a] + (half - y[a]) * (x[a + 1] - x[a]) / (y[a + 1] - y[a])
    return (cross(i0 - 1) if i0 > 0 else None,
            cross(i1) if i1 < len(y) - 1 else None)


@dataclass(frozen=True)
class BandResponse:
    """Half-height band of a single-peaked response curve."""

    theta_low: float
    theta_high: float
    height: float
    width: float


def extract_band(sweep: SweepResult, node: str) -> BandResponse:
    """Locate the half-height pass band of a swept response.

    The curve is median-smoothed before any shape decision; the band
    height is the raw response maximum (a 3-point median clips isolated
    peak samples, which must not change the reported height). The band
    edges are the linearly interpolated crossings of half that height,
    taken on the smoothed curve. Raises NotUnimodal when the smoothed
    curve exceeds half height in more than one region, NoBand when the
    peak is non-positive, fails to double the baseline, or a crossing
    falls outside the swept range.
    """
    x = np.asarray(sweep.inputs, dtype=float)
    y = np.asarray(sweep.column(node), dtype=float)
    if len(x) < 3:
        raise NoBand(f"sweep of {len(x)} points is too short")
    ys = smooth3(y)
    height = float(y.max())
    baseline = float(ys.min())
    if height <= 0.0:
        raise NoBand(f"response peak {height:.6g} is not positive")
    if height < 2.0 * baseline:
        raise NoBand(f"peak {height:.6g} is below twice the baseline "
                     f"{baseline:.6g}")
    half = 0.5 * height
    above = ys >= half
    first, last = _runs(above)
    regions = np.flatnonzero(above[first])
    if not regions.size:
        raise NoBand("smoothed response never reaches half height")
    if regions.size > 1:
        raise NotUnimodal(
            f"{regions.size} half-height regions (more than two crossings)")
    k = regions[0]
    theta_low, theta_high = _half_crossings(x, ys, half, first[k], last[k])
    if theta_low is None:
        raise NoBand("no lower half-height crossing inside the sweep")
    if theta_high is None:
        raise NoBand("no upper half-height crossing inside the sweep")
    return BandResponse(theta_low=float(theta_low),
                        theta_high=float(theta_high),
                        height=height,
                        width=float(theta_high - theta_low))


def peak_input(sweep: SweepResult, node: str) -> float:
    """Input at the single interior maximum of the smoothed response.

    The smoothed curve is collapsed into runs of equal value; exactly
    one run may be an interior local maximum (both neighbours lower),
    otherwise NotUnimodal is raised. Returns the input at the centre of
    that run. Rising or falling tails that end at a sweep boundary are
    not counted as maxima.
    """
    x = np.asarray(sweep.inputs, dtype=float)
    ys = smooth3(sweep.column(node))
    first, last = _runs(ys)
    vals = ys[first]
    maxima = np.flatnonzero((vals[1:-1] > vals[:-2])
                            & (vals[1:-1] > vals[2:])) + 1
    if maxima.size != 1:
        raise NotUnimodal(
            f"expected exactly one interior maximum, found {maxima.size}")
    k = maxima[0]
    return float(x[(first[k] + last[k]) // 2])


def settle_phase_levels(result: TransientResult, node: str,
                        n_phases: int) -> list[float]:
    """Mean node voltage over the tail of each equal-length phase.

    Splits [0, tstop] into ``n_phases`` windows and averages the last
    fifth of each, which discards the transition transients; a tail that
    holds no sample takes the last sample before its end. ``n_phases``
    is at most ``_MAX_POINTS``, the times must be non-decreasing and the
    first phase may not end before the first sample.
    """
    if not (isinstance(n_phases, (int, np.integer))
            and 1 <= n_phases <= _MAX_POINTS):
        raise ValueError(f"n_phases must be an integer in [1, {_MAX_POINTS}], "
                         f"got {n_phases!r}")
    t = np.asarray(result.times, dtype=float)
    y = np.ascontiguousarray(result.column(node), dtype=float)
    tstop = float(t[-1])
    if not tstop > 0.0:
        raise ValueError("transient must span a positive time interval")
    if not (t[1:] >= t[:-1]).all():
        raise ValueError("transient times must be non-decreasing")
    span = tstop / n_phases
    hi = span * np.arange(1, n_phases + 1)
    # each tail [hi - span/5, hi] as the sample slice [start, stop)
    starts = np.searchsorted(t, hi - 0.2 * span, "left").tolist()
    stops = np.searchsorted(t, hi, "right").tolist()
    if stops[0] == 0:   # no sample to average or fall back to
        raise ValueError(f"phase 1 of {n_phases} ends at t={hi[0]:.6g}s, "
                         f"before the first sample at t={t[0]:.6g}s")
    # an empty tail falls back to the last sample at or before its end
    return [float(y[max(b - 1, 0) if a == b else a:b].mean())
            for a, b in zip(starts, stops)]
