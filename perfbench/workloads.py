"""Workload inputs, operations and output checks.

Each workload builds its inputs from a seed in its constructor (the
benchmark's set-up) and hands out the operations of one pass with
``ops(k)``. An operation calls the layers' public functions, checks what
they return against an independent oracle and returns the simulated
results it checked. ``cross_check`` applies the oracles that compare
operations with each other.

Work items: sweep points (dc_sweeps), transient steps (xor_transient),
megapixels (segment_images) and dtlsim processes (cli).
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dtlsim
from dtlsim import cells, dendrite, imaging, solver
from dtlsim.errors import DtlsimError

XOR_TRUTH = [0, 1, 1, 0]
XOR_VDD = 6.0
METHODS = ("backward-euler", "trapezoidal")

# ROADMAP baseline work counters of the two unchanged items:
# label -> (points or steps, Newton iterations, assemblies)
BASELINE = {
    "detector config2": (151, 302, 465),
    "lib detector": (151, 302, 465),
    "xor w0=0.5000 backward-euler": (800, 903, 1716),
    "lib xor": (800, 903, 1716),
}


class CheckFailed(Exception):
    """An operation returned a result its oracle rejects."""


# what counts as a failed operation
FAILURES = (CheckFailed, DtlsimError)


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    work: float
    run: Callable  # run(tracer) -> dict of checked results


def _directive(circuit, kind):
    return next(d for d in circuit.analyses if d.kind == kind)


def _sweep(t, circuit):
    d = _directive(circuit, "dc")
    with t.span("solver", elements=len(circuit.elements)) as s:
        sweep = solver.dc_sweep(circuit, d.source, d.start, d.stop, d.step)
        s.note(newton_iters=sum(sweep.iterations))
    # an independent count of the grid the directive asks for
    expected = int(round((d.stop - d.start) / d.step)) + 1
    check(len(sweep.inputs) == expected,
          f"sweep has {len(sweep.inputs)} points, expected {expected}")
    return sweep


def _sweep_results(sweep):
    return {"points": len(sweep.inputs),
            "newton_iters": sum(sweep.iterations),
            "fallback_points": sum(s != "newton" for s in sweep.strategies)}


def band_op(t, circuit):
    sweep = _sweep(t, circuit)
    with t.span("cells.analysis"):
        band = cells.extract_band(sweep, "out")
    check(0.0 < band.theta_low < band.theta_high < sweep.inputs[-1]
          and band.height > 0.0, f"implausible band {band}")
    return {**_sweep_results(sweep), **dataclasses.asdict(band)}


def peak_op(t, circuit):
    sweep = _sweep(t, circuit)
    with t.span("cells.analysis"):
        peak = cells.peak_input(sweep, "out")
    check(sweep.inputs[0] < peak < sweep.inputs[-1],
          f"peak input {peak} not inside the sweep")
    return {**_sweep_results(sweep), "peak_input": peak}


def xor_op(t, circuit, method):
    d = _directive(circuit, "tran")
    with t.span("solver", elements=len(circuit.elements)) as s:
        tr = solver.transient(circuit, d.tstop, d.dt, method=method)
        s.note(newton_iters=sum(tr.iterations))
    with t.span("cells.analysis"):
        levels = cells.settle_phase_levels(tr, "out", 4)
    bits = [int(v > XOR_VDD / 2.0) for v in levels]
    check(bits == XOR_TRUTH, f"truth table {bits}, expected {XOR_TRUTH}")
    return {"steps": len(tr.times) - 1, "newton_iters": sum(tr.iterations),
            "levels": levels, "truth_table": bits}


def _rails(base, w0, factor):
    return dataclasses.replace(
        base, w0=w0, vdd1=base.vdd1 * factor, vss1=base.vss1 * factor,
        vdd2=base.vdd2 * factor, vss2=base.vss2 * factor)


class DcSweeps:
    """The two unchanged detector configurations, then seeded detector
    pairs (configs 1 and 2 sharing w0 and a rail factor) and seeded
    spike cells."""

    item = "points"

    def __init__(self, seed, small, t, scratch):
        rng = random.Random(seed)
        configs = [("detector config1", cells.DETECTOR_CONFIG_1),
                   ("detector config2", cells.DETECTOR_CONFIG_2)]
        self.pairs = [("detector config1", "detector config2")]
        for i in range(1 if small else 6):
            # w0 stops at 0.8: config 2 at w0 = 0.95 has no band
            w0, factor = rng.uniform(0.1, 0.8), rng.uniform(0.97, 1.03)
            tag = f"pair{i} w0={w0:.4f} rails={factor:.4f}"
            configs.append((f"{tag} config1", _rails(cells.DETECTOR_CONFIG_1, w0, factor)))
            configs.append((f"{tag} config2", _rails(cells.DETECTOR_CONFIG_2, w0, factor)))
            self.pairs.append((f"{tag} config1", f"{tag} config2"))
        spikes = [rng.uniform(0.1, 0.8) for _ in range(2 if small else 10)]
        self.spike_labels = {f"spike w0={w0:.4f}": w0 for w0 in spikes}
        with t.span("cells.build"):
            items = [(label, band_op, cells.build_intensity_detector(cfg))
                     for label, cfg in configs]
            items += [(label, peak_op, cells.build_spike_cell(w0))
                      for label, w0 in self.spike_labels.items()]
        self._ops = []
        for label, fn, c in items:
            d = _directive(c, "dc")
            points = len(solver.sweep_points(d.start, d.stop, d.step))
            self._ops.append(Op(label, points, lambda t, fn=fn, c=c: fn(t, c)))

    def ops(self, k):
        return self._ops

    def cross_check(self, results):
        problems = []
        for lo, hi in self.pairs:
            b1, b2 = results.get(lo), results.get(hi)
            if b1 and b2 and not (b2["width"] > b1["width"]
                                  and b2["height"] > b1["height"]):
                problems.append(f"{hi} band is not wider and higher than {lo}")
        # a larger w0 flips the spike cell's inverter earlier
        peaks = [results[label]["peak_input"]
                 for label, _ in sorted(self.spike_labels.items(),
                                        key=lambda kv: kv[1])
                 if label in results]
        if any(b > a for a, b in zip(peaks, peaks[1:])):
            problems.append(f"spike peaks do not fall as w0 rises: {peaks}")
        return problems


class XorTransient:
    """Pass 0 runs the default w0 = 0.5; later passes cycle through
    seeded w0 values. Each pass integrates with both methods."""

    item = "steps"

    def __init__(self, seed, small, t, scratch):
        rng = random.Random(seed)
        self.w0s = [0.5] + [rng.uniform(0.4, 0.6) for _ in range(1 if small else 7)]
        with t.span("cells.build"):
            self.circuits = [cells.build_xor_circuit(w0=w0) for w0 in self.w0s]

    def ops(self, k):
        i = 0 if k == 0 else 1 + (k - 1) % (len(self.w0s) - 1)
        c = self.circuits[i]
        d = _directive(c, "tran")
        steps = int(round(d.tstop / d.dt))
        return [Op(f"xor w0={self.w0s[i]:.4f} {m}", steps,
                   lambda t, m=m: xor_op(t, c, m)) for m in METHODS]

    def cross_check(self, results):
        return []


class SegmentImages:
    """Seeded Gaussian images through PGM round trips, both detector LUTs
    and ring metrics; every image has its own seeded sigma."""

    item = "mpix"

    def __init__(self, seed, small, t, scratch):
        rng = random.Random(seed)
        self.path = os.path.join(scratch, "image.pgm")
        self.images = []
        # two of three images at the large size keep the median operation
        # on one size instead of between two
        for i, size in enumerate((129, 97, 129) if small else (1025, 769, 1025)):
            sigma = size / rng.uniform(5.5, 6.5)
            with t.span("imaging.gen"):
                img = imaging.gen_gaussian_image(size, sigma)
            self.images.append((f"image{i} {size} sigma={sigma:.3f}", img))
        with t.span("cells.build"):
            self.detectors = [cells.build_intensity_detector(cfg) for cfg in
                              (cells.DETECTOR_CONFIG_1, cells.DETECTOR_CONFIG_2)]

    def ops(self, k):
        return [Op(label, img.width * img.height / 1e6,
                   lambda t, img=img: self._pipeline(t, img))
                for label, img in self.images]

    def _pipeline(self, t, img):
        out = {"pgm_bytes": 0}
        for span, binary in (("imaging.pgm_p5", True), ("imaging.pgm_p2", False)):
            with t.span(span) as s:
                imaging.write_pgm(self.path, img, binary=binary)
                back = imaging.read_pgm(self.path)
                size = os.path.getsize(self.path)
                s.note(bytes=size)
            out["pgm_bytes"] += size
            check(back == img, f"{span} round trip changed the image")
        rings = []
        for circuit in self.detectors:
            sweep = _sweep(t, circuit)
            with t.span("imaging.apply"):
                lut = imaging.ResponseLut.from_sweep(sweep, "out")
                response = imaging.apply_detector(img, lut)
            with t.span("imaging.ring"):
                ring = dataclasses.asdict(imaging.ring_metrics(response))
            # the response is normalized per LUT, so both rings peak near 1;
            # the radial mean is affine, so this is the ring's peak in volts
            lo, hi = lut.outputs.min(), lut.outputs.max()
            ring["peak_volts"] = float(lo + (hi - lo) * ring["peak_brightness"])
            rings.append(ring)
        r1, r2 = rings
        check(r2["thickness"] > r1["thickness"]
              and r2["peak_volts"] > r1["peak_volts"],
              f"config 2 ring {r2} not thicker and brighter than {r1}")
        out["rings"] = rings
        return out

    def cross_check(self, results):
        return []


def _hash_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("#")]


def _csv_rows(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines()[1:] if not line.startswith("#")]


class Cli:
    """dtlsim child processes, one after another, plus the same library
    calls in process for the traced run's overhead figure."""

    item = "processes"

    def __init__(self, seed, small, t, scratch):
        rng = random.Random(seed)
        self.size = 65 if small else 513
        self.sigma = self.size / rng.uniform(5.5, 6.5)
        n = 5 if small else 21
        self.grids = [np.linspace(1.1, 1.9, n), np.linspace(0.05, 0.45, n),
                      np.linspace(0.55, 0.95, n)]
        spec = [f"1.1:1.9:{n}", f"0.05:0.45:{n}", f"0.55:0.95:{n}"]
        self.scratch = scratch
        self.pgm = os.path.join(scratch, "cli.pgm")
        self.lib_pgm = os.path.join(scratch, "lib.pgm")
        # children import the same sources as this process
        src = os.path.dirname(os.path.dirname(os.path.abspath(dtlsim.__file__)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.commands = [
            ("detector", ["detector", "--config", "2"], self._check_detector),
            ("xor", ["xor"], self._check_xor),
            ("gen-gaussian", ["gen-gaussian", "--size", str(self.size),
                              "--sigma", repr(self.sigma), "--out", self.pgm],
             self._check_gen),
            ("segment", ["segment", self.pgm, "--config", "2"],
             self._check_segment),
            ("calibrate-xor", ["calibrate-xor", "--theta2", spec[0],
                               "--eps", spec[1], "--theta3", spec[2]],
             self._check_calibrate),
        ]
        self._expected_image = None

    def ops(self, k):
        return [Op(f"cli {name}", 1, lambda t, argv=argv, fn=fn: self._process(argv, fn))
                for name, argv, fn in self.commands]

    def library_ops(self, k):
        """The library calls each command makes, without the process."""
        return [Op("lib detector", 1, self._lib_detector),
                Op("lib xor", 1, self._lib_xor),
                Op("lib gen-gaussian", 1, self._lib_gen),
                Op("lib segment", 1, self._lib_segment),
                Op("lib calibrate-xor", 1, self._lib_calibrate)]

    def _process(self, argv, check_output):
        proc = subprocess.run([sys.executable, "-m", "dtlsim.cli", *argv],
                              cwd=self.scratch, env=self.env,
                              capture_output=True, timeout=150)
        err = proc.stderr.decode("utf-8", "replace").strip()
        check(proc.returncode == 0, f"exit {proc.returncode}: {err[-300:]}")
        out = check_output(proc.stdout.decode("utf-8"))
        out["stdout_bytes"] = len(proc.stdout)
        return out

    def _check_detector(self, stdout):
        lines = [l for l in _hash_lines(stdout) if l.startswith("# band:")]
        check(len(lines) == 1, "detector printed no '# band:' line")
        band = {k: float(v) for k, v in
                (f.split("=") for f in lines[0][len("# band: "):].split())}
        check(0.0 < band["theta_low"] < band["theta_high"] and band["height"] > 0,
              f"implausible band {band}")
        check(len(_csv_rows(stdout)) == 151, "detector CSV is not 151 rows")
        return band

    def _check_xor(self, stdout):
        want = f"# truth table {XOR_TRUTH} expected {XOR_TRUTH} agreement=1.000"
        phases = [l for l in _hash_lines(stdout) if l.startswith("# phase")]
        check(want in _hash_lines(stdout) and len(phases) == 4,
              "xor did not print four phases and the XOR truth table")
        return {"summary": phases + [want]}

    def _check_gen(self, stdout):
        if self._expected_image is None:
            self._expected_image = imaging.gen_gaussian_image(self.size, self.sigma)
        check(imaging.read_pgm(self.pgm) == self._expected_image,
              "gen-gaussian wrote another image than the library makes")
        return {"size": self.size, "sigma": self.sigma}

    def _check_segment(self, stdout):
        rows = dict(line.split(",") for line in stdout.splitlines()[1:])
        check(set(rows) == {"peak_radius", "thickness", "peak_brightness"},
              f"segment printed {sorted(rows)}")
        ring = {k: float(v) for k, v in rows.items()}
        check(ring["peak_radius"] > 0 and ring["thickness"] > 0,
              f"implausible ring {ring}")
        return ring

    def _check_calibrate(self, stdout):
        t2, eps, t3 = self.grids
        # closed form: the both-high branch sum clamps to exactly 1.0, so a
        # triple realizes XOR iff theta2 - eps > 1.0 (every theta3 of the
        # grid lies inside (0.5, 1))
        expected = int(sum(a - e > 1.0 for a in t2 for e in eps)) * len(t3)
        summary = [l for l in _hash_lines(stdout) if l.endswith("valid combinations")]
        check(summary == [f"# {expected} valid combinations"]
              and len(_csv_rows(stdout)) == expected,
              f"calibrate-xor summary {summary}, expected {expected} hits")
        return {"hits": expected}

    def _lib_detector(self, t):
        with t.span("cells.build"):
            c = cells.build_intensity_detector(cells.DETECTOR_CONFIG_2)
        return band_op(t, c)

    def _lib_xor(self, t):
        with t.span("cells.build"):
            c = cells.build_xor_circuit()
        return xor_op(t, c, "backward-euler")

    def _lib_gen(self, t):
        with t.span("imaging.gen"):
            img = imaging.gen_gaussian_image(self.size, self.sigma)
        with t.span("imaging.pgm_p5") as s:
            imaging.write_pgm(self.lib_pgm, img)
            s.note(bytes=os.path.getsize(self.lib_pgm))
        return {}

    def _lib_segment(self, t):
        with t.span("imaging.pgm_p5"):
            img = imaging.read_pgm(self.lib_pgm)
        with t.span("cells.build"):
            c = cells.build_intensity_detector(cells.DETECTOR_CONFIG_2)
        sweep = _sweep(t, c)
        with t.span("imaging.apply"):
            response = imaging.apply_detector(img, imaging.ResponseLut.from_sweep(sweep, "out"))
        with t.span("imaging.ring"):
            ring = imaging.ring_metrics(response)
        return dataclasses.asdict(ring)

    def _lib_calibrate(self, t):
        with t.span("dendrite.calibrate") as s:
            hits = dendrite.calibrate_xor(*self.grids)
            s.note(combos=int(np.prod([len(g) for g in self.grids])))
        check(len(hits) > 0, "calibrate_xor found no XOR triple")
        return {"hits": len(hits)}

    def cross_check(self, results):
        return []


WORKLOADS = {
    "dc_sweeps": DcSweeps,
    "xor_transient": XorTransient,
    "segment_images": SegmentImages,
    "cli": Cli,
}
