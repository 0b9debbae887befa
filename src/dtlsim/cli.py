"""Command line front end.

Exit codes: 0 success, 1 usage errors, 2 netlist parse errors, 3 solver
convergence failures, 4 file I/O errors, 5 analyses that complete but
yield nothing (no band, no ring, empty calibration).

Data goes to stdout as CSV with all floats rendered as %.9f and node
columns in sorted order; summary statistics ride along as trailing
lines starting with ``#``. Diagnostics go to stderr. ``--out`` writes
are atomic: a temp file in the destination directory is renamed over
the target, so a crashed run never leaves a half-written file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import sys
import tempfile

import numpy as np

from . import cells, dendrite, imaging, solver
from .errors import (AnalysisEmpty, DomainError, InvalidThreshold,
                     LutRangeError, NetlistError, PgmError, SolverError)
from .netlist import parse_netlist

_FMT = "%.9f"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for parse
    # errors, so route usage problems through the exception path instead
    def error(self, message):
        raise _UsageError(message)


def _fmt(v) -> str:
    return _FMT % float(v)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, write) -> None:
    """Run ``write(tmp)`` on a temp file in path's directory, then rename
    it over path; the temp file is removed if anything fails."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".dtlsim-tmp-")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        data = text.encode("utf-8")
        _atomic_write(out, lambda tmp: pathlib.Path(tmp).write_bytes(data))


def _load_circuit(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def _directive(circuit, kind: str):
    for d in circuit.analyses:
        if d.kind == kind:
            return d
    return None


def _note(msg: str) -> None:
    print(f"dtlsim: {msg}", file=sys.stderr)


def _cmd_op(args) -> int:
    c = _load_circuit(args.netlist)
    op = solver.dc_operating_point(c)
    rows = [(n, op[n]) for n in sorted(op)]
    rows += [(f"i({k[1]})", v) for k, v in sorted(op.raw.items())
             if k[0] == "i"]
    text = "name,value\n" + "".join(f"{n},{_fmt(v)}\n" for n, v in rows)
    _emit(text, args.out)
    _note(f"operating point converged in {op.iterations} iterations "
          f"({op.strategy})")
    return 0


def _sweep_args(args, circuit):
    d = _directive(circuit, "dc")
    source = args.source or (d.source if d else None)
    start = args.start if args.start is not None else (d.start if d else None)
    stop = args.stop if args.stop is not None else (d.stop if d else None)
    step = args.step if args.step is not None else (d.step if d else None)
    if source is None or start is None or stop is None or step is None:
        raise _UsageError("sweep needs --source/--start/--stop/--step "
                          "or a .dc directive in the netlist")
    return source, float(start), float(stop), float(step)


def _sweep_csv(s: solver.SweepResult) -> str:
    nodes = sorted(s.voltages)
    header = [s.source] + nodes
    rows = ([x] + [s.voltages[n][i] for n in nodes]
            for i, x in enumerate(s.inputs))
    return _csv(header, rows)


def _cmd_sweep(args) -> int:
    c = _load_circuit(args.netlist)
    source, start, stop, step = _sweep_args(args, c)
    s = solver.dc_sweep(c, source, start, stop, step)
    _emit(_sweep_csv(s), args.out)
    _note(f"swept {len(s.inputs)} points, {sum(s.iterations)} Newton "
          f"iterations")
    return 0


def _tran_csv(tr: solver.TransientResult) -> str:
    nodes = sorted(tr.voltages)
    states = sorted(tr.states)
    header = ["time"] + nodes + [f"w({n})" for n in states]
    rows = ([t] + [tr.voltages[n][i] for n in nodes]
            + [tr.states[n][i] for n in states]
            for i, t in enumerate(tr.times))
    return _csv(header, rows)


def _cmd_tran(args) -> int:
    c = _load_circuit(args.netlist)
    d = _directive(c, "tran")
    tstop = args.tstop if args.tstop is not None else (d.tstop if d else None)
    dt = args.dt if args.dt is not None else (d.dt if d else None)
    if tstop is None or dt is None:
        raise _UsageError("tran needs --tstop/--dt or a .tran directive")
    tr = solver.transient(c, float(tstop), float(dt), method=args.method)
    _emit(_tran_csv(tr), args.out)
    _note(f"{len(tr.times) - 1} timesteps, max {max(tr.iterations)} "
          f"Newton iterations per step")
    return 0


def _cmd_xor(args) -> int:
    c = cells.build_xor_circuit(vdd=args.vdd, w0=args.w0, phase=args.phase,
                                edge=args.edge, dt=args.dt,
                                load_cap=args.load_cap)
    d = _directive(c, "tran")
    tr = solver.transient(c, d.tstop, d.dt)
    levels = cells.settle_phase_levels(tr, "out", 4)
    bits = [int(v > args.vdd / 2.0) for v in levels]
    expected = [0, 1, 1, 0]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    lines = [_tran_csv(tr).rstrip("\n")]
    for k, (lv, bit) in enumerate(zip(levels, bits)):
        a, b = pairs[k]
        lines.append(f"# phase {k}: inputs=({a},{b}) settled={_fmt(lv)} "
                     f"logic={bit}")
    agree = sum(x == y for x, y in zip(bits, expected)) / 4.0
    lines.append(f"# truth table {bits} expected {expected} "
                 f"agreement={agree:.3f}")
    _emit("\n".join(lines) + "\n", args.out)
    _note(f"{len(tr.times) - 1} timesteps")
    return 0 if bits == expected else 5


def _detector_config(args) -> cells.DetectorConfig:
    cfg = (cells.DETECTOR_CONFIG_2 if args.config == 2
           else cells.DETECTOR_CONFIG_1)
    over = {name: getattr(args, name) for name in
            ("vdd1", "vss1", "vdd2", "vss2", "bulk_p1", "bulk_n1",
             "bulk_n2", "w0") if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **over) if over else cfg


def _cmd_detector(args) -> int:
    cfg = _detector_config(args)
    c = cells.build_intensity_detector(cfg, sweep_stop=args.stop,
                                       sweep_step=args.step)
    d = _directive(c, "dc")
    s = solver.dc_sweep(c, d.source, d.start, d.stop, d.step)
    text = _sweep_csv(s)
    try:
        band = cells.extract_band(s, "out")
    except AnalysisEmpty as exc:
        _emit(text, args.out)
        _note(f"band extraction failed: {exc}")
        return 5
    text += (f"# band: theta_low={_fmt(band.theta_low)} "
             f"theta_high={_fmt(band.theta_high)} "
             f"width={_fmt(band.width)} height={_fmt(band.height)}\n")
    _emit(text, args.out)
    _note(f"swept {len(s.inputs)} points")
    return 0


def _cmd_gen_gaussian(args) -> int:
    img = imaging.gen_gaussian_image(size=args.size, sigma=args.sigma,
                                     amplitude=args.amplitude)
    _atomic_write(args.out, lambda tmp: imaging.write_pgm(
        tmp, img, binary=not args.ascii))
    _note(f"wrote {img.width}x{img.height} gaussian to {args.out}")
    return 0


def _cmd_segment(args) -> int:
    img = imaging.read_pgm(args.image)
    cfg = _detector_config(args)
    c = cells.build_intensity_detector(cfg, sweep_stop=args.v_high,
                                       sweep_step=args.step)
    d = _directive(c, "dc")
    s = solver.dc_sweep(c, d.source, d.start, d.stop, d.step)
    lut = imaging.ResponseLut.from_sweep(s, "out")
    resp = imaging.apply_detector(img, lut, v_low=args.v_low,
                                  v_high=args.v_high)
    if args.out:
        out_img = imaging.ImageGray(np.rint(resp * 255.0).astype(np.uint8))
        _atomic_write(args.out, lambda tmp: imaging.write_pgm(tmp, out_img))
    m = imaging.ring_metrics(resp)
    sys.stdout.write("metric,value\n"
                     f"peak_radius,{_fmt(m.peak_radius)}\n"
                     f"thickness,{_fmt(m.thickness)}\n"
                     f"peak_brightness,{_fmt(m.peak_brightness)}\n")
    _note(f"segmented {img.width}x{img.height} image")
    return 0


def _grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if not 1 <= count <= dendrite.MAX_COMBINATIONS:
                raise ValueError
            return np.linspace(start, stop, count)
    except ValueError:
        pass
    raise _UsageError(f"grid must be 'value' or 'start:stop:count' with "
                      f"1 <= count <= {dendrite.MAX_COMBINATIONS}, got {spec!r}")


def _cmd_calibrate_xor(args) -> int:
    hits = dendrite.calibrate_xor(_grid(args.theta2), _grid(args.eps),
                                  _grid(args.theta3),
                                  logic_high=args.logic_high)
    if not hits:
        _note("no (theta2, eps, theta3) combination realizes XOR")
        return 5
    text = _csv(["theta2", "eps", "theta3"], hits)
    text += f"# {len(hits)} valid combinations\n"
    _emit(text, args.out)
    _note(f"{len(hits)} valid combinations")
    return 0


def _add_detector_flags(p) -> None:
    p.add_argument("--config", type=int, choices=(1, 2), default=1,
                   help="detector preset (default 1, the narrow band)")
    for name in ("vdd1", "vss1", "vdd2", "vss2",
                 "bulk-p1", "bulk-n1", "bulk-n2", "w0"):
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"override {name.replace('-', '_')}")


def _build_parser() -> _Parser:
    p = _Parser(prog="dtlsim",
                description="CMOS-memristor dendritic cell simulator")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    q = sub.add_parser("op", help="DC operating point of a netlist")
    q.add_argument("netlist")
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_op)

    q = sub.add_parser("sweep", help="DC sweep of a netlist source")
    q.add_argument("netlist")
    q.add_argument("--source", default=None)
    q.add_argument("--start", type=float, default=None)
    q.add_argument("--stop", type=float, default=None)
    q.add_argument("--step", type=float, default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_sweep)

    q = sub.add_parser("tran", help="transient analysis of a netlist")
    q.add_argument("netlist")
    q.add_argument("--tstop", type=float, default=None)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--method", choices=("backward-euler", "trapezoidal"),
                   default="backward-euler")
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_tran)

    q = sub.add_parser("xor", help="run the XOR neuron's four-phase pattern")
    q.add_argument("--vdd", type=float, default=6.0)
    q.add_argument("--w0", type=float, default=0.5)
    q.add_argument("--phase", type=float, default=1e-3)
    q.add_argument("--edge", type=float, default=1e-6)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--load-cap", type=float, default=100e-12)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_xor)

    q = sub.add_parser("detector", help="sweep the intensity band detector")
    _add_detector_flags(q)
    q.add_argument("--stop", type=float, default=3.0)
    q.add_argument("--step", type=float, default=0.02)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_detector)

    q = sub.add_parser("gen-gaussian", help="write a Gaussian test image")
    q.add_argument("--size", type=int, default=129)
    q.add_argument("--sigma", type=float, default=None)
    q.add_argument("--amplitude", type=int, default=255)
    q.add_argument("--ascii", action="store_true",
                   help="write P2 instead of P5")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_gen_gaussian)

    q = sub.add_parser("segment", help="ring-segment an image with the "
                                       "band detector")
    q.add_argument("image")
    _add_detector_flags(q)
    q.add_argument("--v-low", type=float, default=0.0)
    q.add_argument("--v-high", type=float, default=3.0)
    q.add_argument("--step", type=float, default=0.02)
    q.add_argument("--out", default=None,
                   help="write the normalized response as a PGM")
    q.set_defaults(func=_cmd_segment)

    q = sub.add_parser("calibrate-xor",
                       help="grid-search behavioral XOR thresholds")
    q.add_argument("--theta2", default="1.1:1.9:5",
                   help="grid as value or start:stop:count")
    q.add_argument("--eps", default="0.05:0.45:5")
    q.add_argument("--theta3", default="0.55:0.95:5")
    q.add_argument("--logic-high", type=float, default=1.0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_calibrate_xor)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"dtlsim: usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, InvalidThreshold, LutRangeError, ValueError) as exc:
        print(f"dtlsim: invalid argument: {exc}", file=sys.stderr)
        return 1
    except NetlistError as exc:
        print(f"dtlsim: parse error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"dtlsim: solver error: {exc}", file=sys.stderr)
        return 3
    except PgmError as exc:
        print(f"dtlsim: image error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"dtlsim: i/o error: {exc}", file=sys.stderr)
        return 4
    except AnalysisEmpty as exc:
        print(f"dtlsim: empty analysis: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
