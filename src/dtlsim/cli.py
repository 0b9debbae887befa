"""Command line front end.

Exit codes: 0 success, 1 usage errors, 2 netlist parse errors, 3 solver
convergence failures, 4 file I/O errors, 5 analyses that complete but
yield nothing (no band, no ring, empty calibration).

Data goes to stdout as CSV with all floats rendered as %.9f and node
columns in sorted order; summary statistics ride along as trailing
lines starting with ``#``. Every table goes through the one writer
``_csv``, one ``%`` operation per row, and every analysis through the
one runner ``_run``, which takes the embedded ``.dc``/``.tran``
directive with flags named like its fields overriding it. Diagnostics
go to stderr. ``--out`` writes are atomic: a temp file in the
destination directory is renamed over the target, so a crashed run
never leaves a half-written file.

A process imports only the layers its command runs: each command
imports its own, and a command's arguments, some of which are read
from a layer's field table, are added only when that command is parsed.
numpy, too, is imported only by the helpers that use it.

A ``dtlsim`` process (``process``: the console script and ``python -m
dtlsim.cli``) runs with the cycle collector off, numpy's import
included, and exits without the shutdown collection, which is safe
because no analysis makes a reference cycle; ``main``, the in-process
API, never touches the collector.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import pathlib
import sys
import tempfile

from .errors import (AnalysisEmpty, DomainError, InvalidThreshold,
                     LutRangeError, NetlistError, PgmError, SolverError)

_FMT = "%.9f"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill   # adds the arguments when the parser first runs

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            self._fill, fill = None, self._fill
            fill(self)
        return super().parse_known_args(args, namespace)

    # argparse exits with status 2 on bad usage; we reserve 2 for parse
    # errors, so route usage problems through the exception path instead
    def error(self, message):
        raise _UsageError(message)


def _fmt(v) -> str:
    return _FMT % float(v)


def _csv(header: list[str], rows, row_fmt: str | None = None) -> str:
    """The header line, then one ``row_fmt % row`` line per row (``%.9f``
    for every column by default)."""
    if row_fmt is None:
        row_fmt = ",".join([_FMT] * len(header))
    lines = [",".join(header)]
    lines += [row_fmt % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def _table(axis: str, values, voltages: dict,
           states: dict | None = None) -> str:
    """One row per point: the axis value, the node voltages in sorted
    order, then the memristor states as ``w(name)`` columns."""
    import numpy as np
    states = states or {}
    nodes, names = sorted(voltages), sorted(states)
    columns = [values, *(voltages[n] for n in nodes),
               *(states[n] for n in names)]
    return _csv([axis, *nodes, *(f"w({n})" for n in names)],
                np.column_stack(columns).tolist())


def _atomic_write(path: str, write) -> None:
    """Run ``write(tmp)`` on a temp file in path's directory, then rename
    it over path; the temp file is removed if anything fails, and an
    OSError is raised again naming path. The file gets the mode of a newly
    created one (0o666 less the umask), not the temp file's owner-only
    0o600."""
    target = os.path.abspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".dtlsim-tmp-")
        os.close(fd)
        write(tmp)
        umask = os.umask(0)   # reading the umask sets it: put it back
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        data = text.encode("utf-8")
        _atomic_write(out, lambda tmp: pathlib.Path(tmp).write_bytes(data))


def _load_circuit(path: str):
    from .netlist import parse_netlist
    data = pathlib.Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number the line as the parser would: the text before the byte
        # (valid UTF-8) and one character of the byte's own line
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise NetlistError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8",
                           line) from None
    return parse_netlist(text)


# the usage message of the command that takes each directive's fields as flags
_NEEDS = {"dc": "sweep needs {} or a .dc directive in the netlist",
          "tran": "tran needs {} or a .tran directive"}


def _run(circuit, kind: str, args=None):
    """Run the circuit's embedded ``.dc`` or ``.tran`` directive; a flag
    in ``args`` named like one of the directive's fields overrides it. A
    transient notes each source with more corners than it has steps: the
    steps read such a source only at their own times."""
    from . import solver
    from .netlist import _DIRECTIVES
    fields = _DIRECTIVES["." + kind]
    d = next((d for d in circuit.analyses if d.kind == kind), None)
    values = [getattr(args, f, None) for f in fields]
    if d is not None:
        values = [getattr(d, f) if v is None else v
                  for f, v in zip(fields, values)]
    if None in values:
        raise _UsageError(_NEEDS[kind].format(
            "/".join(f"--{f}" for f in fields)))
    if kind == "dc":
        return solver.dc_sweep(circuit, *values)
    options = {} if args is None else {"method": args.method}
    tr = solver.transient(circuit, *values, **options)
    steps, tstop = len(tr.times) - 1, float(tr.times[-1])
    slack = solver._GRID_SLACK * values[1]   # a corner this close is on tstop
    run = -slack, tstop + slack
    for e in circuit.elements:
        if e.kind == "v" and (corners := e.params.corners(*run)) > steps:
            _note(f"source {e.name} has {corners} corners in [0, {tstop:g}] "
                  f"s but the run has {steps} steps, which see it only at "
                  f"their own times")
    return tr


def _note(msg: str) -> None:
    print(f"dtlsim: {msg}", file=sys.stderr)


def _cmd_op(args) -> int:
    from . import solver
    c = _load_circuit(args.netlist)
    op = solver.dc_operating_point(c)
    rows = [(n, op[n]) for n in sorted(op)]
    rows += [(f"i({k[1]})", v) for k, v in sorted(op.raw.items())
             if k[0] == "i"]
    _emit(_csv(["name", "value"], rows, "%s," + _FMT), args.out)
    _note(f"operating point converged in {op.iterations} iterations "
          f"({op.strategy})")
    return 0


def _cmd_sweep(args) -> int:
    s = _run(_load_circuit(args.netlist), "dc", args)
    _emit(_table(s.source, s.inputs, s.voltages), args.out)
    _note(f"swept {len(s.inputs)} points, {sum(s.iterations)} Newton "
          f"iterations")
    return 0


def _cmd_tran(args) -> int:
    tr = _run(_load_circuit(args.netlist), "tran", args)
    _emit(_table("time", tr.times, tr.voltages, tr.states), args.out)
    restarts = ""
    if args.method == "trapezoidal":   # steps across a source corner
        restarts = (f", {tr.rules.count('backward-euler')} restarted with "
                    f"backward Euler")
    _note(f"{len(tr.times) - 1} timesteps, max {max(tr.iterations)} "
          f"Newton iterations per step{restarts}")
    return 0


def _cmd_xor(args) -> int:
    from . import cells
    c = cells.build_xor_circuit(vdd=args.vdd, w0=args.w0, phase=args.phase,
                                edge=args.edge, dt=args.dt,
                                load_cap=args.load_cap)
    tr = _run(c, "tran")
    levels = cells.settle_phase_levels(tr, "out", 4)
    bits = [int(v > args.vdd / 2.0) for v in levels]
    expected = [0, 1, 1, 0]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    lines = [_table("time", tr.times, tr.voltages, tr.states)]
    for k, (lv, bit) in enumerate(zip(levels, bits)):
        a, b = pairs[k]
        lines.append(f"# phase {k}: inputs=({a},{b}) settled={_fmt(lv)} "
                     f"logic={bit}\n")
    agree = sum(x == y for x, y in zip(bits, expected)) / 4.0
    lines.append(f"# truth table {bits} expected {expected} "
                 f"agreement={agree:.3f}\n")
    _emit("".join(lines), args.out)
    _note(f"{len(tr.times) - 1} timesteps")
    return 0 if bits == expected else 5


def _detector(args, sweep_stop: float):
    """The preset detector with the overrides given as flags."""
    from . import cells
    cfg = (cells.DETECTOR_CONFIG_2 if args.config == 2
           else cells.DETECTOR_CONFIG_1)
    cfg = dataclasses.replace(cfg, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
        if getattr(args, f.name) is not None})
    return cells.build_intensity_detector(cfg, sweep_stop=sweep_stop,
                                          sweep_step=args.step)


def _cmd_detector(args) -> int:
    from . import cells
    s = _run(_detector(args, args.stop), "dc")
    text = _table(s.source, s.inputs, s.voltages)
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
    from . import imaging
    img = imaging.gen_gaussian_image(size=args.size, sigma=args.sigma,
                                     amplitude=args.amplitude)
    _atomic_write(args.out, lambda tmp: imaging.write_pgm(
        tmp, img, binary=not args.ascii))
    _note(f"wrote {img.width}x{img.height} gaussian to {args.out}")
    return 0


def _cmd_segment(args) -> int:
    import numpy as np
    from . import imaging
    # the voltage range's check names a bad --v-high before the detector,
    # whose sweep ends at v_high, is built and the image read
    imaging.pixel_to_voltage(0, args.v_low, args.v_high)
    circuit = _detector(args, args.v_high)
    img = imaging.read_pgm(args.image)
    s = _run(circuit, "dc")
    lut = imaging.ResponseLut.from_sweep(s, "out")
    resp = imaging.apply_detector(img, lut, v_low=args.v_low,
                                  v_high=args.v_high)
    if args.out:
        out_img = imaging.ImageGray(np.rint(resp * 255.0).astype(np.uint8))
        _atomic_write(args.out, lambda tmp: imaging.write_pgm(tmp, out_img))
    m = imaging.ring_metrics(resp)
    sys.stdout.write(_csv(["metric", "value"],
                          dataclasses.asdict(m).items(), "%s," + _FMT))
    _note(f"segmented {img.width}x{img.height} image")
    return 0


def _grid(spec: str) -> np.ndarray:
    import numpy as np
    from . import dendrite
    parts = spec.split(":")
    if len(parts) == 1:   # one value is a grid of one
        parts = [parts[0], parts[0], "1"]
    try:
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            # a finite span has finite bounds and keeps linspace's step finite
            if (math.isfinite(stop - start)
                    and 1 <= count <= dendrite.MAX_COMBINATIONS):
                return np.linspace(start, stop, count)
    except ValueError:
        pass
    raise _UsageError(f"grid must be 'value' or 'start:stop:count' with finite "
                      f"values and 1 <= count <= {dendrite.MAX_COMBINATIONS}, "
                      f"got {spec!r}")


def _cmd_calibrate_xor(args) -> int:
    from . import dendrite
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
    from .cells import DetectorConfig
    p.add_argument("--config", type=int, choices=(1, 2), default=1,
                   help="detector preset (default 1, the narrow band)")
    for f in dataclasses.fields(DetectorConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=float,
                       default=None, help=f"override {f.name}")


def _add_directive_flags(p, kind: str) -> None:
    from .netlist import _DIRECTIVES
    for name in _DIRECTIVES["." + kind]:   # the source is a name
        p.add_argument(f"--{name}", type=None if name == "source" else float,
                       default=None)


def _op_args(q) -> None:
    q.add_argument("netlist")
    q.add_argument("--out", default=None)


def _sweep_args(q) -> None:
    q.add_argument("netlist")
    _add_directive_flags(q, "dc")
    q.add_argument("--out", default=None)


def _tran_args(q) -> None:
    q.add_argument("netlist")
    _add_directive_flags(q, "tran")
    q.add_argument("--method", choices=("backward-euler", "trapezoidal"),
                   default="backward-euler")
    q.add_argument("--out", default=None)


def _xor_args(q) -> None:
    q.add_argument("--vdd", type=float, default=6.0)
    q.add_argument("--w0", type=float, default=0.5)
    q.add_argument("--phase", type=float, default=1e-3)
    q.add_argument("--edge", type=float, default=1e-6)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--load-cap", type=float, default=100e-12)
    q.add_argument("--out", default=None)


def _detector_args(q) -> None:
    _add_detector_flags(q)
    q.add_argument("--stop", type=float, default=3.0)
    q.add_argument("--step", type=float, default=0.02)
    q.add_argument("--out", default=None)


def _gen_gaussian_args(q) -> None:
    q.add_argument("--size", type=int, default=129)
    q.add_argument("--sigma", type=float, default=None)
    q.add_argument("--amplitude", type=int, default=255)
    q.add_argument("--ascii", action="store_true",
                   help="write P2 instead of P5")
    q.add_argument("--out", required=True)


def _segment_args(q) -> None:
    q.add_argument("image")
    _add_detector_flags(q)
    q.add_argument("--v-low", type=float, default=0.0)
    q.add_argument("--v-high", type=float, default=3.0)
    q.add_argument("--step", type=float, default=0.02)
    q.add_argument("--out", default=None,
                   help="write the normalized response as a PGM")


def _calibrate_xor_args(q) -> None:
    q.add_argument("--theta2", default="1.1:1.9:5",
                   help="grid as value or start:stop:count")
    q.add_argument("--eps", default="0.05:0.45:5")
    q.add_argument("--theta3", default="0.55:0.95:5")
    q.add_argument("--logic-high", type=float, default=1.0)
    q.add_argument("--out", default=None)


# name, help, runner and the function that adds the command's arguments
_COMMANDS = (
    ("op", "DC operating point of a netlist", _cmd_op, _op_args),
    ("sweep", "DC sweep of a netlist source", _cmd_sweep, _sweep_args),
    ("tran", "transient analysis of a netlist", _cmd_tran, _tran_args),
    ("xor", "run the XOR neuron's four-phase pattern", _cmd_xor, _xor_args),
    ("detector", "sweep the intensity band detector", _cmd_detector,
     _detector_args),
    ("gen-gaussian", "write a Gaussian test image", _cmd_gen_gaussian,
     _gen_gaussian_args),
    ("segment", "ring-segment an image with the band detector", _cmd_segment,
     _segment_args),
    ("calibrate-xor", "grid-search behavioral XOR thresholds",
     _cmd_calibrate_xor, _calibrate_xor_args),
)


def _build_parser() -> _Parser:
    p = _Parser(prog="dtlsim",
                description="CMOS-memristor dendritic cell simulator")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)
    for name, summary, func, args in _COMMANDS:
        sub.add_parser(name, help=summary, fill=args).set_defaults(func=func)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"dtlsim: usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, InvalidThreshold, LutRangeError) as exc:
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


def process() -> int:
    """The ``dtlsim`` process: ``main`` on ``sys.argv`` with the cycle
    collector off, then every object frozen, so that the interpreter's
    shutdown collections, which ``gc.disable`` does not stop, skip them."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process())
