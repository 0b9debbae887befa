"""The documented surface: the export lists and the README's example."""

import re
from pathlib import Path

import numpy as np
import pytest

import dtlsim
from dtlsim import cells, devices, imaging, solver
from dtlsim.errors import DtlsimError
from dtlsim.netlist import parse_netlist

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves(monkeypatch):
    for name in dtlsim._HOME:   # unresolved, as after a fresh import
        monkeypatch.delitem(vars(dtlsim), name, raising=False)
    assert set(dtlsim.__all__) <= set(dir(dtlsim))
    for module in (dtlsim, cells, imaging):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
    namespace = {}
    exec("from dtlsim import *", namespace)
    assert set(dtlsim.__all__) <= set(namespace)


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("BandResponse(")


def _levels(*times):
    t = np.array(times)
    return lambda: cells.settle_phase_levels(
        solver.TransientResult(t, {"out": np.zeros(t.size)}, {}), "out", 4)


_DIVIDER = "t\nv_1 a 0 1\nr_1 a 0 1k\n"


# every argument check of an analysis or its post-processing, each by the
# start of its message
@pytest.mark.parametrize("call, message", [
    (lambda: solver.sweep_points(1.0, 0.0, 0.1), "range needs"),
    (lambda: solver.sweep_points(0.0, 1.0, 1e-7), "1e+07 points"),
    (lambda: solver.dc_sweep(parse_netlist(_DIVIDER), "v_2", 0.0, 1.0, 0.5),
     "'v_2' is not a DC voltage source"),
    (lambda: solver.transient(parse_netlist(_DIVIDER), 1e-6, 1e-5),
     "transient needs dt <= tstop"),
    (lambda: cells.smooth3([[1.0]]), "smooth3 expects"),
    (lambda: cells.settle_phase_levels(None, "out", 0), "n_phases must be"),
    (_levels(0.0), "transient must span"),
    (_levels(0.0, 2.0, 1.0), "transient times must be"),
    (_levels(0.5, 1.0), "phase 1 of 4 ends"),
    (lambda: devices.integration("gear", 1e-6), "unknown method"),
], ids=["range", "points", "source", "dt", "smooth3", "n_phases", "span",
        "order", "phase1", "method"])
def test_argument_errors_are_package_errors(call, message):
    with pytest.raises(DtlsimError, match=f"^{re.escape(message)}") as info:
        call()
    assert isinstance(info.value, ValueError)
