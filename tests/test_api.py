"""The documented surface: the export lists and the README's example."""

import re
from pathlib import Path

import dtlsim
from dtlsim import cells

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for module in (dtlsim, cells):
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
