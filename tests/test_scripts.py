"""The survey scripts under scripts/ run end to end on small degrees.

They are not part of the package and read the library only through its
public API, so a change to that API can break them without failing any
other test."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_corpus_report", "bb_survey"])
def test_script_main_exits_0(name, capsys):
    assert _script(name).main(["--max", "1"]) == 0
    assert capsys.readouterr().out
