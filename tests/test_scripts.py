"""The survey scripts under scripts/ run end to end on small degrees.

They are not part of the package and read the library only through its
public API, so a change to that API can break them without failing any
other test."""

import importlib.util
import sys
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


def test_compile_weight_marks_the_largest_module(capsys, tmp_path):
    """One row per module of homcyc, with integer counts, and the
    module with the largest compile peak marked; a directory without
    modules exits 2."""
    assert _script("compile_weight").main([]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "nodes", "peak_kb"]
    table = {r.split()[0]: r.split() for r in rows}
    assert "linalg.py" in table and "__init__.py" in table
    assert all(int(lines) > 0 and int(nodes) > 0 and int(peak) > 0
               for _, lines, nodes, peak, *_ in table.values())
    marked = [name for name, r in table.items() if r[-1] == "*"]
    assert len(marked) == 1
    assert int(table[marked[0]][3]) == max(int(r[3]) for r in table.values())
    # Module, Assign, Name, Store, Constant
    (tmp_path / "one.py").write_text("x = 1\n")
    assert _script("compile_weight").main(["--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[:3] == \
        ["one.py", "1", "5"]
    assert _script("compile_weight").main(["--src", str(tmp_path / "no")]) == 2


def test_job_peaks_prints_every_corpus_job(capsys, monkeypatch):
    """One row per job of the benchmark's corpus_betti table, each with
    a time and a tracemalloc peak, after the results are checked."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    assert _script("job_peaks").main(["--workload", "corpus_betti",
                                      "--seed", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["job", "ms", "peak_kb"]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        SCRIPTS.parent / "perfbench" / "workloads.py")
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    jobs = sorted(" ".join(map(str, job)) for job in table.CORPUS_JOBS)
    assert sorted(r.rsplit(None, 2)[0] for r in rows) == jobs
    assert all(float(r.split()[-2]) > 0 and int(r.split()[-1]) >= 0
               for r in rows)
