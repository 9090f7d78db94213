"""The survey scripts under scripts/ run end to end on small degrees.

They are not part of the package and read the library only through its
public API, so a change to that API can break them without failing any
other test."""

import importlib.util
import shutil
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


def test_compile_weight_cli_weighs_the_modules_a_request_loads(capsys,
                                                               tmp_path):
    """With --cli, one row per module that the request loads, cli.py
    included, and a total row that sums every column."""
    from homcyc.corpus import two_dim_unital
    alg = tmp_path / "alg.json"
    alg.write_text(two_dim_unital().to_json())
    assert _script("compile_weight").main(
        ["--cli", "check", str(alg), "--format", "json"]) == 0
    weights, _ = capsys.readouterr().out.split("\n\n")
    header, *rows, total = weights.splitlines()
    assert header.split() == ["module", "lines", "nodes", "peak_kb"]
    assert [r.split()[0] for r in rows] == [
        "__init__.py", "algebra.py", "cli.py", "errors.py", "linalg.py",
        "records.py"]
    cells = [[int(x) for x in r.split()[1:4]] for r in rows]
    assert total.split()[0] == "total"
    assert [int(x) for x in total.split()[1:3]] == \
        [sum(c[0] for c in cells), sum(c[1] for c in cells)]
    # each peak is rounded to a KB, so their sum may differ by one per row
    assert abs(int(total.split()[3]) - sum(c[2] for c in cells)) <= len(rows)


def test_compile_weight_cli_lists_the_other_imports(capsys, tmp_path):
    """With --cli, a second table lists the modules outside the package
    that the request imports and a bare interpreter does not, largest
    cumulative import time first: a request of homcyc's `check` imports
    argparse, json and fractions, but not dataclasses or inspect, and a
    package whose cli imports dataclasses shows it and inspect."""
    from homcyc.corpus import two_dim_unital
    alg = tmp_path / "alg.json"
    alg.write_text(two_dim_unital().to_json())

    def other_imports(argv):
        assert _script("compile_weight").main(argv) == 0
        _, table = capsys.readouterr().out.split("\n\n")
        header, *rows = table.splitlines()
        assert header.split() == ["import", "self_us", "cumul_us"]
        cumulative = [int(r.split()[2]) for r in rows]
        assert cumulative == sorted(cumulative, reverse=True)
        return {r.split()[0] for r in rows}

    names = other_imports(["--cli", "check", str(alg)])
    assert {"argparse", "json", "fractions"} <= names
    assert not names & {"dataclasses", "inspect", "sys"}
    assert not any(n.startswith("homcyc") for n in names)
    package = tmp_path / "heavy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import dataclasses\n")
    assert {"dataclasses", "inspect"} <= other_imports(
        ["--src", str(package), "--cli"])


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


def test_ab_passes_aa_run_reports_both_trees(capsys, monkeypatch):
    """One tree against itself: both sides run and are checked, and the
    report gives each side's times and the per-pair ratio."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    src = str(SCRIPTS.parent / "src")
    assert _script("ab_passes").main([src, src, "--workload", "corpus_betti",
                                      "--passes", "2", "--seed", "3"]) == 0
    old, new, ratio = capsys.readouterr().out.splitlines()
    for line, side in ((old, "OLD"), (new, "NEW")):
        words = line.split()
        assert words[:2] == [side, "min"] and words[3:5] == ["s", "median"]
        assert 0 < float(words[2]) <= float(words[5])
    words = ratio.split()
    assert words[:3] == ["ratio", "NEW/OLD", "median"]
    q1, median, q3 = float(words[5]), float(words[3]), float(words[6])
    assert 0 < q1 <= median <= q3 and words[-2:] == ["(2", "pairs)"]


def test_ab_passes_runs_each_tree_on_its_own_modules(tmp_path, capsys,
                                                     monkeypatch):
    """A NEW tree whose rank is off by one fails its own check, and the
    OLD tree, which runs first, passes: so each pass runs the modules
    of its tree, not the tree loaded last.  A directory without homcyc
    exits 2."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    src = SCRIPTS.parent / "src"
    shutil.copytree(src / "homcyc", tmp_path / "homcyc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    linalg = tmp_path / "homcyc" / "linalg.py"
    text = linalg.read_text()
    assert text.count("return len(_echelon(m))") == 1
    linalg.write_text(text.replace("return len(_echelon(m))",
                                   "return len(_echelon(m)) + 1"))
    ab = _script("ab_passes")
    assert ab.main([str(src), str(tmp_path), "--passes", "1",
                    "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"NEW ({tmp_path}) pass 0: ") and "OLD" not in err
    assert ab.main([str(src), str(tmp_path / "none")]) == 2
