"""The survey scripts under scripts/ run end to end on small degrees.

They are not part of the package and read the library only through its
public API, so a change to that API can break them without failing any
other test."""

import importlib.util
import json
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


@pytest.mark.parametrize("name", ["run_corpus_report"])
def test_script_main_exits_0(name, capsys):
    assert _script(name).main(["--max", "1"]) == 0
    assert capsys.readouterr().out


def test_compile_weight_marks_the_largest_module(capsys, tmp_path):
    """One row per module of homcyc, with integer counts, the module
    with the largest compile peak marked, and an unmarked total row of
    lines and nodes; a directory without modules exits 2."""
    assert _script("compile_weight").main([]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "nodes", "peak_kb"]
    table = {r.split()[0]: r.split() for r in rows}
    assert "linalg.py" in table and "__init__.py" in table
    assert all(int(lines) > 0 and int(nodes) > 0 and int(peak) > 0
               for _, lines, nodes, peak, *_ in table.values())
    marked = [name for name, r in table.items() if r[-1] == "*"]
    assert len(marked) == 1
    assert int(table[marked[0]][3]) == max(int(r[3]) for r in table.values())
    assert total.split()[0] == "total" and not total.endswith("*")
    assert [int(x) for x in total.split()[1:3]] == [
        sum(int(r[i]) for r in table.values()) for i in (1, 2)]
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


def _corpus_jobs(sep):
    """The labels of the benchmark's corpus_betti jobs, each joined by
    sep, sorted."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        SCRIPTS.parent / "perfbench" / "workloads.py")
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    return sorted(sep.join(map(str, job)) for job in table.CORPUS_JOBS)


def test_job_peaks_prints_every_corpus_job(capsys, monkeypatch):
    """One row per job of the benchmark's corpus_betti table, each with
    a time and a tracemalloc peak, after the results are checked."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    assert _script("job_peaks").main(["--workload", "corpus_betti",
                                      "--seed", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["job", "ms", "peak_kb"]
    assert sorted(r.rsplit(None, 2)[0] for r in rows) == _corpus_jobs(" ")
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


def test_ab_passes_jobs_reports_each_job_in_both_trees(capsys, monkeypatch):
    """With --jobs, the A/A run adds one line per job: its median time
    in each tree and their ratio, the largest absolute move first."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    src = str(SCRIPTS.parent / "src")
    ab = _script("ab_passes")
    assert ab.main([src, src, "--workload", "corpus_betti", "--passes", "2",
                    "--seed", "3", "--jobs"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["OLD", "NEW", "ratio"]
    jobs = [line.split() for line in lines[3:]]
    assert sorted(words[1] for words in jobs) == _corpus_jobs("/")
    moves = []
    for words in jobs:
        assert words[0] == "job" and words[2::3] == ["OLD", "NEW", "ratio"]
        assert words[4] == words[7] == "ms"
        old, new = float(words[3]), float(words[6])
        assert 0 < old and 0 < new
        assert float(words[9]) == pytest.approx(new / old, rel=0.02)
        moves.append(abs(new - old))
    # the moves are sorted unrounded; each printed time is rounded by
    # up to 0.0005 ms
    assert all(a >= b - 0.002 for a, b in zip(moves, moves[1:]))


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


def _canned_run(wall):
    """Standard output of one `perfbench/run.py --trace 0` run."""
    metrics = {"setup_s": {"value": 0.1, "unit": "s"},
               "wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": 19.0, "unit": "MB"}}
    return "\n".join([
        json.dumps({"context": {"workload": "corpus_betti", "machine": {
            "nproc": 2, "cpu_model": "Test CPU", "python": "3.11.7"}}}),
        *(f"{name:48} {m['value']:>14.6g} {m['unit']}"
          for name, m in metrics.items()),
        json.dumps({"correct": True, "attempted": 10, "failed": 0,
                    "metrics": metrics})]) + "\n"


def test_bench_writes_medians_quartiles_and_wins(tmp_path, monkeypatch,
                                                 capsys):
    """Canned run.py output in place of the benchmark: pairs alternate
    which side runs first, each side's quartiles and the pairs won are
    written, and unequal checkout path lengths are warned about."""
    bench = _script("bench")
    parent, change = tmp_path / "parent", tmp_path / "the_change"
    for checkout in (parent, change):
        checkout.mkdir()
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", change)
    walls = {"parent": [0.070, 0.060, 0.065, 0.061],
             "the_change": [0.060, 0.062, 0.055, 0.050]}
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        return bench.parse_run(_canned_run(walls[checkout.name][seed - 1]))

    monkeypatch.setattr(bench, "run_once", fake)
    assert bench.main(["--pr", "7", "--parent", str(parent), "--change",
                       str(change), "--workload", "corpus_betti",
                       "--seeds", "1-2,3,4", "--seconds", "5"]) == 0
    assert "differ in length" in capsys.readouterr().err
    assert calls == [("parent", 1), ("the_change", 1), ("the_change", 2),
                     ("parent", 2), ("parent", 3), ("the_change", 3),
                     ("the_change", 4), ("parent", 4)]
    doc = json.loads((change / "BENCH_7.json").read_text())
    assert doc["machine"]["cpu_model"] == "Test CPU"
    assert doc["parent"]["path_chars"] == len(str(parent))
    w = doc["workloads"]["corpus_betti"]
    assert w["seeds"] == [1, 2, 3, 4]
    assert [p["first"] for p in w["pairs"]] == \
        ["parent", "change", "parent", "change"]
    wall = w["metrics"]["wall_s"]
    assert (wall["won"], wall["lost"], wall["pairs"]) == (3, 1, 4)
    assert wall["parent"]["median"] == pytest.approx(0.063)
    assert wall["change"]["median"] == pytest.approx(0.0575)
    assert wall["parent"]["q1"] <= 0.063 <= wall["parent"]["q3"]
    assert wall["delta"] == pytest.approx(0.0575 / 0.063 - 1)
    assert w["metrics"]["peak_rss_mb"]["won"] == 0  # ties count for neither
    assert w["failed"] == {"parent": 0, "change": 0}


def test_bench_stops_on_a_failed_or_unreadable_run(tmp_path, monkeypatch,
                                                   capsys):
    bench = _script("bench")
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", tmp_path)
    outputs = iter(["wrong result\n"])

    def fake(checkout, workload, seed, seconds):
        return bench.parse_run(next(outputs))

    monkeypatch.setattr(bench, "run_once", fake)
    args = ["--pr", "x", "--parent", str(tmp_path), "--change",
            str(tmp_path), "--workload", "basis_change", "--seeds", "1"]
    assert bench.main(args) == 1
    assert "not the benchmark's result" in capsys.readouterr().err

    def failing(checkout, workload, seed, seconds):
        raise RuntimeError("exited 1")

    monkeypatch.setattr(bench, "run_once", failing)
    assert bench.main(args) == 1
    assert not (tmp_path / "BENCH_x.json").exists()
