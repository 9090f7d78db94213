"""The benchmark's trace wraps homcyc functions by name from outside
(`perfbench/spans.py`), and a traced run fails unless every span its
workload requires (`REQUIRED` in `perfbench/run.py`) fires.  These tests
fail when a refactor removes or renames one of those functions, or stops
small runs of a workload's kinds of job from reaching every span it
requires, so `--trace 1` cannot break unnoticed.  Both perfbench files
are only read here, never changed or installed.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import homcyc
from homcyc.corpus import truncated_polynomials, two_dim_unital
from homcyc.linalg import Matrix

ROOT = Path(__file__).resolve().parents[1]
HALF = ROOT / "tests" / "golden" / "algebra-two_dim_unital_half.json"


def _perfbench(name):
    """perfbench/<name>.py, loaded without running it as a script."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _perfbench("spans").TARGETS


def _resolve(modname, attr):
    owner = importlib.import_module(f"homcyc.{modname}")
    owner_name, _, fname = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name, None)
        return owner.__dict__.get(fname) if owner is not None else None
    return getattr(owner, fname, None)


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for name, modname, attr, _layer, _count in targets:
        assert callable(_resolve(modname, attr)), name


def _count(monkeypatch, targets):
    """Rebind counters the way the trace does: a method on its class, a
    function in every homcyc module that holds it.  `targets` holds
    (key, module, attribute) triples; returns the call counts by key."""
    calls = {key: 0 for key, _, _ in targets}
    for key, modname, attr in targets:
        owner_name, _, fname = attr.rpartition(".")
        owner = importlib.import_module(f"homcyc.{modname}")
        if owner_name:
            owner = getattr(owner, owner_name)
        orig = owner.__dict__[fname] if owner_name else getattr(owner, fname)

        def counted(*args, _key=key, _orig=orig, **kwargs):
            calls[_key] += 1
            return _orig(*args, **kwargs)

        if owner_name:
            monkeypatch.setattr(owner, fname, counted)
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is not None and (mod_name == "homcyc" or
                                       mod_name.startswith("homcyc.")):
                for name, val in list(vars(module).items()):
                    if val is orig:
                        monkeypatch.setattr(module, name, counted)
    return calls


def _count_calls(monkeypatch, modname, names):
    return _count(monkeypatch, [(name, modname, name) for name in names])


def test_small_runs_reach_the_required_operators(monkeypatch):
    calls = _count_calls(monkeypatch, "hochschild",
                         ["face_map", "coface_map", "cochain_b",
                          "check_presimplicial"])
    A = two_dim_unital()
    homcyc.hochschild_homology(A, 2)
    homcyc.hochschild_cohomology(A, 2)
    assert all(calls.values()), calls


def test_representatives_and_lambda_reach_rref(monkeypatch):
    """`rank` shares no code with `rref`, so Betti numbers alone need
    not reach it; representatives and the λ-quotient must."""
    A = two_dim_unital()
    calls = _count_calls(monkeypatch, "linalg", ["rref"])
    homcyc.hochschild_homology(A, 1, representatives=True)
    assert calls["rref"]
    calls["rref"] = 0
    homcyc.cyclic_homology_lambda(A, 1)
    assert calls["rref"]


def _corpus_betti_jobs(tmp_path):
    A, _ = homcyc.load_algebra(two_dim_unital().to_json_dict())
    homcyc.hochschild_homology(A, 2)
    homcyc.hochschild_cohomology(A, 2)
    homcyc.cyclic_homology_both(A, 2).require_agreement()
    homcyc.cyclic_cohomology_both(A, 2).require_agreement()
    homcyc.periodic_homology(A, 1)


def _basis_change_jobs(tmp_path):
    A, _ = homcyc.load_algebra(two_dim_unital().to_json_dict())
    B, _ = homcyc.load_algebra(str(HALF))
    homcyc.hochschild_homology(B, 2)
    homcyc.hochschild_cohomology(B, 2)
    homcyc.cyclic_homology_both(B, 2).require_agreement()
    iso = homcyc.AlgebraMorphism(A, B, Matrix.from_rows([[2, 0], [0, 1]]))
    homcyc.induced_map_on_homology(iso, "HH", 1)
    homcyc.induced_map_on_homology(iso, "HC", 1)


def _cli_requests_jobs(tmp_path):
    from homcyc import cli
    files = {"alg": two_dim_unital().to_json(),
             "tp3": truncated_polynomials().to_json(),
             "phi": json.dumps({"degree": 0, "coords": ["1", "0"]}),
             "rho": json.dumps([["0", "0", "0"], ["0", "1", "0"],
                                ["0", "0", "2"]]),
             "tr": json.dumps({"coords": ["1", "0", "0"]})}
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / f"{name}.json")
        Path(path[name]).write_text(text)
    for argv in (["hh", path["alg"], "--max", "2", "--format", "json",
                  "--representatives"],
                 ["hhco", path["alg"], "--max", "2"],
                 ["hc", path["alg"], "--max", "2", "--format", "json"],
                 ["hcco", path["alg"], "--max", "2", "--method", "lambda"],
                 ["hcco", path["alg"], "--max", "2"],
                 ["cocycle", "verify", path["alg"], "--functional",
                  path["phi"]],
                 ["cocycle", "derive", path["tp3"], "--derivation",
                  path["rho"], "--trace", path["tr"]]):
        assert cli.main(argv) == 0, argv


JOBS = {"corpus_betti": _corpus_betti_jobs,
        "basis_change": _basis_change_jobs,
        "cli_requests": _cli_requests_jobs}


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_small_jobs_fire_every_required_span(workload, monkeypatch,
                                             tmp_path):
    required_by_workload = _perfbench("run").REQUIRED
    assert set(required_by_workload) == set(JOBS)
    required = required_by_workload[workload]
    targets = {name: (modname, attr)
               for name, modname, attr, _layer, _count in _targets()}
    assert required <= set(targets)
    calls = _count(monkeypatch, [(name, *targets[name])
                                 for name in sorted(required)])
    JOBS[workload](tmp_path)
    assert not [name for name, n in calls.items() if not n]
