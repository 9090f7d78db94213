"""The benchmark's trace wraps homcyc functions by name from outside
(`perfbench/spans.py`).  These tests fail when a refactor removes or
renames one of those functions, or stops a small run from reaching the
operators the trace requires, so `--trace 1` cannot break unnoticed.
`perfbench/spans.py` is only read here, never changed or installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import homcyc
from homcyc.corpus import two_dim_unital

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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


def _count_calls(monkeypatch, modname, names):
    """Rebind counters the way the trace does: in every homcyc module
    that holds the original function.  Returns the call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(importlib.import_module(f"homcyc.{modname}"), name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for key_mod, module in list(sys.modules.items()):
            if module is not None and (key_mod == "homcyc" or
                                       key_mod.startswith("homcyc.")):
                for key, val in list(vars(module).items()):
                    if val is orig:
                        monkeypatch.setattr(module, key, counted)
    return calls


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
