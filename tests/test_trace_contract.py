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


def test_small_runs_reach_the_required_operators(monkeypatch):
    """Rebind counters the way the trace does: in every homcyc module
    that holds the original function."""
    names = ["face_map", "coface_map", "cochain_b", "check_presimplicial"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(importlib.import_module("homcyc.hochschild"), name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if module is not None and (modname == "homcyc" or
                                       modname.startswith("homcyc.")):
                for key, val in list(vars(module).items()):
                    if val is orig:
                        monkeypatch.setattr(module, key, counted)
    A = two_dim_unital()
    homcyc.hochschild_homology(A, 2)
    homcyc.hochschild_cohomology(A, 2)
    assert all(calls.values()), calls
