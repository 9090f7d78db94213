"""Span recording around homcyc's public functions, attached from outside.

`install` wraps each function in TARGETS and rebinds the wrapper in every
`homcyc.*` module that holds the original object, because
`from .linalg import kernel`-style imports bind one function under
several module namespaces.  Methods are wrapped on their classes.
Nothing under `src/` is edited.

A span is [name, start, end, parent index, job, duration, counts].  The
duration excludes the time the recorder spent computing counts inside
it, so nested counting does not inflate the enclosing spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = ("build", "verify", "reduce", "report")


def _bits(entries) -> int:
    best = 0
    for x in entries:
        if x:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
    return best


def _count_rref(args, out):
    m = args[0]
    return {"cells": m.rows * m.cols,
            "nnz": sum(1 for x in m.entries if x),
            "max_bits": _bits(out[0].entries)}


def _count_matmul(args, out):
    a, b = args
    col_nnz = [0] * a.cols
    for i in range(a.rows):
        for k, x in enumerate(a.row(i)):
            if x:
                col_nnz[k] += 1
    mults = sum(col_nnz[k] * sum(1 for x in b.row(k) if x)
                for k in range(b.rows) if col_nnz[k])
    return {"mults": mults, "max_bits": _bits(out.entries)}


def _count_cells(args, out):
    return {"cells": out.rows * out.cols}


def _count_total(args, out):
    return {"max_dim": max(out.dims.values(), default=0)}


# (span name, module, attribute, layer, counter).  A span's self time is
# charged to its layer; a span with layer None takes the layer of its
# nearest enclosing span that has one: face_map inside
# check_presimplicial is verify, inside hochschild_b it is build.
TARGETS = [
    ("linalg.rref", "linalg", "rref", "reduce", _count_rref),
    ("linalg.reduce_mod", "linalg", "reduce_mod", "reduce", None),
    ("linalg.kernel", "linalg", "kernel", "reduce", None),
    ("linalg.image", "linalg", "image", "reduce", None),
    ("linalg.matmul", "linalg", "Matrix.__matmul__", None, _count_matmul),
    ("hochschild.face_map", "hochschild", "face_map", None, None),
    ("hochschild.hochschild_b", "hochschild", "hochschild_b", "build",
     _count_cells),
    ("hochschild.b_prime", "hochschild", "b_prime", "build", _count_cells),
    ("hochschild.cyclic_t", "hochschild", "cyclic_t", "build", None),
    ("hochschild.norm_N", "hochschild", "norm_N", "build", None),
    ("hochschild.coface_map", "hochschild", "coface_map", None, None),
    ("hochschild.cochain_b", "hochschild", "cochain_b", "build", None),
    ("hochschild.check_presimplicial", "hochschild", "check_presimplicial",
     "verify", None),
    ("hochschild.build_hochschild_homology_complex", "hochschild",
     "build_hochschild_homology_complex", "build", None),
    ("hochschild.build_hochschild_cohomology_complex", "hochschild",
     "build_hochschild_cohomology_complex", "build", None),
    ("complexes.check_d_squared", "complexes", "ChainComplex.check_d_squared",
     "verify", None),
    ("complexes.check_squares", "complexes", "Bicomplex.check_squares",
     "verify", None),
    ("complexes.total_complex", "complexes", "total_complex", "build",
     _count_total),
    ("complexes.quotient_complex", "complexes", "quotient_complex", "build",
     None),
    ("complexes.sub_complex", "complexes", "sub_complex", "build", None),
    ("complexes.homology", "complexes", "homology", "reduce", None),
    ("complexes.report_for_complex", "complexes", "report_for_complex",
     "reduce", None),
    ("complexes.HomologyReport.to_json_dict", "complexes",
     "HomologyReport.to_json_dict", "report", None),
    ("cyclic.cyclic_bicomplex", "cyclic", "cyclic_bicomplex", "build", None),
    ("cyclic.cocyclic_bicomplex", "cyclic", "cocyclic_bicomplex", "build",
     None),
    ("cyclic.lambda_quotient_subspaces", "cyclic",
     "lambda_quotient_subspaces", "build", None),
    ("cyclic.induced_map_on_homology", "cyclic", "induced_map_on_homology",
     "reduce", None),
    ("algebra.validate", "algebra", "validate", "verify", None),
    ("algebra.validate_morphism", "algebra", "validate_morphism", "verify",
     None),
    ("algebra.load_algebra", "algebra", "load_algebra", None, None),
    ("coefficients.validate_homology_coefficients", "coefficients",
     "validate_homology_coefficients", "verify", None),
    ("coefficients.check_bimodule_axioms", "coefficients",
     "check_bimodule_axioms", "verify", None),
    ("coefficients.check_dual_bimodule_axioms", "coefficients",
     "check_dual_bimodule_axioms", "verify", None),
    ("cocycles.trace_space", "cocycles", "trace_space", None, None),
    ("cocycles.is_cyclic_cocycle", "cocycles", "is_cyclic_cocycle", "verify",
     None),
    ("cli.main", "cli", "main", None, None),
    ("cli.emit", "cli", "_emit", "report", None),
]

LAYER_OF = {t[0]: t[3] for t in TARGETS}


class Recorder:
    """In-memory spans of one process; `job` None means not recording."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.overhead = 0.0

    def wrap(self, name, fn, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else None,
                    rec.job, rec.overhead, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.stack.pop()
                span[2] = end
                span[5] = end - span[1] - (rec.overhead - span[5])
            if count is not None:
                span[6] = count(args, out)
                rec.overhead += perf_counter() - end
            return out

        return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target; raise if one no longer exists."""
    for name, modname, attr, _layer, count in TARGETS:
        mod = importlib.import_module(f"homcyc.{modname}")
        owner_name, _, fname = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            orig = owner.__dict__.get(fname) if owner is not None else None
        else:
            orig = getattr(mod, fname, None)
        if not callable(orig):
            raise LookupError(f"trace target homcyc.{modname}.{attr} is gone")
        wrapper = rec.wrap(name, orig, count)
        if owner_name:
            setattr(owner, fname, wrapper)
            continue
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "homcyc" or
                                 mname.startswith("homcyc.")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)


def dump(spans: list[list], path, extra: dict | None = None) -> None:
    """Write spans as JSONL, then `extra` as a trailer line."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "job": s[4], "duration": s[5], "counts": s[6]}) + "\n")
        if extra is not None:
            fh.write(json.dumps(extra) + "\n")


def load(path) -> tuple[list[list], dict]:
    """Spans and the trailer dict written by `dump`."""
    spans, extra = [], {}
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            if "name" in d:
                spans.append([d["name"], d["start"], d["end"], d["parent"],
                              d["job"], d["duration"], d["counts"]])
            else:
                extra = d
    return spans, extra


def summarise(spans: list[list], skip_job: str) -> tuple[dict, dict]:
    """Per span name: calls, inclusive and self seconds, summed or maxed
    counts.  And the self seconds charged to each layer, leaving out the
    spans of job `skip_job`."""
    child_time = [0.0] * len(spans)
    layer = [None] * len(spans)
    outermost = [True] * len(spans)
    for i, s in enumerate(spans):  # parents precede their children
        p = s[3]
        layer[i] = LAYER_OF[s[0]] or (layer[p] if p is not None else None)
        if p is not None:
            child_time[p] += s[5]
            q = p
            while q is not None:
                if spans[q][0] == s[0]:
                    outermost[i] = False
                    break
                q = spans[q][3]
    per: dict[str, dict] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        d = per.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        d["calls"] += 1
        self_s = s[5] - child_time[i]
        d["self_s"] += self_s
        if outermost[i]:
            d["s"] += s[5]
        if layer[i] is not None and s[4] != skip_job:
            layers[layer[i]] += self_s
        for key, val in (s[6] or {}).items():
            if key.startswith("max_"):
                d[key] = max(d.get(key, 0), val)
            else:
                d[key] = d.get(key, 0) + val
    return per, layers
