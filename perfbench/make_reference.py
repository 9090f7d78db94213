"""Regenerate perfbench/reference.json from the engine, with cross-checks.

    python3 perfbench/make_reference.py

Computes every Betti number the workloads compare against, on the corpus
algebras in their given bases, and refuses to write the file unless:
- HH_n(A, A) and HH^n(A, A*) have equal dimensions (duality),
- the lambda and bicomplex methods agree for HC and HC-co, and HC_n and
  HC^n have equal dimensions, likewise HP_n and HP^n per window,
- a run at a lower top degree gives a prefix of the stored run.
It also records the basis-invariant answers of the other CLI requests.
Takes about a minute on a shared 2-core Xeon VM.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import homcyc  # noqa: E402

import inputs  # noqa: E402
import workloads as wl  # noqa: E402

DUAL = {"hh": "hhco", "hhco": "hh", "hc": "hcco", "hcco": "hc",
        "hp": "hpco", "hpco": "hp"}


def needed() -> dict[tuple[str, str], set[int]]:
    """(theory, algebra) -> every top degree a workload asks for."""
    need = defaultdict(set)
    for theory, alg, n in wl.CORPUS_JOBS:
        need[(theory, alg)].add(n)
    for alg, (n, n_hh, n_hc) in wl.BASIS_DEGREES.items():
        for theory in ("hh", "hhco", "hc"):
            need[(theory, alg)].add(n)
        need[("hh", alg)].add(n_hh)
        need[("hc", alg)].add(n_hc)
    for _argv, check, key in wl.CLI_REQUESTS:
        if check in ("homology", "cyclic_both", "periodic", "duality"):
            theory, alg, n = key
            need[(theory, alg)].add(n)
            if check == "duality":
                need[("hhco", alg)].add(n)
    # compute each theory's dual too, at the same degrees
    for (theory, alg), degrees in list(need.items()):
        need[(DUAL[theory], alg)] |= degrees
    return need


def prefix(result, n):
    if isinstance(result, dict):
        return {k: v[:n + 1] for k, v in result.items()}
    return result[:n + 1]


def betti_references(algebras) -> dict:
    out = defaultdict(dict)
    for (theory, alg), degrees in sorted(needed().items()):
        top = max(degrees)
        full = wl.run_theory(algebras[alg], theory, top)
        for n in sorted(degrees - {top}):
            lower = wl.run_theory(algebras[alg], theory, n)
            if lower != prefix(full, n):
                raise SystemExit(f"{theory} {alg}: degree {n} run {lower} "
                                 f"is not a prefix of {full}")
        out[theory][alg] = full
        print(f"{theory:5} {alg:22} {top}: {full}", flush=True)
    for theory in ("hh", "hc", "hp"):
        for alg, result in out[theory].items():
            dual = out[DUAL[theory]][alg]
            n = min(len(_betti_list(result)), len(_betti_list(dual))) - 1
            if prefix(result, n) != prefix(dual, n):
                raise SystemExit(f"{theory} and {DUAL[theory]} differ for "
                                 f"{alg}: {result} vs {dual}")
    return {t: dict(sorted(v.items())) for t, v in sorted(out.items())}


def _betti_list(result):
    return result["betti"] if isinstance(result, dict) else result


def _matrix(rows):
    return homcyc.Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


def other_references(algebras) -> dict:
    ref = {"check": {}, "dual_space": {}, "decompose": {}, "twist": {},
           "cocycle_derive": {}}
    for argv, check, key in wl.CLI_REQUESTS:
        A = algebras.get(key) if isinstance(key, str) else None
        if check == "check":
            ref["check"][key] = {
                "unital": homcyc.find_unit(A) is not None,
                "centroid": homcyc.is_centroid_element(A)[0],
                "alpha_idempotent": (A.alpha @ A.alpha) == A.alpha}
        elif check == "dual_space":
            ref["dual_space"][key] = homcyc.a_circ(A).subspace.dim
        elif check == "decompose":
            dec = homcyc.unital_decompose(A)
            ref["decompose"][key] = [dec.part_unital_associative.dim,
                                     dec.part_complement.dim]
        elif check == "twist":
            endo = _matrix(wl.AUX[argv[2].strip("{}")])
            d = homcyc.yau_twist(A, endo).to_json_dict()
            ref["twist"][key] = {k: d[k] for k in ("mul", "alpha", "dim")}
        elif check == "cocycle_derive":
            alg = argv[2].strip("{}")
            A = algebras[alg]
            rho = homcyc.TwistedDerivation(
                _matrix(wl.AUX[argv[4].strip("{}")]))
            tr = homcyc.Functional(0, tuple(
                Fraction(x) for x in wl.AUX[argv[6].strip("{}")]["coords"]))
            phi = homcyc.derivation_cocycle(A, rho, tr)
            ref["cocycle_derive"][key] = [
                f"{x.numerator}" if x.denominator == 1 else
                f"{x.numerator}/{x.denominator}" for x in phi.coords]
        elif check == "cocycle_verify":
            data = wl.AUX[argv[4].strip("{}")]
            phi = homcyc.Functional(int(data["degree"]), tuple(
                Fraction(x) for x in data["coords"]))
            got = homcyc.is_cyclic_cocycle(
                phi, algebras[argv[2].strip("{}")]).is_cocycle
            if got is not key:
                raise SystemExit(f"{' '.join(argv)}: cocycle check gives {got}")
    return ref


def main() -> int:
    algebras = {name: make() for name, make in inputs.CORPUS.items()}
    ref = {"homcyc_version": homcyc.__version__,
           "betti": betti_references(algebras)}
    ref.update(other_references(algebras))
    wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
