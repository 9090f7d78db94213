"""The three workloads: job tables, how one job runs, and the checks of
every output against `reference.json`.

Jobs run through homcyc's public Python API (`corpus_betti`,
`basis_change`) or its command line (`cli_requests`).  A job returns its
result; the caller times the job and checks the result afterwards, so
the checks stay outside the measured time.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import homcyc

REFERENCE = Path(__file__).with_name("reference.json")

# (theory, algebra, max degree).  hh/hhco/hc/hcco run the default checks
# and, for hc/hcco, the `both` method with agreement required.
CORPUS_JOBS = [
    ("hh", "two_dim_unital", 5),
    ("hhco", "two_dim_unital", 5),
    ("hc", "dual_numbers_twisted", 4),
    ("hcco", "k1+k2", 4),
    ("hh", "mat2", 2),
    ("hc", "trunc_poly3", 2),
    ("hp", "dual_numbers_twisted", 1),
    ("hh", "k2", 8),
    ("hp", "ground_field", 5),
    ("hpco", "k2", 5),
]

# per transported algebra: (hh/hhco/hc degree, induced-map degree, and the
# HC induced-map degree); iHH/iHC are the maps induced on HH_n and HC_n by
# the isomorphism from the original algebra
BASIS_DEGREES = {
    "two_dim_unital": (4, 3, 3),
    "k1+k2": (3, 3, 3),
    "dual_numbers_twisted": (3, 3, 3),
    "trunc_poly3": (2, 2, 0),
    "mat2": (1, 0, 0),
}


def basis_jobs(copies: dict[str, str]) -> list[tuple[str, str, int]]:
    """(job, copy name, degree); `copies` maps algebra name to copy name."""
    jobs = []
    for alg, (n, n_hh_map, n_hc_map) in BASIS_DEGREES.items():
        jobs += [("hh", copies[alg], n), ("hhco", copies[alg], n),
                 ("hc", copies[alg], n), ("iHH", copies[alg], n_hh_map),
                 ("iHC", copies[alg], n_hc_map)]
    return jobs


def run_theory(A, theory: str, n: int):
    """Betti numbers as plain lists; periodic theories give both windows."""
    if theory == "hh":
        return _betti(homcyc.hochschild_homology(A, n))
    if theory == "hhco":
        return _betti(homcyc.hochschild_cohomology(A, n))
    if theory in ("hc", "hcco"):
        both = (homcyc.cyclic_homology_both if theory == "hc"
                else homcyc.cyclic_cohomology_both)(A, n)
        both.require_agreement()
        return [both.betti_lambda[k] for k in both.degrees]
    if theory in ("hp", "hpco"):
        rep = (homcyc.periodic_homology if theory == "hp"
               else homcyc.periodic_cohomology)(A, n)
        return {"betti": [rep.betti[k] for k in rep.degrees],
                "betti_wider": [rep.betti_wider[k] for k in rep.degrees]}
    raise ValueError(theory)


def _betti(report) -> list[int]:
    return [report.betti[k] for k in report.degrees]


def run_induced(iso, kind: str, n: int):
    """Matrix of the map induced on HH_n (kind iHH) or HC_n (iHC)."""
    return homcyc.induced_map_on_homology(iso, kind[1:], n)


class WrongResult(Exception):
    """An output differs from the reference: the run is aborted."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_betti(ref: dict, theory: str, alg: str, n: int):
    """Reference for degrees 0..n: a prefix of the stored run, since the
    Betti number in degree k does not depend on the truncation n >= k."""
    stored = ref["betti"][theory][alg]
    if isinstance(stored, dict):
        expect(len(stored["betti"]) > n, f"no reference {theory} {alg} {n}")
        return {k: v[:n + 1] for k, v in stored.items()}
    expect(len(stored) > n, f"no reference {theory} {alg} {n}")
    return stored[:n + 1]


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain Gaussian elimination, independent of homcyc.linalg."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_job(ref: dict, job: tuple[str, str, int], original: str,
              result) -> None:
    """Compare one in-process result with the reference of `original`."""
    kind, name, n = job
    if kind in ("iHH", "iHC"):
        theory = "hh" if kind == "iHH" else "hc"
        size = reference_betti(ref, theory, original, n)[n]
        expect(result.rows == result.cols == size,
               f"{kind} {name} {n}: map is {result.rows}x{result.cols}, "
               f"expected {size}x{size}")
        expect(exact_rank(result.to_rows()) == size,
               f"{kind} {name} {n}: induced map is not invertible")
        return
    expect(result == reference_betti(ref, kind, original, n),
           f"{kind} {name} {n}: {result} differs from the reference")


# ---------------------------------------------------------------------------
# CLI requests.  Each is (argv, check, reference key).  In argv, "{x}"
# names a file the set-up writes: an algebra ("{mat2}"), its seeded copy
# ("{mat2@}") or an auxiliary input.  Check "invalid" expects exit 2 and
# checks no output; every other check expects exit 0 unless noted.

def _cli_table():
    t = []

    def add(argv, check, key=None):
        t.append((argv, check, key))

    for alg in ("two_dim_unital", "ground_field", "k2", "k1+k2",
                "dual_numbers_twisted", "trunc_poly3", "mat2",
                "two_dim_unital@"):
        add(["check", "{%s}" % alg], "check", alg.rstrip("@"))
    for theory, alg, n in [("hh", "two_dim_unital", 3), ("hh", "k2", 4),
                           ("hh", "ground_field", 3), ("hh", "k1+k2", 2),
                           ("hh", "dual_numbers_twisted", 2),
                           ("hh", "trunc_poly3", 1),
                           ("hh", "two_dim_unital@", 2), ("hh", "k1+k2@", 2),
                           ("hhco", "two_dim_unital", 3),
                           ("hhco", "dual_numbers_twisted", 2),
                           ("hhco", "k1+k2", 2), ("hhco", "trunc_poly3", 1),
                           ("hhco", "dual_numbers_twisted@", 2),
                           ("hhco", "mat2", 1)]:
        add([theory, "{%s}" % alg, "--max", str(n)], "homology",
            (theory, alg.rstrip("@"), n))
    for theory, alg, n, method in [
            ("hc", "two_dim_unital", 2, "both"),
            ("hc", "dual_numbers_twisted", 2, "lambda"),
            ("hc", "k1+k2", 2, "bicomplex"),
            ("hc", "trunc_poly3", 1, "both"),
            ("hc", "two_dim_unital@", 2, "lambda"),
            ("hc", "trunc_poly3@", 1, "both"),
            ("hcco", "two_dim_unital", 2, "both"),
            ("hcco", "k1+k2", 2, "lambda"),
            ("hcco", "dual_numbers_twisted", 2, "bicomplex"),
            ("hcco", "k1+k2@", 2, "both"),
            ("hcco", "ground_field", 3, "lambda")]:
        add([theory, "{%s}" % alg, "--max", str(n), "--method", method],
            "cyclic_both" if method == "both" else "homology",
            (theory, alg.rstrip("@"), n))
    for theory, alg, n in [("hp", "ground_field", 3), ("hp", "k2", 2),
                           ("hp", "two_dim_unital", 0),
                           ("hp", "dual_numbers_twisted@", 0),
                           ("hpco", "ground_field", 2), ("hpco", "k2", 2),
                           ("hpco", "k1+k2", 0)]:
        add([theory, "{%s}" % alg, "--max", str(n)], "periodic",
            (theory, alg.rstrip("@"), n))
    for alg, n in [("two_dim_unital", 2), ("dual_numbers_twisted", 2),
                   ("k1+k2@", 2), ("trunc_poly3", 1)]:
        add(["duality", "{%s}" % alg, "--max", str(n)], "duality",
            ("hh", alg.rstrip("@"), n))
    add(["twist", "{dual_numbers}", "{alpha_dn}"], "twist", "dual_numbers")
    add(["twist", "{trunc_poly3}", "{alpha_tp3}"], "twist", "trunc_poly3")
    for alg in ("two_dim_unital", "mat2", "two_dim_unital@"):
        add(["dual-space", "{%s}" % alg], "dual_space", alg.rstrip("@"))
    for alg in ("two_dim_unital", "k1+k2", "two_dim_unital@"):
        add(["decompose", "{%s}" % alg], "decompose", alg.rstrip("@"))
    add(["cocycle", "verify", "{two_dim_unital}", "--functional",
         "{trace_2du}"], "cocycle_verify", True)
    add(["cocycle", "verify", "{mat2}", "--functional", "{trace_mat2}"],
        "cocycle_verify", True)
    add(["cocycle", "derive", "{trunc_poly3}", "--derivation", "{euler_tp3}",
         "--trace", "{trace_tp3}"], "cocycle_derive", "trunc_poly3")
    add(["cocycle", "derive", "{mat2}", "--derivation", "{inner_mat2}",
         "--trace", "{trace_mat2}"], "cocycle_derive", "mat2")
    # invalid inputs whose README exit code 2 holds at the baseline
    add(["check", "{malformed}"], "invalid")
    add(["check", "{not_hom_assoc}"], "invalid")
    add(["decompose", "{zero_algebra}"], "invalid")
    add(["cocycle", "verify", "{two_dim_unital}", "--functional",
         "{non_cocycle}"], "invalid")
    # every other request alternates JSON with representatives and text
    out = []
    for i, (argv, check, key) in enumerate(t):
        fmt = []
        if check != "invalid":
            fmt = ["--format", "json" if i % 2 == 0 else "text"]
            if i % 2 == 0 and argv[0] in ("hh", "hhco", "hc", "hcco",
                                          "hp", "hpco"):
                fmt.append("--representatives")
        out.append((argv + fmt, check, key))
    return out


CLI_REQUESTS = _cli_table()

# Invalid inputs that break the README exit contract (exit 2) at the
# baseline.  They run once per run, untimed, and are reported apart from
# the timed requests; see NOTES.md.
CONTRACT_PROBES = [
    ["hh", "{malformed}"],
    ["hc", "{invalid_json}"],
    ["hh", "{missing}"],
    ["hp", "{two_dim_unital}", "--max", "1", "--window", "3"],
    ["hh", "{two_dim_unital}", "--max", "-1"],
]


# the non-algebra inputs of the CLI requests, by placeholder name
AUX = {
    "alpha_dn": [["1", "0"], ["0", "0"]],
    "alpha_tp3": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    "trace_2du": {"degree": 0, "coords": ["1", "0"]},
    "trace_mat2": {"degree": 0, "coords": ["1", "0", "0", "1"]},
    "trace_tp3": {"coords": ["1", "0", "0"]},
    "euler_tp3": [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]],
    "inner_mat2": [["0", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "-1", "0"], ["0", "0", "0", "0"]],
    "non_cocycle": {"degree": 1, "coords": ["1", "0", "0", "0"]},
    "malformed": {"dim": 2, "basis": ["a"], "mul": [], "alpha": []},
    "not_hom_assoc": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                      "mul": [[["0", "1"], ["0", "0"]],
                              [["0", "0"], ["1", "0"]]],
                      "alpha": [["1", "0"], ["0", "1"]]},
    "zero_algebra": {"name": "zero", "dim": 1, "basis": ["z"],
                     "mul": [[["0"]]], "alpha": [["0"]]},
}


def write_aux_files(work: Path) -> dict[str, str]:
    """Write AUX, an invalid JSON file and name a missing one; name -> path."""
    paths = {}
    for name, data in AUX.items():
        p = work / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    bad = work / "invalid_json.json"
    bad.write_text('{"dim": 2, "basis": ["a", "b"], "mul": [')
    paths["invalid_json"] = str(bad)
    paths["missing"] = str(work / "missing.json")
    return paths


def _rows(text: str, width: int) -> list[list[str]]:
    """Table rows of a text report: lines starting with a degree."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == width and parts[0].isdigit():
            out.append(parts)
    return out


def check_cli(ref: dict, argv: list[str], check: str, key, code: int,
              stdout: str) -> bool:
    """False when the exit code breaks the contract; raises WrongResult
    when the output is wrong."""
    if check == "invalid":
        return code == 2
    if code != 0:
        return False
    as_json = "json" in argv
    data = json.loads(stdout) if as_json or check == "twist" else None
    label = " ".join(argv)
    if check == "check":
        flags = ref["check"][key]
        if as_json:
            expect(data["valid"] and data["multiplicative"]
                   and (data["unit"] is not None) == flags["unital"]
                   and data["centroid"] == flags["centroid"]
                   and data["alpha_idempotent"] == flags["alpha_idempotent"],
                   f"{label}: {data}")
        else:
            yes = {True: "yes", False: "no"}
            unit = r"unital \(1=[^)]*\)" if flags["unital"] else "non-unital"
            pattern = (rf"valid, multiplicative, {unit}, centroid: "
                       rf"{yes[flags['centroid']]}, alpha\^2=alpha: "
                       rf"{yes[flags['alpha_idempotent']]}")
            expect(re.fullmatch(pattern, stdout.strip()) is not None,
                   f"{label}: {stdout!r}")
        return True
    if check in ("homology", "cyclic_both", "periodic", "duality"):
        theory, alg, n = key
        want = reference_betti(ref, theory, alg, n)
        got = _cli_betti(check, data, stdout, as_json, label)
        expect(got == want, f"{label}: {got} differs from {want}")
        if as_json and "representatives" in (data or {}):
            reps = data["representatives"]
            expect(all(len(reps[str(k)]) == want[k] for k in range(n + 1)),
                   f"{label}: representative counts differ from Betti")
        return True
    if check == "twist":
        expect({k: data[k] for k in ("mul", "alpha", "dim")}
               == ref["twist"][key], f"{label}: {data}")
        return True
    if check == "dual_space":
        dim = ref["dual_space"][key]
        if as_json:
            expect(data["dim"] == dim, f"{label}: {data}")
        else:
            expect(re.search(rf": dimension {dim} of \d+$", stdout.strip())
                   is not None, f"{label}: {stdout!r}")
        return True
    if check == "decompose":
        d1, d2 = ref["decompose"][key]
        if as_json:
            expect((data["A1"]["dim"], data["A2"]["dim"]) == (d1, d2),
                   f"{label}: {data}")
        else:
            expect(f"dim A1 = {d1}, dim A2 = {d2}" in stdout,
                   f"{label}: {stdout!r}")
        return True
    if check == "cocycle_verify":
        if as_json:
            expect(data["is_cyclic_cocycle"] is key, f"{label}: {data}")
        else:
            expect(stdout.strip() == "cyclic cocycle: yes", f"{label}")
        return True
    if check == "cocycle_derive":
        got = json.loads(stdout)
        expect(got == {"degree": 1, "coords": ref["cocycle_derive"][key]},
               f"{label}: {got}")
        return True
    raise ValueError(check)


def _cli_betti(check, data, stdout, as_json, label):
    if check == "homology":
        if as_json:
            b, kd, im = data["betti"], data["kernel_dims"], data["image_dims"]
            expect(all(kd[k] - im[k] == b[k] for k in b),
                   f"{label}: kernel - image != betti")
            return [b[str(k)] for k in range(len(b))]
        return [int(r[3]) for r in _rows(stdout, 4)]
    if check == "cyclic_both":
        if as_json:
            expect(all(data["agreement"].values())
                   and data["betti_lambda"] == data["betti_bicomplex"],
                   f"{label}: lambda and bicomplex disagree")
            b = data["betti_lambda"]
            return [b[str(k)] for k in range(len(b))]
        rows = _rows(stdout, 4)
        expect(all(r[1] == r[2] and r[3] == "yes" for r in rows),
               f"{label}: lambda and bicomplex disagree")
        return [int(r[1]) for r in rows]
    if check == "periodic":
        if as_json:
            return {"betti": [data["betti"][str(k)]
                              for k in range(len(data["betti"]))],
                    "betti_wider": [data["betti_wider_window"][str(k)]
                                    for k in range(len(data["betti"]))]}
        rows = _rows(stdout, 4)
        return {"betti": [int(r[1]) for r in rows],
                "betti_wider": [int(r[2]) for r in rows]}
    # duality: both columns must equal the HH reference
    if as_json:
        rows = [(r["homology"], r["cohomology"]) for r in data["rows"]]
    else:
        rows = [(int(r[1]), int(r[2])) for r in _rows(stdout, 4)]
    expect(all(a == b for a, b in rows), f"{label}: duality fails")
    return [a for a, _ in rows]
