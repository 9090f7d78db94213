"""homcyc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus_betti --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; homcyc is imported from `src/`.  With
`--trace 0` the run times the workload and prints the end-to-end
metrics; with `--trace 1` it runs one untraced and one traced pass and
prints the per-layer metrics.  Times are scaled to a reference host
speed (`Gauge`).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Every
result is checked against `reference.json`; a wrong number aborts the
run with exit code 1.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("corpus_betti", "basis_change", "cli_requests")
# a run makes round(--seconds / NOMINAL_PASS_S) passes, at least one, so
# that every version of homcyc does the same work in a run; the values
# are near one baseline pass on a shared 2-core Xeon VM
NOMINAL_PASS_S = {"corpus_betti": 10.0, "basis_change": 13.0,
                  "cli_requests": 14.0}
SETUP_REPEATS = 15
# median time of Gauge's loop on the VM above; scaled seconds are
# seconds at that host speed
CALIBRATION_REF_S = 0.02
CHILD_TIMEOUT_S = 150

# functions each workload must reach in the traced pass (span names)
COMMON = {"linalg.rref", "linalg.reduce_mod", "linalg.kernel", "linalg.image",
          "linalg.matmul", "hochschild.face_map", "hochschild.hochschild_b",
          "hochschild.coface_map", "hochschild.cochain_b",
          "hochschild.check_presimplicial", "complexes.check_d_squared",
          "complexes.check_squares", "complexes.total_complex",
          "complexes.quotient_complex", "complexes.homology",
          "complexes.report_for_complex", "cyclic.cyclic_bicomplex",
          "cyclic.lambda_quotient_subspaces", "algebra.validate",
          "algebra.load_algebra",
          "coefficients.validate_homology_coefficients",
          "hochschild.b_prime", "hochschild.cyclic_t", "hochschild.norm_N"}
REQUIRED = {
    "corpus_betti": COMMON | {"cyclic.cocyclic_bicomplex",
                              "complexes.sub_complex"},
    "basis_change": COMMON | {"cyclic.induced_map_on_homology",
                              "algebra.validate_morphism"},
    "cli_requests": COMMON | {"cyclic.cocyclic_bicomplex",
                              "complexes.sub_complex", "cli.main", "cli.emit",
                              "complexes.HomologyReport.to_json_dict",
                              "cocycles.trace_space",
                              "cocycles.is_cyclic_cocycle"},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: (span name, quantity) -> metric name; "s" is
# inclusive time, "self_s" exclusive, the rest exact counts
PER_LAYER = [
    ("linalg.rref", ("calls", "s", "cells", "nnz", "max_bits")),
    ("linalg.reduce_mod", ("calls", "s")),
    ("linalg.kernel", ("s",)),
    ("linalg.image", ("s",)),
    ("linalg.matmul", ("calls", "s", "mults", "max_bits")),
    ("hochschild.face_map", ("calls", "s")),
    ("hochschild.hochschild_b", ("calls", "s", "cells")),
    ("hochschild.b_prime", ("calls", "s", "cells")),
    ("hochschild.cyclic_t", ("s",)),
    ("hochschild.norm_N", ("s",)),
    ("hochschild.coface_map", ("s",)),
    ("hochschild.cochain_b", ("s",)),
    ("hochschild.check_presimplicial", ("s",)),
    ("complexes.check_d_squared", ("s",)),
    ("complexes.check_squares", ("s",)),
    ("complexes.total_complex", ("self_s", "max_dim")),
    ("complexes.quotient_complex", ("self_s",)),
    ("complexes.sub_complex", ("self_s",)),
    ("complexes.homology", ("calls", "s")),
    ("complexes.report_for_complex", ("self_s",)),
    ("complexes.HomologyReport.to_json_dict", ("s",)),
    ("cyclic.cyclic_bicomplex", ("s",)),
    ("cyclic.cocyclic_bicomplex", ("s",)),
    ("cyclic.lambda_quotient_subspaces", ("s",)),
    ("cyclic.induced_map_on_homology", ("self_s",)),
    ("algebra.validate", ("s",)),
    ("algebra.load_algebra", ("s",)),
    ("coefficients.validate_homology_coefficients", ("s",)),
    ("cocycles.trace_space", ("s",)),
    ("cli.main", ("s",)),
    ("cli.emit", ("s",)),
]


def unit_of(quantity: str) -> str:
    return "s" if quantity in ("s", "self_s") else \
        "bits" if quantity == "max_bits" else "count"


def read_stat() -> dict:
    """Load average and steal ticks, read-only from /proc."""
    out = {}
    try:
        out["loadavg"] = [float(x) for x in
                          Path("/proc/loadavg").read_text().split()[:3]]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        out["steal_ticks"] = int(cpu[8])
    except (OSError, IndexError, ValueError):
        pass
    return out


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version()}


# ---------------------------------------------------------------------------
# set-up

def needed_algebras(workload: str) -> tuple[list[str], list[str]]:
    """(originals, algebras that also get a seeded copy)."""
    import inputs
    import workloads as wl
    if workload == "corpus_betti":
        return sorted({a for _, a, _ in wl.CORPUS_JOBS}), []
    if workload == "basis_change":
        names = list(wl.BASIS_DEGREES)
        return names, names
    names, copies = set(), set()
    for argv, _, _ in wl.CLI_REQUESTS + [(p, None, None)
                                         for p in wl.CONTRACT_PROBES]:
        for a in argv:
            if a.startswith("{") and a.strip("{}@") in inputs.CORPUS:
                names.add(a.strip("{}@"))
                if a.endswith("@}"):
                    copies.add(a.strip("{}@"))
    return sorted(names), sorted(copies)


def setup(workload: str, seed: int, work: Path) -> dict:
    """Build, validate, write and reload the inputs of one workload."""
    import inputs
    import workloads as wl
    import homcyc
    originals, copied = needed_algebras(workload)
    state = {"algebras": {}, "copies": {}, "isos": {}, "inputs": {},
             "files": {}}
    for name in originals:
        path = work / f"{name}.json"
        state["algebras"][name] = inputs.write_and_reload(
            inputs.CORPUS[name](), path)
        state["files"][name] = str(path)
    for name in copied:
        A = state["algebras"][name]
        B, iso, info = inputs.transported(A, seed)
        path = work / f"{name}@.json"
        B = inputs.write_and_reload(B, path)
        state["copies"][name] = B
        state["isos"][name] = homcyc.AlgebraMorphism(A, B, iso.matrix)
        state["inputs"][B.name] = info
        state["files"][name + "@"] = str(path)
    if workload == "cli_requests":
        state["files"].update(wl.write_aux_files(work))
    return state


class Gauge:
    """Host speed, from a fixed pure-Python loop run after every timed
    unit of work (a job, a request, a set-up process).

    Unit i runs between loops i and i + 1.  A pass is scaled by
    CALIBRATION_REF_S over the median loop time around it.  Of the loops
    tried, integer arithmetic with dict stores followed homcyc's own
    drift best.  No change to homcyc can move the loop.
    """

    def __init__(self):
        self.loops = [self._loop()]
        self.units: list[float] = []

    @staticmethod
    def _loop() -> float:
        t0 = perf_counter()
        acc, seen = 0, {}
        for i in range(150000):
            acc += (i * i) % 7
            seen[i % 101] = acc
        return perf_counter() - t0

    def record(self, seconds: float) -> int:
        """Keep one unit's raw seconds; returns its index."""
        self.units.append(seconds)
        self.loops.append(self._loop())
        return len(self.units) - 1

    def scaled(self, group: list[int], loops=None) -> list[float]:
        """The group's unit seconds at the reference host speed, from the
        loops around the group or, when given, from `loops`."""
        if loops is None:
            loops = self.loops[min(group):max(group) + 2]
        factor = CALIBRATION_REF_S / statistics.median(loops)
        return [self.units[i] * factor for i in group]


def time_setups(workload: str, seed: int, gauge: Gauge, count: int) -> list[int]:
    """Fresh processes that import homcyc and build the inputs, timed
    from process start until the inputs are written; gauge units."""
    units = []
    for _ in range(count):
        work = Path(tempfile.mkdtemp(dir=OUT, prefix="setup-"))
        try:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--setup-only", str(work)],
                cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
            elapsed = perf_counter() - t0
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        units.append(gauge.record(elapsed))
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HOMCYC_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# in-process workloads

def inprocess_jobs(workload: str, state: dict, seed: int) -> list[tuple]:
    """(label, original algebra name, callable) per job, in the seed's
    order."""
    import workloads as wl
    jobs = []
    if workload == "corpus_betti":
        for theory, alg, n in wl.CORPUS_JOBS:
            A = state["algebras"][alg]
            jobs.append(((theory, alg, n), alg,
                         lambda A=A, t=theory, n=n: wl.run_theory(A, t, n)))
    else:
        names = {alg: state["copies"][alg].name for alg in state["copies"]}
        original = {v: k for k, v in names.items()}
        for kind, cname, n in wl.basis_jobs(names):
            alg = original[cname]
            if kind in ("iHH", "iHC"):
                fn = (lambda f=state["isos"][alg], k=kind, n=n:
                      wl.run_induced(f, k, n))
            else:
                fn = (lambda B=state["copies"][alg], t=kind, n=n:
                      wl.run_theory(B, t, n))
            jobs.append(((kind, cname, n), alg, fn))
    random.Random(seed).shuffle(jobs)
    return jobs


def inprocess_pass(jobs, gauge: Gauge, rec=None):
    """Run every job once; returns (gauge units, results, failed)."""
    units, results, failed = [], [], 0
    for label, _alg, fn in jobs:
        if rec is not None:
            rec.job = "/".join(map(str, label))
        t0 = perf_counter()
        try:
            results.append(fn())
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"job {label} failed: {exc!r}", file=sys.stderr)
            results.append(None)
            failed += 1
        elapsed = perf_counter() - t0
        if rec is not None:
            rec.job = None
        units.append(gauge.record(elapsed))
    return units, results, failed


def check_inprocess(ref, jobs, results) -> None:
    import workloads as wl
    for (label, alg, _fn), result in zip(jobs, results):
        if result is not None:
            wl.check_job(ref, label, alg, result)


# ---------------------------------------------------------------------------
# CLI workload

def fill(argv: list[str], files: dict) -> list[str]:
    return [files[a[1:-1]] if a.startswith("{") else a for a in argv]


def run_child(cmd: list[str]) -> tuple[float, int, str, int]:
    """(wall seconds, exit code, stdout, peak RSS in KiB) of one request."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return perf_counter() - t0, proc.returncode, out, usage.ru_maxrss


def cli_pass(requests, files, gauge: Gauge, work: Path | None = None):
    """Run every request once.  With `work`, each child runs the traced
    shim and writes its spans there.  Returns (gauge units,
    [(code, stdout)], span files, largest peak RSS in KiB)."""
    units, outputs, span_files, rss = [], [], [], 0
    for i, (argv, _check, _key) in enumerate(requests):
        args = fill(argv, files)
        if work is None:
            cmd = [sys.executable, "-m", "homcyc.cli"] + args
        else:
            span_file = work / f"spans-{i}.jsonl"
            span_files.append(span_file)
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(span_file),
                   f"request-{i}", "--"] + args
        wall, code, out, peak = run_child(cmd)
        units.append(gauge.record(wall))
        outputs.append((code, out))
        rss = max(rss, peak)
    return units, outputs, span_files, rss


def check_cli_pass(ref, requests, outputs) -> int:
    """Number of requests whose exit code breaks the contract; raises
    WrongResult on a wrong output."""
    import workloads as wl
    failed = 0
    for (argv, check, key), (code, out) in zip(requests, outputs):
        try:
            ok = wl.check_cli(ref, argv, check, key, code, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise wl.WrongResult(f"{' '.join(argv)}: unreadable output "
                                 f"({exc!r})") from exc
        if not ok:
            print(f"request {' '.join(argv)} exited {code}", file=sys.stderr)
            failed += 1
    return failed


def cli_requests(seed: int):
    import workloads as wl
    reqs = list(wl.CLI_REQUESTS)
    random.Random(seed).shuffle(reqs)
    return reqs


def run_probes(files) -> list[dict]:
    import workloads as wl
    out = []
    for argv in wl.CONTRACT_PROBES:
        _wall, code, _, _ = run_child([sys.executable, "-m", "homcyc.cli"]
                                   + fill(argv, files))
        out.append({"argv": " ".join(argv), "exit": code, "expected": 2})
    return out


# ---------------------------------------------------------------------------
# metrics

def latency(times: list[float]) -> dict:
    """Median request time, and the time at the highest percentile with
    at least ten requests beyond it (the slowest with ten or fewer)."""
    xs = sorted(times)
    n = len(xs)
    k = max(n - 11, 0) if n > 10 else n - 1
    return {"p50_s": statistics.median(xs), "tail_s": xs[k],
            "tail_percentile": 100.0 * (k + 1) / n, "count": n}


def timed_run(workload: str, seed: int, seconds: int, state: dict, ref,
              report: dict) -> tuple[dict, int, int]:
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    gauge = Gauge()
    pass_units, setup_units, attempted, failed, rss_kb = [], [], 0, 0, 0
    if workload == "cli_requests":
        reqs = cli_requests(seed)
    else:
        reqs = inprocess_jobs(workload, state, seed)
    # set-up processes run before, between and after the passes, so that
    # their median samples the whole run's host speed
    for p in range(passes + 1):
        setup_units += time_setups(
            workload, seed, gauge, SETUP_REPEATS * (p + 1) // (passes + 1)
            - SETUP_REPEATS * p // (passes + 1))
        if p == passes:
            break
        if workload == "cli_requests":
            units, outputs, _, peak = cli_pass(reqs, state["files"], gauge)
            failed += check_cli_pass(ref, reqs, outputs)
            rss_kb = max(rss_kb, peak)
        else:
            units, results, f = inprocess_pass(reqs, gauge)
            check_inprocess(ref, reqs, results)
            failed += f
        pass_units.append(units)
        attempted += len(reqs)
    if workload != "cli_requests":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli_requests":
        report["exit_contract_probes"] = run_probes(state["files"])
    scaled = [gauge.scaled(u) for u in pass_units]
    walls = [sum(t) for t in scaled]
    times = [x for t in scaled for x in t]
    # set-up processes are too short to calibrate one by one, and are
    # spread over the run: they take the whole run's loop median
    setups = gauge.scaled(setup_units, gauge.loops)
    report.update({
        "pass_walls_s": walls, "setup_runs_s": setups,
        "setup_runs_raw_s": [gauge.units[i] for i in setup_units],
        "pass_walls_raw_s": [sum(gauge.units[i] for i in u)
                             for u in pass_units],
        "calibration_s": statistics.median(gauge.loops),
        "requests": latency(times)})
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(walls),
               "peak_rss_mb": rss_kb / 1024}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, attempted, failed)


def traced_run(workload: str, seed: int, state: dict, ref, work: Path,
               report: dict) -> tuple[dict, int, int]:
    import spans
    rec = spans.Recorder()
    gauge = Gauge()
    if workload == "cli_requests":
        reqs = cli_requests(seed)
        untraced, out_u, _, _ = cli_pass(reqs, state["files"], gauge)
        spans.install(rec)
        rec.job = "setup"
        traced_state = setup(workload, seed, _subdir(work, "traced"))
        rec.job = None
        span_dir = _subdir(work, "spans")
        traced, out_t, files, _ = cli_pass(reqs, traced_state["files"],
                                           gauge, span_dir)
        if out_u != out_t:
            raise SystemExit("traced and untraced requests differ")
        failed = check_cli_pass(ref, reqs, out_t)
        startup = 0.0
        all_spans = list(rec.spans)
        for i, path in zip(traced, files):
            child, extra = spans.load(path)
            offset = len(all_spans)
            for s in child:
                if s[3] is not None:
                    s[3] += offset
            all_spans += child
            main = sum(s[5] for s in child if s[0] == "cli.main")
            startup += (gauge.units[i] - main
                        - extra.get("shim_overhead_s", 0.0))
        total_t = sum(gauge.units[i] for i in traced)
        attempted = len(reqs)
        report["exit_contract_probes"] = run_probes(state["files"])
    else:
        jobs = inprocess_jobs(workload, state, seed)
        untraced, res_u, _ = inprocess_pass(jobs, gauge)
        spans.install(rec)
        rec.job = "setup"
        traced_state = setup(workload, seed, _subdir(work, "traced"))
        rec.job = None
        traced_jobs = inprocess_jobs(workload, traced_state, seed)
        traced, res_t, failed = inprocess_pass(traced_jobs, gauge, rec)
        if [_comparable(r) for r in res_u] != [_comparable(r) for r in res_t]:
            raise SystemExit("traced and untraced results differ")
        check_inprocess(ref, traced_jobs, res_t)
        all_spans = rec.spans
        startup = 0.0
        total_t = sum(gauge.units[i] for i in traced) - rec.overhead
        attempted = len(jobs)
    seen = {s[0] for s in all_spans}
    missing = sorted(REQUIRED[workload] - seen)
    if missing:
        raise SystemExit(f"trace wrappers never fired: {', '.join(missing)}")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
    spans.dump(all_spans, trace_path)
    report["trace_file"] = str(trace_path.relative_to(ROOT))
    per, layers = spans.summarise(all_spans, skip_job="setup")
    metrics = {}
    for name, quantities in PER_LAYER:
        d = per.get(name, {})
        for q in quantities:
            metrics[f"{name}.{q}"] = (d.get(q, 0), unit_of(q))
    metrics["cli.startup_s"] = (startup, "s")
    req = latency(gauge.scaled(untraced)) if workload == "cli_requests" \
        else {"p50_s": 0, "tail_s": 0}
    metrics["cli.request_p50_s"] = (req["p50_s"], "s")
    metrics["cli.request_tail_s"] = (req["tail_s"], "s")
    metrics["cli.contract_breaks"] = (sum(
        p["exit"] != p["expected"]
        for p in report.get("exit_contract_probes", [])), "count")
    for layer in spans.LAYERS:
        metrics[f"split.{layer}_s"] = (layers[layer], "s")
    metrics["split.other_s"] = (total_t - sum(layers.values()), "s")
    traced_s = sum(gauge.scaled(traced))
    untraced_s = sum(gauge.scaled(untraced))
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    shares = {k: v[0] / total_t for k, v in metrics.items()
              if k.startswith("split.") or k == "cli.startup_s"}
    report.update({"traced_wall_s": traced_s, "untraced_wall_s": untraced_s,
                   "layer_shares": shares})
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            attempted, failed)


def _comparable(result):
    return result.to_rows() if hasattr(result, "to_rows") else result


def _subdir(work: Path, name: str) -> Path:
    path = work / name
    path.mkdir()
    return path


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="build the inputs into DIR and exit (set-up timing)")
    args = p.parse_args(argv)
    if not (SRC / "homcyc" / "__init__.py").is_file():
        print(f"error: no homcyc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HOMCYC_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    import workloads as wl
    OUT.mkdir(exist_ok=True)
    # one CPU for the run and every child it starts, so that the Gauge
    # loop measures the speed of the core the work runs on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine(), "cpu": cpu,
              "before": read_stat()}
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        ref = wl.load_reference()
        state = setup(args.workload, args.seed, work)
        report["generated_inputs"] = state["inputs"]
        if args.trace:
            metrics, attempted, failed = traced_run(
                args.workload, args.seed, state, ref, work, report)
        else:
            metrics, attempted, failed = timed_run(
                args.workload, args.seed, args.seconds, state, ref, report)
    except wl.WrongResult as exc:
        print(f"wrong result: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["after"] = read_stat()
    print(json.dumps({"context": report}))
    for name, m in metrics.items():
        print(f"{name:48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
