#!/usr/bin/env python3
"""Interleave in-process benchmark passes of two homcyc source trees.

    python3 scripts/ab_passes.py OLD_SRC NEW_SRC --workload corpus_betti \\
        --passes 10 --seed 5 [--jobs]

OLD_SRC and NEW_SRC are directories that hold a `homcyc` package (a
checkout's `src/`).  Both trees are imported into this one interpreter,
each with its own copy of the benchmark's `workloads` and `inputs`
modules, and each builds its inputs with perfbench/run.py's own `setup`
and `inprocess_jobs`, which are read and never changed.  Each pass runs
every job of the workload once, in the seed's order; the passes
alternate which tree goes first in a pair.  Before each pass the
tree's modules are put back into `sys.modules`: `homcyc.__getattr__`
resolves names there, so without the swap both trees would run the
last one loaded.  Every result is checked against
perfbench/reference.json; a wrong result or a failed job exits 1.

Prints each tree's min and median pass time and the median and
quartiles of the per-pair ratio NEW / OLD.  Passes in one interpreter
share the host's speed drift, so the ratio spreads less than separate
runs of perfbench/run.py do.  With `--jobs`, one more line per job
gives its median time in each tree, in ms, and their ratio NEW / OLD,
the job that moved most in absolute time first, so a pass ratio can be
traced to the jobs behind it.  Both trees build the same job list, in
the same order, from the benchmark's modules.  In a single run a
per-job ratio within about +-10% is noise: jobs whose code is the same
in both trees have read 0.75 and 1.06; the pass ratio's quartiles show
when a run drifted.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# perfbench's own modules that import homcyc when they load
BENCH_MODULES = ("workloads", "inputs")


def _bench():
    """perfbench/run.py as a module, its directory on the import path."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_tree_module(name: str) -> bool:
    return name == "homcyc" or name.startswith("homcyc.") \
        or name in BENCH_MODULES


def use(modules: dict) -> None:
    """Make `modules`, one tree's, the ones that imports resolve to."""
    for name in [n for n in sys.modules if _is_tree_module(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load(src: Path) -> dict:
    """Import the homcyc package under src, all of its API, and the
    benchmark modules that use it; returns those modules by name."""
    use({})
    sys.path.insert(0, str(src))
    try:
        homcyc = importlib.import_module("homcyc")
        homcyc.Matrix  # the first lookup imports the whole API
        for name in ("homcyc.corpus", *BENCH_MODULES):
            importlib.import_module(name)
    finally:
        sys.path.remove(str(src))
    loaded = Path(homcyc.__file__).resolve().parent
    if loaded != (src / "homcyc").resolve():
        raise RuntimeError(f"{src}: imported homcyc from {loaded}")
    return {n: m for n, m in sys.modules.items() if _is_tree_module(n)}


def run_pass(bench, tree: dict, ref) -> float:
    """One timed pass over the tree's jobs, each job's time added to its
    list in `job_times`; the results are checked afterwards, outside the
    time."""
    use(tree["modules"])
    results, marks = [], [perf_counter()]
    for _label, _alg, fn in tree["jobs"]:
        results.append(fn())
        marks.append(perf_counter())
    bench.check_inprocess(ref, tree["jobs"], results)
    for times, t0, t1 in zip(tree["job_times"], marks, marks[1:]):
        times.append(t1 - t0)
    return marks[-1] - marks[0]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, metavar="OLD_SRC")
    ap.add_argument("new", type=Path, metavar="NEW_SRC")
    ap.add_argument("--workload", choices=("corpus_betti", "basis_change"),
                    default="corpus_betti")
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", action="store_true",
                    help="also print each job's median time in both trees")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    for src in (args.old, args.new):
        if not (src / "homcyc" / "__init__.py").is_file():
            print(f"error: no homcyc package under {src}", file=sys.stderr)
            return 2
    bench = _bench()
    saved = {n: m for n, m in sys.modules.items() if _is_tree_module(n)}
    trees = {}
    try:
        for side, src in (("OLD", args.old), ("NEW", args.new)):
            modules = load(src)
            with tempfile.TemporaryDirectory() as work:
                state = bench.setup(args.workload, args.seed, Path(work))
            jobs = bench.inprocess_jobs(args.workload, state, args.seed)
            trees[side] = {"modules": modules, "times": [], "jobs": jobs,
                           "job_times": [[] for _ in jobs]}
        ref = trees["OLD"]["modules"]["workloads"].load_reference()
        for p in range(args.passes):
            for side in ("OLD", "NEW") if p % 2 == 0 else ("NEW", "OLD"):
                try:
                    trees[side]["times"].append(
                        run_pass(bench, trees[side], ref))
                except Exception as exc:  # a wrong result or a failed job
                    print(f"{side} ({getattr(args, side.lower())}) pass "
                          f"{p}: {exc!r}", file=sys.stderr)
                    traceback.print_exc()
                    return 1
    finally:
        use(saved)
    for side, tree in trees.items():
        times = tree["times"]
        print(f"{side} min {min(times):.4f} s  median "
              f"{statistics.median(times):.4f} s")
    ratios = [n / o for o, n in zip(trees["OLD"]["times"],
                                    trees["NEW"]["times"])]
    q1, med, q3 = quartiles(ratios)
    print(f"ratio NEW/OLD median {med:.3f}  quartiles {q1:.3f} {q3:.3f}  "
          f"({len(ratios)} pairs)")
    if args.jobs:
        old, new = trees["OLD"], trees["NEW"]
        rows = [("/".join(map(str, label)), statistics.median(o),
                 statistics.median(n)) for (label, _alg, _fn), o, n in
                zip(old["jobs"], old["job_times"], new["job_times"])]
        for label, o, n in sorted(rows, key=lambda r: -abs(r[2] - r[1])):
            print(f"job {label} OLD {o * 1e3:.3f} ms  NEW {n * 1e3:.3f} ms  "
                  f"ratio {n / o:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
