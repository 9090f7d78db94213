#!/usr/bin/env python3
"""Print each in-process benchmark job's time and tracemalloc peak.

Builds the inputs of one in-process workload of the benchmark
(`corpus_betti` or `basis_change`) for one seed, as perfbench/run.py
does, and runs its jobs once each, in the seed's order, with tracemalloc
on.  Per job it prints the wall time in ms, slowed by tracemalloc, and
the peak of the memory allocated while the job ran, above what was
allocated when it started, in KB.  Every result is then checked against
the benchmark's reference, so a wrong number exits 1.  The benchmark's
job tables are read, never changed.

    python3 scripts/job_peaks.py --workload basis_change --seed 5
"""

import argparse
import importlib.util
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _bench():
    """perfbench/run.py as a module, with its directory and src/ on the
    import path, as the benchmark runs it."""
    for path in (ROOT / "src", PERFBENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def peaks(bench, workload: str, seed: int) -> list[tuple[str, float, int]]:
    """(job label, milliseconds, peak bytes) per job, in run order;
    raises the benchmark's WrongResult if a result is wrong."""
    import workloads
    with tempfile.TemporaryDirectory() as work:
        state = bench.setup(workload, seed, Path(work))
    jobs = bench.inprocess_jobs(workload, state, seed)
    rows, results = [], []
    tracemalloc.start()
    try:
        for label, _alg, fn in jobs:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            t0 = perf_counter()
            results.append(fn())
            elapsed = perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
            rows.append((" ".join(map(str, label)), elapsed * 1e3,
                         peak - start))
    finally:
        tracemalloc.stop()
    bench.check_inprocess(workloads.load_reference(), jobs, results)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("corpus_betti", "basis_change"),
                    default="corpus_betti")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = _bench()
    import workloads
    try:
        rows = peaks(bench, args.workload, args.seed)
    except workloads.WrongResult as exc:
        print(f"wrong result: {exc}", file=sys.stderr)
        return 1
    width = max(len(label) for label, *_ in rows)
    print(f"{'job':<{width}} {'ms':>8} {'peak_kb':>8}")
    for label, ms, peak in rows:
        print(f"{label:<{width}} {ms:>8.1f} {peak / 1024:>8.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
