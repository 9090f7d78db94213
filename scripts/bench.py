#!/usr/bin/env python3
"""Write BENCH_<pr>.json from alternating parent/change pairs of the benchmark.

    python3 scripts/bench.py --pr 20 --parent ../parent --change . \\
        --workload corpus_betti --seeds 201-210

PARENT and CHANGE are checkouts of the two commits.  For each seed, each
workload runs `perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, with that checkout's own run.py, the
parent first for the first seed and the order swapped from seed to
seed.  A run that exits non-zero, or whose last line is not the
benchmark's result object, stops the script with exit code 1.

Writes BENCH_<pr>.json into CHANGE (or `--out`): both commits and the
lengths of their checkout paths, the machine from the first run's
`context` line, and per workload the seeds,
every run's end-to-end metrics, and per metric each side's median and
quartiles, the change's relative median delta, and the pairs the change
won and lost (ties count for neither).  Whether lower or higher is
better is read from BENCHMARK.json.  `peak_rss_mb` moves with the
length of the checkout's path, so the script warns when the two paths
differ in length.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    """'201-210' or '1,5,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(context, result) from one run's standard output: the `context`
    object and the last line's result object."""
    lines = stdout.strip().splitlines() or [""]
    context = next((json.loads(line)["context"] for line in lines
                    if line.startswith('{"context"')), {})
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("the last line is not the benchmark's result")
    return context, result


def run_once(checkout: Path, workload: str, seed: int, seconds: int
             ) -> tuple[dict, dict]:
    """One benchmark run in `checkout`; raises RuntimeError if it fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: unit, better, each side's quartiles, the relative
    median delta (change / parent - 1) and the pairs won and lost."""
    out = {}
    for name, m in pairs[0]["parent"]["metrics"].items():
        sign = -1 if better.get(name, "lower") == "lower" else 1
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        diffs = [sign * (b - a) for a, b in zip(old, new)]
        parent, change = quartiles(old), quartiles(new)
        out[name] = {
            "unit": m["unit"], "better": better.get(name, "lower"),
            "parent": parent, "change": change,
            "delta": change["median"] / parent["median"] - 1
            if parent["median"] else None,
            "won": sum(d > 0 for d in diffs),
            "lost": sum(d < 0 for d in diffs), "pairs": len(pairs)}
    return out


def commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def bench(parent: Path, change: Path, workloads: list[str],
          seeds: list[int], seconds: int) -> dict:
    """The BENCH document of the runs that `run_once` makes."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = {"command": f"perfbench/run.py --seconds {seconds} --trace 0",
           "machine": None, "workloads": {}}
    for side, checkout in (("parent", parent), ("change", change)):
        doc[side] = {"commit": commit(checkout),
                     "path_chars": len(str(checkout))}
    for workload in workloads:
        pairs = []
        for k, seed in enumerate(seeds):
            sides = [("parent", parent), ("change", change)]
            pair = {"seed": seed, "first": sides[k % 2][0]}
            for side, checkout in sides[k % 2:] + sides[:k % 2]:
                context, result = run_once(checkout, workload, seed,
                                           seconds)
                doc["machine"] = doc["machine"] or context.get("machine")
                pair[side] = {key: result[key] for key in
                              ("attempted", "failed", "metrics")}
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{n} {v['value']:.4g}"
                    for n, v in result["metrics"].items()), file=sys.stderr)
            pairs.append(pair)
        doc["workloads"][workload] = {
            "seeds": seeds, "pairs": pairs,
            "failed": {side: sum(p[side]["failed"] for p in pairs)
                       for side in ("parent", "change")},
            "metrics": summarise(pairs, better)}
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="the name's suffix")
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--workload", action="append", required=True,
                    choices=("corpus_betti", "basis_change", "cli_requests"))
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        print(f"warning: checkout paths differ in length ({len(str(parent))}"
              f" and {len(str(change))} characters); peak_rss_mb moves with "
              "it", file=sys.stderr)
    try:
        doc = bench(parent, change, args.workload, args.seeds, args.seconds)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, w in doc["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:13} {name:12} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} {m['unit']:3} "
                  f"won {m['won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
