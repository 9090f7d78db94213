#!/usr/bin/env python3
"""Print what compiling each module of homcyc costs.

For every module under src/homcyc: its line count, its AST node count
and the tracemalloc peak of `compile()` on its source, in KB.  The
largest module by compile peak is marked with `*`, and a last row sums
every column, so the package's size is one command.  When bytecode
caching is off, a process compiles every module it imports, and the
largest compile peak can set a short run's peak memory.

With `--cli ARGS...`, only the modules that a fresh
`python -m homcyc.cli ARGS...` loads are weighed, the request's own
`cli.py` included.  A second table then lists every other module the
request imports that a bare interpreter (`python -c pass`) does not,
with its self and cumulative import time in microseconds, largest
cumulative first, so a heavy standard-library import shows.  Each
interpreter runs once, without writing bytecode; the request's output
is discarded.

    python3 scripts/compile_weight.py
    python3 scripts/compile_weight.py --cli check A.json
"""

import argparse
import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "homcyc"


def weigh(path: Path) -> tuple[int, int, int]:
    """(lines, AST nodes, compile peak in bytes) of one source file."""
    source = path.read_text()
    nodes = sum(1 for _ in ast.walk(ast.parse(source, filename=str(path))))
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(source.splitlines()), nodes, peak


def imports(argv: list[str], env: dict) -> dict[str, tuple[int, int]]:
    """{module: (self us, cumulative us)} from the `-X importtime`
    report of `python argv`, run without writing bytecode."""
    proc = subprocess.run([sys.executable, "-B", "-X", "importtime", *argv],
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    out = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            own, cumulative, name = line[12:].split("|")
            if own.strip().isdigit():
                out[name.strip()] = int(own), int(cumulative)
    return out


def cli_imports(package: Path, argv: list[str]
                ) -> tuple[list[Path], dict[str, tuple[int, int]]]:
    """The source files of `package` that `python -m <package>.cli argv`
    compiles: those its `-X importtime` report lists, and `cli.py`,
    which runs as __main__ and is not imported; and the other modules
    it imports that `python -c pass` does not, with their times."""
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    loaded = imports(["-m", f"{package.name}.cli", *argv], env)
    bare = imports(["-c", "pass"], env)
    names, other = {"cli"}, {}
    for name, times in loaded.items():
        if name == package.name:
            names.add("__init__")
        elif name.startswith(package.name + "."):
            names.add(name[len(package.name) + 1:])
        elif name not in bare:
            other[name] = times
    return [package / f"{name}.py" for name in sorted(names)], other


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=SRC,
                    help="package directory to weigh (default: homcyc's)")
    ap.add_argument("--cli", nargs=argparse.REMAINDER, metavar="ARGS",
                    help="weigh only what `python -m homcyc.cli ARGS` loads")
    args = ap.parse_args(argv)
    paths, other = (sorted(args.src.glob("*.py")), None) \
        if args.cli is None else cli_imports(args.src, args.cli)
    rows = [(p.name, *weigh(p)) for p in paths if p.is_file()]
    if not rows:
        print(f"no modules under {args.src}", file=sys.stderr)
        return 2
    top = max(peak for *_, peak in rows)
    print(f"{'module':<18} {'lines':>6} {'nodes':>6} {'peak_kb':>8}")
    for name, lines, nodes, peak in rows:
        mark = " *" if peak == top else ""
        print(f"{name:<18} {lines:>6} {nodes:>6} {peak / 1024:>8.0f}{mark}")
    lines, nodes, peak = (sum(r[i] for r in rows) for i in (1, 2, 3))
    print(f"{'total':<18} {lines:>6} {nodes:>6} {peak / 1024:>8.0f}")
    if args.cli is not None:
        print(f"\n{'import':<24} {'self_us':>8} {'cumul_us':>8}")
        for name, (own, cumulative) in sorted(
                other.items(), key=lambda kv: (-kv[1][1], kv[0])):
            print(f"{name:<24} {own:>8} {cumulative:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
