#!/usr/bin/env python3
"""Print what compiling each module of homcyc costs.

For every module under src/homcyc: its line count, its AST node count
and the tracemalloc peak of `compile()` on its source, in KB.  The
largest module by compile peak is marked with `*`.  When bytecode
caching is off, `import homcyc` compiles every module, and the largest
compile peak can set a short run's peak memory.

    python3 scripts/compile_weight.py
"""

import argparse
import ast
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=SRC,
                    help="package directory to weigh (default: homcyc's)")
    args = ap.parse_args(argv)
    rows = [(p.name, *weigh(p)) for p in sorted(args.src.glob("*.py"))]
    if not rows:
        print(f"no modules under {args.src}", file=sys.stderr)
        return 2
    top = max(peak for *_, peak in rows)
    print(f"{'module':<18} {'lines':>6} {'nodes':>6} {'peak_kb':>8}")
    for name, lines, nodes, peak in rows:
        mark = " *" if peak == top else ""
        print(f"{name:<18} {lines:>6} {nodes:>6} {peak / 1024:>8.0f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
