"""One traced `homcyc` CLI request.

    python3 perfbench/cli_shim.py SPANS_OUT JOB -- ARGS...

Imports homcyc, installs the benchmark's span wrappers, calls
`homcyc.cli.main(ARGS)` and exits with its code, as `python -m
homcyc.cli ARGS` would.  The spans go to SPANS_OUT as JSONL with a
trailer holding the seconds the shim itself spent (wrapping, counting,
writing), which the caller takes out of the request's start-up time.
"""

import sys
import traceback
from time import perf_counter

import homcyc.cli

import spans


def main() -> int:
    out, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py SPANS_OUT JOB -- ARGS...")
    t0 = perf_counter()
    rec = spans.Recorder()
    spans.install(rec)
    overhead = perf_counter() - t0
    rec.job = job
    try:
        code = homcyc.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # mirror the interpreter: traceback, exit 1
        traceback.print_exc()
        code = 1
    rec.job = None
    sys.stdout.flush()
    t1 = perf_counter()
    spans.dump(rec.spans, out)
    overhead += rec.overhead + perf_counter() - t1
    with open(out, "a") as fh:
        fh.write('{"shim_overhead_s": %r}\n' % overhead)
    return code


if __name__ == "__main__":
    sys.exit(main())
