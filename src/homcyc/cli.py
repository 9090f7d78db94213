"""Command-line front end.

Exit codes: 0 success, 2 invalid input or a failed precondition, 3 a
chain-level identity the theory asserts failed (always surfaced, never
swallowed).  A refused request writes its reason to stderr and nothing
to stdout; `_FAILURES` maps each refusal to its code.

A request loads `algebra`, `linalg`, `errors` and `records` (not
`dataclasses`), and each command imports the modules it computes with
when it runs, so that a request compiles no other: `check` needs
`algebra` only; `twist` and `decompose` `constructions`; `dual-space`
`constructions` and `coefficients`; `hh`, `hhco` and `duality`
`hochschild`; `hc`, `hcco`, `hp` and `hpco` `cyclic`; `cocycle`
`cocycles`.  Those imports name the module, as in `from .cyclic import
x`: `from . import cyclic` asks the package first, and that imports the
whole API.  `decompose`, `dual-space` and `cocycle` print what their
module renders (`Decomposition`, `RestrictedDual`,
`cocycles.CocycleCheck`, `cocycles.Functional`).  A request also makes
the parser of its own subcommand only (`_Subcommand`).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .algebra import (HomAlgebra, alpha_is_idempotent, find_unit,
                      is_centroid_element, load_algebra, read_grid, read_json,
                      require_valid)
from .errors import (BoundarySquareError, CocyclePreconditionError,
                     CoefficientError, DecompositionError,
                     IdentityViolationError, NotStableError,
                     PreconditionError, ShapeError, ValidationError)
from .linalg import Matrix

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IDENTITY = 3

# Every refusal, by exception type: its exit code and its stderr line.
# The first type in the exception's MRO that is listed decides.  A
# ValueError of no listed type is a refusal only when an exact result has
# more digits than Python prints an int with; any other is a bug.
_FAILURES = {
    **dict.fromkeys((IdentityViolationError, BoundarySquareError,
                     NotStableError, DecompositionError),
                    (EXIT_IDENTITY, "identity failure: {}")),
    # a file missing or unreadable (OSError), not JSON or not of its
    # format (ShapeError); an algebra that fails Hom-associativity or
    # multiplicativity (ValidationError), or whose dual A* is not a dual
    # bimodule, which the cochain theories need (CoefficientError)
    **dict.fromkeys((ShapeError, OSError, ValidationError, CoefficientError,
                     PreconditionError), (EXIT_INVALID, "error: {}")),
    CocyclePreconditionError: (EXIT_INVALID, "precondition failure: {}"),
    ValueError: (EXIT_INVALID, "error: a result has too many digits to print"),
}


def _load(path: str) -> HomAlgebra:
    data = read_json(path)
    if type(data) is not dict:
        raise ShapeError(f"{path}: the algebra is not a JSON object")
    return require_valid(*load_algebra(data), data.get("name", ""))


def _emit(payload: dict, fmt: str, text: str | None = None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text if text is not None else json.dumps(payload, sort_keys=True))


# Each command returns (exit code, JSON payload, text or None, stderr
# lines...) and writes nothing: `main` writes the result.

def cmd_check(args) -> tuple:
    alg, report = load_algebra(args.file)
    violations = [str(v) for v in report.violations]
    if alg is None:
        return (EXIT_INVALID, {"valid": False, "violations": violations},
                "\n".join(["invalid: Hom-associativity fails"]
                          + ["  " + v for v in violations]))
    unit = find_unit(alg)
    centroid, _ = is_centroid_element(alg)
    idem = alpha_is_idempotent(alg)
    payload = {
        "name": alg.name,
        "valid": True,
        "multiplicative": report.multiplicative,
        "unit": [str(x) for x in unit] if unit else None,
        "centroid": centroid,
        "alpha_idempotent": idem,
    }
    unit_txt = "none"
    if unit is not None:
        terms = [f"{c}*{nm}" if c != 1 else nm
                 for c, nm in zip(unit, alg.basis_names) if c]
        unit_txt = " + ".join(terms)
    text = (f"valid, {'multiplicative' if report.multiplicative else 'NOT multiplicative'}, "
            f"{'unital (1=' + unit_txt + ')' if unit else 'non-unital'}, "
            f"centroid: {'yes' if centroid else 'no'}, "
            f"alpha^2=alpha: {'yes' if idem else 'no'}")
    if not report.multiplicative:
        return (EXIT_INVALID, payload, text, *("  " + v for v in violations))
    return EXIT_OK, payload, text


def cmd_homology(args) -> tuple:
    alg = _load(args.file)
    theory = args.theory
    n = args.max
    reps = args.representatives
    if theory in ("hh", "hhco"):
        from .hochschild import (hochschild_cohomology, hochschild_homology,
                                 tensor_label)
        rep = (hochschild_homology if theory == "hh"
               else hochschild_cohomology)(alg, n, representatives=reps)
        text = rep.to_text(partial(tensor_label, alg))
    elif theory in ("hc", "hcco"):
        from .cyclic import (cyclic_cohomology_bicomplex,
                             cyclic_cohomology_both, cyclic_cohomology_lambda,
                             cyclic_homology_bicomplex, cyclic_homology_both,
                             cyclic_homology_lambda)
        if args.method == "both":
            rep = (cyclic_homology_both if theory == "hc"
                   else cyclic_cohomology_both)(alg, n)
            rep.require_agreement()  # raises -> exit 3
        elif args.method == "lambda":
            rep = (cyclic_homology_lambda if theory == "hc"
                   else cyclic_cohomology_lambda)(alg, n, representatives=reps)
        else:
            rep = (cyclic_homology_bicomplex if theory == "hc"
                   else cyclic_cohomology_bicomplex)(alg, n)
        text = rep.to_text()
    else:
        from .cyclic import periodic_cohomology, periodic_homology
        rep = (periodic_homology if theory == "hp"
               else periodic_cohomology)(alg, n, window=args.window)
        text = rep.to_text()
    return EXIT_OK, rep.to_json_dict(), text


def cmd_duality(args) -> tuple:
    from .complexes import text_table
    from .hochschild import hochschild_cohomology, hochschild_homology
    alg = _load(args.file)
    hh = hochschild_homology(alg, args.max)
    hhco = hochschild_cohomology(alg, args.max)
    rows = [(n, hh.betti[n], hhco.betti[n]) for n in range(args.max + 1)]
    payload = {"algebra": alg.name,
               "rows": [{"degree": n, "homology": a, "cohomology": b,
                         "equal": a == b} for n, a, b in rows]}
    text = text_table(
        f"duality check for {alg.name}: dim H_n(A,A) vs dim H^n(A,A*)",
        [("degree", 8), ("H_n", 6), ("H^n", 6), ("equal", 6)],
        [(n, a, b, "yes" if a == b else "NO") for n, a, b in rows])
    code = EXIT_OK if all(a == b for _, a, b in rows) else EXIT_IDENTITY
    return code, payload, text


def _read_matrix(path: str, dim: int) -> Matrix:
    """A dim x dim matrix, given as a JSON list of rows."""
    return Matrix.from_rows(read_grid(read_json(path), (dim, dim),
                                      f"matrix in {path}"))


def cmd_twist(args) -> tuple:
    from .constructions import yau_twist
    alg = _load(args.file)
    twisted = yau_twist(alg, _read_matrix(args.alpha, alg.dim),
                        name=args.name or (alg.name + "_twisted"))
    return EXIT_OK, twisted.to_json_dict(), twisted.to_json()


def cmd_dual_space(args) -> tuple:
    from .constructions import a_circ
    rd = a_circ(_load(args.file))
    return EXIT_OK, rd.to_json_dict(), rd.to_text()


def cmd_decompose(args) -> tuple:
    from .constructions import unital_decompose
    alg = _load(args.file)
    dec = unital_decompose(alg)
    return EXIT_OK, dec.to_json_dict(alg.name), dec.to_text(alg.name)


def cmd_cocycle(args) -> tuple:
    need = ("functional",) if args.action == "verify" else \
        ("derivation", "trace")
    missing = [f"--{o}" for o in need if getattr(args, o) is None]
    if missing:
        args.usage_error(f"cocycle {args.action} needs "
                         + " and ".join(missing))
    from .cocycles import (TwistedDerivation, derivation_cocycle,
                           is_cyclic_cocycle, read_functional)
    alg = _load(args.file)
    if args.action == "verify":
        check = is_cyclic_cocycle(read_functional(args.functional, alg), alg)
        return (EXIT_OK if check.is_cocycle else EXIT_INVALID,
                check.to_json_dict(), check.to_text())
    # derive
    rho = TwistedDerivation(_read_matrix(args.derivation, alg.dim))
    phi = derivation_cocycle(alg, rho, read_functional(args.trace, alg,
                                                       degree=0))
    return EXIT_OK, phi.to_json_dict(), None


def degree(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def window(text: str) -> int:
    value = degree(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {value}")
    return value


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, sized to the terminal when it formats
    and not when it is made: a parser makes one for every argument it
    adds, and sizing imports shutil."""

    def __init__(self, prog: str):
        super().__init__(prog, width=80)  # any width: format_help sets it

    def format_help(self) -> str:
        sized = argparse.HelpFormatter(self._prog)
        self._width = sized._width
        self._max_help_position = sized._max_help_position
        return super().format_help()


# every subcommand: its help line and its command, in the order that
# help lists them
_COMMANDS = {
    "check": ("validate an algebra file", cmd_check),
    "hh": ("Hochschild homology", cmd_homology),
    "hc": ("cyclic homology", cmd_homology),
    "hp": ("periodic cyclic homology", cmd_homology),
    "hhco": ("Hochschild cohomology", cmd_homology),
    "hcco": ("cyclic cohomology", cmd_homology),
    "hpco": ("periodic cyclic cohomology", cmd_homology),
    "duality": ("compare dim H_n(A,A) with dim H^n(A,A*)", cmd_duality),
    "twist": ("Yau twist of an associative algebra", cmd_twist),
    "dual-space": ("the functional subspace with its module structure",
                   cmd_dual_space),
    "decompose": ("unital decomposition A1 (+) A2", cmd_decompose),
    "cocycle": ("verify or derive cyclic cocycles", cmd_cocycle),
}


def _add_arguments(sp: argparse.ArgumentParser, name: str) -> None:
    """Give the parser of subcommand `name` its arguments and command."""
    fn = _COMMANDS[name][1]
    sp.set_defaults(fn=fn)
    if name == "cocycle":
        sp.add_argument("action", choices=("verify", "derive"))
    sp.add_argument("file", help="algebra definition JSON")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    if fn in (cmd_homology, cmd_duality):
        sp.add_argument("--max", type=degree, default=3,
                        help="maximum degree")
    if fn is cmd_homology:
        sp.add_argument("--method", choices=("lambda", "bicomplex", "both"),
                        default="both")
        sp.add_argument("--window", type=window, default=2,
                        help="periodic truncation window (even, >= 0)")
        sp.add_argument("--representatives", action="store_true",
                        help="print cycle representatives (hh, hhco and "
                        "--method lambda; the others ignore it)")
        sp.set_defaults(theory=name)
    elif name == "twist":
        sp.add_argument("alpha", help="endomorphism matrix JSON")
        sp.add_argument("--name", default="")
    elif name == "cocycle":
        sp.add_argument("--functional", help="functional JSON (verify)")
        sp.add_argument("--derivation", help="derivation matrix JSON (derive)")
        sp.add_argument("--trace", help="trace functional JSON (derive)")
        sp.set_defaults(usage_error=sp.error)


class _Subcommand:
    """A subcommand's parser, made when a command line names the
    subcommand: a request runs one of the twelve, and making their
    parsers is most of what building the command line costs.  The
    top-level help needs only their help lines, which `add_parser`
    keeps apart."""

    def __init__(self, command: str, **kwargs):
        self._command = command
        self._kwargs = kwargs

    def parse_known_args(self, args, namespace=None):
        sp = argparse.ArgumentParser(formatter_class=_Formatter,
                                     **self._kwargs)
        _add_arguments(sp, self._command)
        return sp.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring but its last paragraph, on imports
    p = argparse.ArgumentParser(prog="homcyc",
                                description=__doc__.rsplit("\n\n", 1)[0],
                                formatter_class=_Formatter)
    # with prog given, no formatter formats the subcommands' usage prefix
    sub = p.add_subparsers(dest="command", required=True, prog=p.prog,
                           parser_class=_Subcommand)
    for name, (help_txt, _fn) in _COMMANDS.items():
        sub.add_parser(name, help=help_txt, command=name)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text, *notes = args.fn(args)
        _emit(payload, args.format, text)
    except Exception as exc:
        kind = next((t for t in type(exc).__mro__ if t in _FAILURES), None)
        if kind is None or kind is ValueError and \
                "integer string conversion" not in str(exc):
            raise
        code, line = _FAILURES[kind]
        notes = [line.format(exc)]
    for line in notes:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
