"""Command-line front end.

Exit codes: 0 success, 2 invalid input or a failed precondition, 3 a
chain-level identity the theory asserts failed (always surfaced, never
swallowed).  A refused request writes its reason to stderr and nothing
to stdout; `_FAILURES` maps each refusal to its code.

A request loads `algebra`, `linalg`, `errors` and `records` (not
`dataclasses`), and each command imports the modules it computes with
when it runs, so that a request compiles no other: `check`, `twist`
and `decompose` need `algebra` only; `dual-space` needs
`coefficients`; `hh`, `hhco` and `duality` `hochschild`; `hc`,
`hcco`, `hp` and `hpco` `cyclic`; `cocycle` `cocycles`.  Those imports
name the module, as in `from .cyclic import x`: `from . import cyclic`
asks the package first, and that imports the whole API.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .algebra import (HomAlgebra, alpha_is_idempotent, find_unit,
                      is_centroid_element, load_algebra, read_grid, read_json,
                      require_valid, unital_decompose, yau_twist)
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


def _read_functional(path: str, alg: HomAlgebra,
                     degree: int | None = None):
    """A `cocycles.Functional` on alg^{(x)(n+1)}: a JSON object with its
    "coords" and its "degree" n, which must equal degree when that is
    given, and may then be left out."""
    from .cocycles import Functional
    data = read_json(path)
    fields = data if type(data) is dict else {}
    n = fields.get("degree", degree)
    if type(n) is not int:
        raise ShapeError(f"functional in {path} has no integer degree")
    if degree not in (None, n):
        raise ShapeError(f"functional in {path} has degree {n}, "
                         f"not {degree}")
    coords = read_grid(fields.get("coords"), (None,), f"functional in {path}")
    # dim >= 2, n >= bit length of len give dim^(n+1) > len: no huge power
    if n < 0 or (alg.dim > 1 and n >= len(coords).bit_length()) or \
            alg.dim ** (n + 1) != len(coords):
        raise ShapeError(f"functional in {path} has {len(coords)} "
                         f"coordinates, not dim^(degree+1) for degree {n}")
    return Functional(n, coords)


def cmd_twist(args) -> tuple:
    alg = _load(args.file)
    twisted = yau_twist(alg, _read_matrix(args.alpha, alg.dim),
                        name=args.name or (alg.name + "_twisted"))
    return EXIT_OK, twisted.to_json_dict(), twisted.to_json()


def cmd_dual_space(args) -> tuple:
    from .coefficients import a_circ
    alg = _load(args.file)
    rd = a_circ(alg)
    payload = {
        "algebra": alg.name,
        "ambient_dim": rd.subspace.ambient_dim,
        "dim": rd.subspace.dim,
        "basis": [[str(x) for x in v] for v in rd.subspace.basis],
    }
    text = (f"restricted dual of {alg.name}: dimension {rd.subspace.dim} "
            f"of {rd.subspace.ambient_dim}")
    return EXIT_OK, payload, text


def cmd_decompose(args) -> tuple:
    alg = _load(args.file)
    dec = unital_decompose(alg)
    a1, a2 = dec.part_unital_associative, dec.part_complement
    payload = {
        "algebra": alg.name,
        # a zero summand is null, with an empty basis
        "A1": None if a1 is None else a1.to_json_dict(),
        "A2": None if a2 is None else a2.to_json_dict(),
        "basis_A1": [[str(x) for x in v] for v in dec.basis_a1],
        "basis_A2": [[str(x) for x in v] for v in dec.basis_a2],
    }
    text = (f"{alg.name} = A1 (+) A2 with dim A1 = {len(dec.basis_a1)}, "
            f"dim A2 = {len(dec.basis_a2)}; A1 unital associative")
    return EXIT_OK, payload, text


def cmd_cocycle(args) -> tuple:
    need = ("functional",) if args.action == "verify" else \
        ("derivation", "trace")
    missing = [f"--{o}" for o in need if getattr(args, o) is None]
    if missing:
        args.usage_error(f"cocycle {args.action} needs "
                         + " and ".join(missing))
    from .cocycles import (TwistedDerivation, derivation_cocycle,
                           is_cyclic_cocycle)
    alg = _load(args.file)
    if args.action == "verify":
        check = is_cyclic_cocycle(_read_functional(args.functional, alg), alg)
        payload = {"is_cyclic_cocycle": check.is_cocycle,
                   "coboundary_residuals": len(check.coboundary_residuals),
                   "cyclicity_residuals": len(check.cyclicity_residuals)}
        text = "cyclic cocycle: yes" if check.is_cocycle else \
            (f"cyclic cocycle: no ({len(check.coboundary_residuals)} "
             f"coboundary, {len(check.cyclicity_residuals)} cyclicity residuals)")
        return EXIT_OK if check.is_cocycle else EXIT_INVALID, payload, text
    # derive
    rho = TwistedDerivation(_read_matrix(args.derivation, alg.dim))
    phi = derivation_cocycle(alg, rho,
                             _read_functional(args.trace, alg, degree=0))
    return EXIT_OK, {"degree": 1, "coords": [str(x) for x in phi.coords]}, None


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


def build_parser() -> argparse.ArgumentParser:
    parser = partial(argparse.ArgumentParser, formatter_class=_Formatter)
    # --help shows the docstring but its last paragraph, on imports
    p = parser(prog="homcyc", description=__doc__.rsplit("\n\n", 1)[0])
    # with prog given, no formatter formats the subcommands' usage prefix
    sub = p.add_subparsers(dest="command", required=True, prog=p.prog,
                           parser_class=parser)

    def common(sp, with_max=True):
        sp.add_argument("file", help="algebra definition JSON")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if with_max:
            sp.add_argument("--max", type=degree, default=3,
                            help="maximum degree")

    sp = sub.add_parser("check", help="validate an algebra file")
    common(sp, with_max=False)
    sp.set_defaults(fn=cmd_check)

    for theory, help_txt in [("hh", "Hochschild homology"),
                             ("hc", "cyclic homology"),
                             ("hp", "periodic cyclic homology"),
                             ("hhco", "Hochschild cohomology"),
                             ("hcco", "cyclic cohomology"),
                             ("hpco", "periodic cyclic cohomology")]:
        sp = sub.add_parser(theory, help=help_txt)
        common(sp)
        sp.add_argument("--method", choices=("lambda", "bicomplex", "both"),
                        default="both")
        sp.add_argument("--window", type=window, default=2,
                        help="periodic truncation window (even, >= 0)")
        sp.add_argument("--representatives", action="store_true",
                        help="print cycle representatives (hh, hhco and "
                        "--method lambda; the others ignore it)")
        sp.set_defaults(fn=cmd_homology, theory=theory)

    sp = sub.add_parser("duality",
                        help="compare dim H_n(A,A) with dim H^n(A,A*)")
    common(sp)
    sp.set_defaults(fn=cmd_duality)

    sp = sub.add_parser("twist", help="Yau twist of an associative algebra")
    common(sp, with_max=False)
    sp.add_argument("alpha", help="endomorphism matrix JSON")
    sp.add_argument("--name", default="")
    sp.set_defaults(fn=cmd_twist)

    sp = sub.add_parser("dual-space",
                        help="the functional subspace with its module structure")
    common(sp, with_max=False)
    sp.set_defaults(fn=cmd_dual_space)

    sp = sub.add_parser("decompose", help="unital decomposition A1 (+) A2")
    common(sp, with_max=False)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("cocycle", help="verify or derive cyclic cocycles")
    sp.add_argument("action", choices=("verify", "derive"))
    common(sp, with_max=False)
    sp.add_argument("--functional", help="functional JSON (verify)")
    sp.add_argument("--derivation", help="derivation matrix JSON (derive)")
    sp.add_argument("--trace", help="trace functional JSON (derive)")
    sp.set_defaults(fn=cmd_cocycle, usage_error=sp.error)
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
