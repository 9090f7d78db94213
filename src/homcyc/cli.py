"""Command-line front end.

Exit codes: 0 success, 2 validation failure, 3 a chain-level identity
the theory asserts failed (always surfaced, never swallowed).

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

from .algebra import (DecompositionError, HomAlgebra, alpha_is_idempotent,
                      find_unit, is_centroid_element, load_algebra, read_json,
                      scalar_from_string, unital_decompose, yau_twist)
from .errors import (BoundarySquareError, CoefficientError,
                     IdentityViolationError, NotStableError, ShapeError)
from .linalg import Matrix

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IDENTITY = 3


def _load(path: str) -> HomAlgebra:
    alg, report = load_algebra(path)
    if alg is None or not report.multiplicative:
        for v in report.violations:
            print(str(v), file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return alg


def _emit(payload: dict, fmt: str, text: str | None = None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text if text is not None else json.dumps(payload, sort_keys=True))


def cmd_check(args) -> int:
    alg, report = load_algebra(args.file)
    if alg is None:
        print("invalid: Hom-associativity fails")
        for v in report.violations:
            print("  " + str(v))
        return EXIT_INVALID
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
    _emit(payload, args.format, text)
    if not report.multiplicative:
        for v in report.violations:
            print("  " + str(v), file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_homology(args) -> int:
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
    elif theory in ("hp", "hpco"):
        from .cyclic import periodic_cohomology, periodic_homology
        rep = (periodic_homology if theory == "hp"
               else periodic_cohomology)(alg, n, window=args.window)
        text = rep.to_text()
    else:
        raise ValueError(theory)
    _emit(rep.to_json_dict(), args.format, text)
    return EXIT_OK


def cmd_duality(args) -> int:
    from .complexes import text_table
    from .hochschild import hochschild_cohomology, hochschild_homology
    alg = _load(args.file)
    hh = hochschild_homology(alg, args.max)
    hhco = hochschild_cohomology(alg, args.max)
    rows = [(n, hh.betti[n], hhco.betti[n]) for n in range(args.max + 1)]
    payload = {"algebra": alg.name,
               "rows": [{"degree": n, "homology": a, "cohomology": b,
                         "equal": a == b} for n, a, b in rows]}
    _emit(payload, args.format, text_table(
        f"duality check for {alg.name}: dim H_n(A,A) vs dim H^n(A,A*)",
        [("degree", 8), ("H_n", 6), ("H^n", 6), ("equal", 6)],
        [(n, a, b, "yes" if a == b else "NO") for n, a, b in rows]))
    return EXIT_OK if all(a == b for _, a, b in rows) else EXIT_IDENTITY


def _list(x) -> list:
    if type(x) is not list:  # a JSON string is not a list of characters
        raise TypeError(
            f"expected a list, got {json.dumps(x, default=str)[:40]}")
    return x


def _read_matrix(path: str, dim: int) -> Matrix:
    """A dim x dim matrix, given as a JSON list of rows."""
    rows = read_json(path)
    try:
        m = Matrix.from_rows([[scalar_from_string(str(x)) for x in _list(row)]
                              for row in _list(rows)])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ShapeError(f"malformed matrix in {path}: {exc}") from exc
    if (m.rows, m.cols) != (dim, dim):
        raise ShapeError(f"matrix in {path} is {m.rows}x{m.cols}, "
                         f"not {dim}x{dim}")
    return m


def _read_functional(path: str, alg: HomAlgebra,
                     degree: int | None = None):
    """A `cocycles.Functional` on alg^{(x)(n+1)}: a JSON object with its
    "coords" and, unless the degree n is given, its "degree"."""
    from .cocycles import Functional
    data = read_json(path)
    try:
        n = data["degree"] if degree is None else degree
        if type(n) is not int:
            raise TypeError(
                f"degree {json.dumps(n, default=str)} is not an integer")
        coords = tuple(scalar_from_string(str(x))
                       for x in _list(data["coords"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ShapeError(f"malformed functional in {path}: {exc}") from exc
    # dim >= 2, n >= bit length of len give dim^(n+1) > len: no huge power
    if n < 0 or (alg.dim > 1 and n >= len(coords).bit_length()) or \
            alg.dim ** (n + 1) != len(coords):
        raise ShapeError(f"functional in {path} has {len(coords)} "
                         f"coordinates, not dim^(degree+1) for degree {n}")
    return Functional(n, coords)


def cmd_twist(args) -> int:
    alg = _load(args.file)
    endo = _read_matrix(args.alpha, alg.dim)
    try:
        twisted = yau_twist(alg, endo,
                            name=args.name or (alg.name + "_twisted"))
    except ValueError as exc:
        # the algebra is not associative with alpha = Id, or endo is not
        # an algebra map
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(twisted.to_json())
    return EXIT_OK


def cmd_dual_space(args) -> int:
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
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_decompose(args) -> int:
    alg = _load(args.file)
    try:
        dec = unital_decompose(alg)
    except DecompositionError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
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
    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_cocycle(args) -> int:
    need = ("functional",) if args.action == "verify" else \
        ("derivation", "trace")
    missing = [f"--{o}" for o in need if getattr(args, o) is None]
    if missing:
        args.usage_error(f"cocycle {args.action} needs "
                         + " and ".join(missing))
    from .cocycles import (CocyclePreconditionError, TwistedDerivation,
                           derivation_cocycle, is_cyclic_cocycle)
    alg = _load(args.file)
    if args.action == "verify":
        check = is_cyclic_cocycle(_read_functional(args.functional, alg), alg)
        payload = {"is_cyclic_cocycle": check.is_cocycle,
                   "coboundary_residuals": len(check.coboundary_residuals),
                   "cyclicity_residuals": len(check.cyclicity_residuals)}
        text = "cyclic cocycle: yes" if check.is_cocycle else \
            (f"cyclic cocycle: no ({len(check.coboundary_residuals)} "
             f"coboundary, {len(check.cyclicity_residuals)} cyclicity residuals)")
        _emit(payload, args.format, text)
        return EXIT_OK if check.is_cocycle else EXIT_INVALID
    # derive
    rho = TwistedDerivation(_read_matrix(args.derivation, alg.dim))
    tr = _read_functional(args.trace, alg, degree=0)
    try:
        phi = derivation_cocycle(alg, rho, tr)
    except CocyclePreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    payload = {"degree": 1,
               "coords": [str(x) for x in phi.coords]}
    _emit(payload, args.format, json.dumps(payload, sort_keys=True))
    return EXIT_OK


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
        sp.add_argument("--representatives", action="store_true")
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
        return args.fn(args)
    except (IdentityViolationError, BoundarySquareError,
            NotStableError) as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except (ShapeError, CoefficientError, OSError) as exc:
        # an input file that is missing, unreadable, not JSON (read_json)
        # or not a well-formed algebra; or an algebra whose dual A* is
        # not a dual bimodule, which the cochain theories need
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:  # only an exact result too long to print
        if "integer string conversion" not in str(exc):
            raise
        print("error: a result has too many digits to print", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
