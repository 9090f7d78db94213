"""Golden CLI outputs: stdout of fixed requests, compared byte for byte.

Each file under tests/golden/ is the exact stdout of one `homcyc`
request on a corpus algebra.  They pin Betti numbers, kernel and image
dimensions and canonical representatives, so a change to the reduction
or to the operator build cannot alter the output unnoticed.

The corpus bases have structure constants 0 and ±1.  One more algebra,
`algebra-two_dim_unital_half.json`, is two_dim_unital in the basis
e1/2, e2: its constants and its operators have denominators 2 to 8, so
exact products over a common denominator are pinned byte for byte too.

`hh-json-*.json` pin the `hh` report as JSON without representatives.
The `text-*.txt` files pin the text tables of `hh`/`hhco` with
representatives, `hc --method lambda` with representatives, `hc`/`hcco
--method both`, `hp`/`hpco` and `duality`.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from homcyc.algebra import AlgebraMorphism, load_algebra, validate_morphism
from homcyc.cli import main
from homcyc.corpus import (dual_numbers_projection_twist, ground_field, k2,
                           k1_plus_k2, two_dim_unital)
from homcyc.linalg import Matrix

GOLDEN = Path(__file__).parent / "golden"

ALGEBRAS = {
    "two_dim_unital": (two_dim_unital, 3),
    "k1+k2": (k1_plus_k2, 3),
    "dual_numbers_twisted": (dual_numbers_projection_twist, 3),
    "k2": (k2, 5),
    "ground_field": (ground_field, 5),
}

# (command, method or None): every request also gets --representatives
# --format json, and --max from ALGEBRAS
REQUESTS = [("hh", None), ("hhco", None), ("hc", "lambda"),
            ("hc", "bicomplex"), ("hcco", "lambda")]


def _cases():
    for alg, (_, n) in ALGEBRAS.items():
        for cmd, method in REQUESTS:
            argv = [cmd, "--max", str(n), "--representatives",
                    "--format", "json"]
            if method:
                argv += ["--method", method]
            name = f"{cmd}-{method}-{alg}" if method else f"{cmd}-{alg}"
            yield name, alg, argv
    for cmd in ("hp", "hpco"):
        yield f"{cmd}-dual_numbers_twisted", "dual_numbers_twisted", \
            [cmd, "--max", "1", "--format", "json"]


CASES = list(_cases())

JSON_CASES = [(f"hh-json-{alg}.json", alg,
               ["hh", "--max", "3", "--format", "json"])
              for alg in ("ground_field", "k2", "two_dim_unital")]

TEXT_CASES = [
    ("text-hh-two_dim_unital.txt", "two_dim_unital",
     ["hh", "--max", "3", "--representatives"]),
    ("text-hhco-k1+k2.txt", "k1+k2",
     ["hhco", "--max", "2", "--representatives"]),
    ("text-hc-lambda-two_dim_unital.txt", "two_dim_unital",
     ["hc", "--max", "3", "--method", "lambda", "--representatives"]),
    ("text-hc-both-two_dim_unital.txt", "two_dim_unital",
     ["hc", "--max", "3", "--method", "both"]),
    ("text-hcco-both-k1+k2.txt", "k1+k2",
     ["hcco", "--max", "3", "--method", "both"]),
    ("text-hp-dual_numbers_twisted.txt", "dual_numbers_twisted",
     ["hp", "--max", "1"]),
    ("text-hpco-dual_numbers_twisted.txt", "dual_numbers_twisted",
     ["hpco", "--max", "1"]),
    ("text-duality-two_dim_unital.txt", "two_dim_unital",
     ["duality", "--max", "3"]),
    ("text-duality-dual_numbers_twisted.txt", "dual_numbers_twisted",
     ["duality", "--max", "3"]),
]

HALF = GOLDEN / "algebra-two_dim_unital_half.json"
HALF_CASES = [("hh-two_dim_unital_half", ["hh", "--max", "3"]),
              ("hc-lambda-two_dim_unital_half",
               ["hc", "--method", "lambda", "--max", "3"])]


@pytest.mark.parametrize("name,alg,argv", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_cli_output(name, alg, argv, tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(ALGEBRAS[alg][0]().to_json())
    assert main([argv[0], str(path)] + argv[1:]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name,alg,argv", JSON_CASES + TEXT_CASES,
                         ids=[c[0] for c in JSON_CASES + TEXT_CASES])
def test_golden_bb_and_text_output(name, alg, argv, tmp_path, capsys):
    """The `hh-json-*` and `text-*` goldens, byte by byte."""
    path = tmp_path / "alg.json"
    path.write_text(ALGEBRAS[alg][0]().to_json())
    assert main([argv[0], str(path)] + argv[1:]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / name).read_text(encoding="utf-8")


def test_half_basis_algebra_is_two_dim_unital():
    """The checked-in algebra is two_dim_unital moved by P = diag(2, 1)
    (coordinates x -> P x), with denominators in its constants."""
    B, report = load_algebra(str(HALF))
    assert B is not None, report
    P = Matrix.from_rows([[2, 0], [0, 1]])
    ok, bad = validate_morphism(AlgebraMorphism(two_dim_unital(), B, P))
    assert ok, bad
    assert Fraction(1, 2) in B.mu[0][0]


@pytest.mark.parametrize("name,argv", HALF_CASES,
                         ids=[c[0] for c in HALF_CASES])
def test_golden_cli_output_with_denominators(name, argv, capsys):
    assert main([argv[0], str(HALF)] + argv[1:] +
                ["--representatives", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
