"""Golden CLI outputs: stdout of fixed requests, compared byte for byte.

Each file under tests/golden/ is the exact stdout of one `homcyc`
request on a corpus algebra.  They pin Betti numbers, kernel and image
dimensions and canonical representatives, so a change to the reduction
or to the operator build cannot alter the output unnoticed.
"""

from pathlib import Path

import pytest

from homcyc.cli import main
from homcyc.corpus import (dual_numbers_projection_twist, ground_field, k2,
                           k1_plus_k2, two_dim_unital)

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


@pytest.mark.parametrize("name,alg,argv", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_cli_output(name, alg, argv, tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(ALGEBRAS[alg][0]().to_json())
    assert main([argv[0], str(path)] + argv[1:]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text()
