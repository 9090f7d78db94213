"""Golden help and usage bytes of the command line.

Each file under tests/golden/ named `help-*.txt` is the exact stdout of
`homcyc --help` or of one subcommand's `--help`, and each `usage-*.txt`
the exact stderr of a request that argparse refuses, all formatted at
`COLUMNS=80` by Python 3.11's argparse, whose layout later versions
change; on those the goldens are skipped.

Regenerate one only for an intended change of the parser:

    COLUMNS=80 PYTHONPATH=src python -m homcyc.cli hh --help \\
        > tests/golden/help-hh.txt
"""

import sys
from pathlib import Path

import pytest

from homcyc.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = ("check", "hh", "hc", "hp", "hhco", "hcco", "hpco", "duality",
            "twist", "dual-space", "decompose", "cocycle")

# (golden file, argv, exit code); help goes to stdout, usage to stderr
CASES = [("help-homcyc.txt", ["--help"], 0)] + \
    [(f"help-{c}.txt", [c, "--help"], 0) for c in COMMANDS] + [
    ("usage-unknown-subcommand.txt", ["frobnicate", "A.json"], 2),
    ("usage-missing-file.txt", ["hh", "--max", "2"], 2),
    ("usage-missing-subcommand.txt", [], 2),
    ("usage-unrecognized-argument.txt", ["check", "A.json", "extra"], 2),
    ("usage-invalid-degree.txt", ["hc", "A.json", "--max", "-1"], 2),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the goldens are Python 3.11's argparse layout")
@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_help_and_usage_bytes(name, argv, code, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert (out, err) == ((expected, "") if code == 0 else ("", expected))

