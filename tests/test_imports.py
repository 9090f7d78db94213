"""Which homcyc modules an import or a command-line request loads.

Each case runs in a fresh interpreter, without writing bytecode, and
reads the `homcyc.*` entries of `sys.modules` once it is done.
`import homcyc` loads `algebra`, which imports `linalg`, `errors` and
`records`; each subcommand then imports the modules it computes with,
and the first other lookup on the package imports the whole API.  No
case loads `dataclasses` or `inspect`, which the records replace.  Run
without `site` (`python -S`), whose hooks may preload them, no request
loads `typing` or `shutil` either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homcyc
from homcyc import cyclic, errors, hochschild
from homcyc.corpus import dual_numbers, two_dim_unital

SRC = Path(__file__).resolve().parents[1] / "src"
BASE = {"algebra", "errors", "linalg", "records"}
# stdlib modules that a bare interpreter does not load, nor may homcyc
HEAVY = ("dataclasses", "inspect")
# loaded by argparse's help formatter and by `typing` annotations; a
# site hook may preload both, so they are read without site
UNSITED = ("shutil", "typing")
API = BASE | {"coefficients", "complexes", "cyclic", "cocycles",
              "hochschild"}
HH = BASE | {"cli", "coefficients", "complexes", "hochschild"}


def _loaded(code: str, *argv: str, site: bool = True) -> set[str]:
    """The homcyc submodules, and the `HEAVY` modules, loaded after
    `code` runs in a fresh interpreter with `argv`; `code` may print,
    the module list is printed last.  So an exact set asserts that no
    `HEAVY` module is loaded.  With `site=False` the interpreter runs
    without `site` (`-S`), and the `UNSITED` modules are read too."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    watched = HEAVY if site else HEAVY + UNSITED
    out = subprocess.run(
        [sys.executable, "-B", *([] if site else ["-S"]), "-c",
         code + "\nimport sys\nprint('\\n' + "
         "' '.join(m[7:] for m in sys.modules if m.startswith('homcyc.')), "
         f"*sorted({{*{watched}}} & {{*sys.modules}}))",
         *argv], env=env, capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def _request(*argv: str, site: bool = True) -> set[str]:
    """The modules one command-line request loads, and its exit code 0."""
    return _loaded("import sys, homcyc.cli\n"
                   "assert homcyc.cli.main(sys.argv[1:]) == 0", *argv,
                   site=site)


def test_import_homcyc_loads_algebra_only():
    assert _loaded("import homcyc") == BASE


def test_the_module_sets_show_a_heavy_import():
    """The exact sets of the other cases would fail on `dataclasses`,
    which imports `inspect`."""
    assert _loaded("import dataclasses") == set(HEAVY)


@pytest.mark.parametrize("code", [
    "import homcyc; homcyc.hochschild_homology",
    "import homcyc; homcyc.Matrix",
    "from homcyc import face_map",
    "from homcyc import corpus",
    "import homcyc; homcyc.cyclic.xi_map"],
    ids=["attribute", "linalg-name", "from-import", "submodule",
         "submodule-attribute"])
def test_first_lookup_loads_the_whole_api(code):
    """A linalg name, already loaded, still loads the rest; so does
    `from homcyc import corpus`, which asks the package first, so a
    caller that imports it computes without importing anything more.
    A submodule is an attribute of the package after `import homcyc`,
    as when the package imported every module eagerly."""
    loaded = _loaded(code)
    assert API <= loaded and loaded - API <= {"corpus"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("requests")
    paths = {"alg": d / "alg.json", "assoc": d / "assoc.json",
             "alpha": d / "alpha.json", "phi": d / "phi.json"}
    paths["alg"].write_text(two_dim_unital().to_json())
    paths["assoc"].write_text(dual_numbers().to_json())
    paths["alpha"].write_text(json.dumps([["1", "0"], ["0", "1"]]))
    paths["phi"].write_text(json.dumps({"degree": 0, "coords": ["1", "0"]}))
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("argv,modules", [
    (["check", "{alg}"], BASE | {"cli"}),
    (["decompose", "{alg}"], BASE | {"cli"}),
    (["dual-space", "{alg}"], BASE | {"cli", "coefficients"}),
    (["hh", "{alg}", "--max", "1"], HH),
    (["hhco", "{alg}", "--max", "1", "--representatives"], HH),
    (["duality", "{alg}", "--max", "1"], HH),
    (["hc", "{alg}", "--max", "1"], HH | {"cyclic"}),
    (["hcco", "{alg}", "--max", "1", "--method", "lambda"], HH | {"cyclic"}),
    (["hp", "{alg}", "--max", "0"], HH | {"cyclic"}),
    (["cocycle", "verify", "{alg}", "--functional", "{phi}"],
     HH | {"cocycles"}),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_each_request_loads_its_subcommand_modules(files, argv, modules):
    assert _request(*(a.format(**files) for a in argv)) == modules


def test_an_unsited_interpreter_shows_both_modules():
    """The check can fail: an argparse argument, as argparse makes it,
    loads shutil, and a `typing` import loads typing."""
    assert _loaded("import argparse, typing\n"
                   "argparse.ArgumentParser().add_argument('x')",
                   site=False) == set(UNSITED)


@pytest.mark.parametrize("argv,modules", [
    (["check", "{alg}"], BASE | {"cli"}),
    (["hh", "{alg}", "--max", "1"], HH),
    (["hc", "{alg}", "--max", "1", "--format", "json"], HH | {"cyclic"}),
    (["cocycle", "verify", "{alg}", "--functional", "{phi}"],
     HH | {"cocycles"}),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_a_request_loads_neither_typing_nor_shutil(files, argv, modules):
    """Building the parser makes no formatter that sizes itself, and
    the package's annotations name `collections.abc` types."""
    assert _request(*(a.format(**files) for a in argv), site=False) == \
        modules


def test_twist_loads_algebra_only(files):
    """twist prints the algebra it builds; it needs no other module."""
    assert _request("twist", files["assoc"], files["alpha"]) == \
        BASE | {"cli"}


def test_all_and_dir_are_complete():
    """Every exported name resolves and is listed by dir, which also
    lists the submodules that are bound; a star import binds exactly
    __all__."""
    assert len(set(homcyc.__all__)) == len(homcyc.__all__) >= 60
    names = set(dir(homcyc))
    assert set(homcyc.__all__) <= names
    assert {"algebra", "linalg", "errors", "cyclic", "__version__"} <= names
    modules = [m for k, m in sys.modules.items() if k.startswith("homcyc.")]
    for name in homcyc.__all__:
        obj = getattr(homcyc, name)
        assert any(vars(m).get(name) is obj for m in modules), name
    star: dict = {}
    exec("from homcyc import *", star)
    assert set(star) - {"__builtins__"} == set(homcyc.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        homcyc.nonexistent


def test_package_names_follow_their_module(monkeypatch):
    """A lookup reads the defining module each time, so a patch there is
    what the package returns, and undoing it restores the original."""
    original = hochschild.face_map
    assert homcyc.face_map is original
    monkeypatch.setattr(hochschild, "face_map", lambda *a: None)
    assert homcyc.face_map is hochschild.face_map is not original
    monkeypatch.undo()
    assert homcyc.face_map is original
    assert "face_map" not in vars(homcyc)


def test_moved_names_keep_their_identity():
    """The HH entry points live in hochschild and the exit-code
    exceptions in errors; the modules they left re-export them."""
    from homcyc import algebra, coefficients, complexes
    assert cyclic.hochschild_homology is hochschild.hochschild_homology \
        is homcyc.hochschild_homology
    assert cyclic.hochschild_cohomology is hochschild.hochschild_cohomology
    assert algebra.ShapeError is errors.ShapeError
    assert coefficients.CoefficientError is errors.CoefficientError
    assert complexes.BoundarySquareError is errors.BoundarySquareError
    assert complexes.NotStableError is errors.NotStableError
    assert hochschild.IdentityViolationError is \
        cyclic.IdentityViolationError is errors.IdentityViolationError
