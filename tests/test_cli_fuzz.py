"""The exit contract on generated bad input: valid algebra, matrix and
functional files, one of them mutated (truncated, nested wrongly, a
value of the wrong type, a huge scalar, a list too short or too long,
or one product of the algebra changed to another scalar), given to
`check`, `hh --max 1`, `twist`, `cocycle verify` and `cocycle derive`
through `cli.main` in process.  Every run must return 0, 2 or 3 from
`main` with no traceback.  A refusal, a non-zero exit with nothing on
stdout, writes exactly one stderr line, starting `error:`,
`precondition failure:` or `identity failure:`, and a run that reports
an `error:` exits 2.  Only `check` and `cocycle verify` exit non-zero
with a report on stdout.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from homcyc.cli import main
from homcyc.corpus import dual_numbers

# dual numbers, a twist endomorphism (x -> 0), a derivation (x -> x)
# and a trace vanishing on its image: every command exits 0 on these
VALID = {
    "algebra": json.loads(dual_numbers().to_json()),
    "alpha": [["1", "0"], ["0", "0"]],
    "derivation": [["0", "0"], ["0", "1"]],
    "functional": {"degree": 0, "coords": ["1", "0"]},
}

COMMANDS = [
    ["check", "{algebra}"],
    ["hh", "{algebra}", "--max", "1"],
    ["twist", "{algebra}", "{alpha}"],
    ["cocycle", "verify", "{algebra}", "--functional", "{functional}"],
    ["cocycle", "derive", "{algebra}", "--derivation", "{derivation}",
     "--trace", "{functional}"],
]

WRONG_TYPES = [None, True, 0, -1, 1.5, "x", "1/0", [], {}, [[["1"]]],
               {"degree": 0}]
HUGE = [10 ** 4000, "9" * 5000, "1e5000", "1e-5000", "10**10", 2 ** 64]
SCALARS = ["0", "1", "-1", "2", "1/2", "-3/4"]
REFUSALS = ("error: ", "precondition failure: ", "identity failure: ")


def _case(name, doc):
    """(name, the text of every file), the file name holding doc."""
    return name, {k: json.dumps(doc if k == name else v)
                  for k, v in VALID.items()}


# one * x = 10^4000 x: (one one) x and one (one x) differ by a factor
# 10^4000, and the violation's two sides have 8001 digits
TOO_LONG_TO_PRINT = _case("algebra", {**VALID["algebra"], "mul": [
    [["1", "0"], ["0", 10 ** 4000]], [["0", "1"], ["0", "0"]]]})

# fails Hom-associativity: `check` reports it on stdout, the others
# refuse it on stderr
NOT_HOM_ASSOCIATIVE = _case("algebra", {
    "name": "bad", "dim": 2, "basis": ["a", "b"],
    "mul": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
    "alpha": [["1", "0"], ["0", "1"]]})

# one one = 2 one: (one one) x = 2x but one (one x) = x, so every command
# but `check` refuses it, in one line however many violations there are
ONE_PRODUCT_OFF = _case("algebra", {**VALID["algebra"], "mul": [
    [["2", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]})


def _paths(doc, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def mutated(draw):
    """(name of the mutated file, the text of every file)."""
    name = draw(st.sampled_from(sorted(VALID)))
    doc = json.loads(json.dumps(VALID[name]))
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _get(doc, path)
    kind = draw(st.sampled_from(["truncate", "wrap", "unwrap", "type",
                                 "huge", "shorter", "longer", "scalar"]))
    if kind == "scalar":  # the algebra, still well-formed, one product off
        name, doc = "algebra", json.loads(json.dumps(VALID["algebra"]))
        i, j, k = (draw(st.integers(0, doc["dim"] - 1)) for _ in range(3))
        doc["mul"][i][j][k] = draw(st.sampled_from(
            [x for x in SCALARS if x != doc["mul"][i][j][k]]))
    elif kind == "wrap":
        doc = _set(doc, path, [old])
    elif kind == "unwrap" and isinstance(old, list) and old:
        doc = _set(doc, path, old[0])
    elif kind == "type":
        doc = _set(doc, path, draw(st.sampled_from(WRONG_TYPES)))
    elif kind == "huge":
        doc = _set(doc, path, draw(st.sampled_from(HUGE)))
    elif kind == "shorter" and isinstance(old, (list, dict)) and old:
        del old[draw(st.sampled_from(list(
            old if isinstance(old, dict) else range(len(old)))))]
    elif kind == "longer" and isinstance(old, list) and old:
        old.append(old[-1])
    name, texts = _case(name, doc)
    if kind == "truncate":
        texts[name] = texts[name][:draw(st.integers(0, len(texts[name])))]
    return name, texts


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
@example(_case("algebra", VALID["algebra"]))
@example(TOO_LONG_TO_PRINT)
@example(NOT_HOM_ASSOCIATIVE)
@example(ONE_PRODUCT_OFF)
def test_mutated_input_keeps_the_exit_contract(tmp_path, capsys, case):
    _, texts = case
    paths = {}
    for key, text in texts.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text)
    for argv in COMMANDS:
        code = main([a.format(**paths) for a in argv])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        if err.startswith("error: "):
            assert code == 2 and len(err.strip().splitlines()) == 1
            assert out == "", (argv, err)
        if code and not out:
            assert len(err.splitlines()) == 1, (argv, err)
            assert err.startswith(REFUSALS), (argv, err)
        elif code:
            assert argv[0] == "check" or argv[:2] == ["cocycle", "verify"]
