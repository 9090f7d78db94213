"""Command line interface: exit codes, output formats, round trips."""

import json
from fractions import Fraction

import pytest

from homcyc.algebra import load_algebra, yau_twist
from homcyc.cli import main
from homcyc.corpus import (dual_numbers, ground_field, matrix_2x2,
                           two_dim_unital)
from homcyc.linalg import Matrix


@pytest.fixture()
def example_file(tmp_path):
    p = tmp_path / "example.json"
    p.write_text(two_dim_unital().to_json())
    return str(p)


@pytest.fixture()
def assoc_file(tmp_path):
    p = tmp_path / "dn.json"
    p.write_text(dual_numbers().to_json())
    return str(p)


def test_check_valid(example_file, capsys):
    assert main(["check", example_file]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "unital" in out


def test_check_json_format(example_file, capsys):
    assert main(["check", example_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] and data["centroid"] and data["alpha_idempotent"]
    assert data["unit"] == ["1", "0"]


def test_check_invalid_exits_2(tmp_path, capsys):
    """An algebra that fails Hom-associativity: exit 2 with the report
    on stdout, as JSON with sorted keys under `--format json`, each
    violation being one line of the text report."""
    bad = {"name": "bad", "dim": 2, "basis": ["a", "b"],
           "mul": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
           "alpha": [["1", "0"], ["0", "1"]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["check", str(p), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert data["valid"] is False and len(data["violations"]) == 4
    assert err == ""
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr() == ("\n".join(
        ["invalid: Hom-associativity fails"]
        + ["  " + v for v in data["violations"]]) + "\n", "")


def test_check_malformed_shape_exits_2(tmp_path):
    p = tmp_path / "shape.json"
    p.write_text(json.dumps({"dim": 2, "basis": ["a"], "mul": [], "alpha": []}))
    assert main(["check", str(p)]) == 2


# every product e1 + e2 + e3 and alpha = diag(1, 2, 3): Hom-associativity
# and multiplicativity fail at 27 basis tuples together
SUM_PRODUCT = {"name": "sum3", "dim": 3, "basis": ["e1", "e2", "e3"],
               "mul": [[["1", "1", "1"]] * 3] * 3,
               "alpha": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}


@pytest.mark.parametrize("argv", [
    ["hh", "--max", "1"], ["hc"], ["hpco"], ["duality"], ["dual-space"],
    ["decompose"]], ids=lambda argv: argv[0])
def test_invalid_algebra_is_refused_in_one_line(tmp_path, capsys, argv):
    """Every command but `check` refuses an algebra that fails validation
    with one stderr line: its name, its first violation and how many
    there are; exit 2, nothing on stdout."""
    p = tmp_path / "sum3.json"
    p.write_text(json.dumps(SUM_PRODUCT))
    _, report = load_algebra(str(p))
    assert len(report.violations) == 27
    assert main([argv[0], str(p), *argv[1:]]) == 2
    assert capsys.readouterr() == (
        "", f"error: algebra 'sum3' fails validation: "
        f"{report.violations[0]} (27 violations)\n")



ONE_DIM = ('{{"name": "n", "dim": 1, "basis": ["e"], "mul": [[[{mul}]]], '
           '"alpha": [[{alpha}]]}}')


def _written(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_json_numbers_are_read_exactly(tmp_path, capsys):
    """A structure constant written as the JSON number
    1.00000000000000001 is that number, not the float 1: the algebra
    equals the one written with the string "100000000000000001/10^17",
    and `check` prints the same bytes for both."""
    paths = [_written(tmp_path, "number.json", ONE_DIM.format(
                 mul="1.00000000000000001", alpha="1.0")),
             _written(tmp_path, "string.json", ONE_DIM.format(
                 mul='"100000000000000001/100000000000000000"', alpha='"1"'))]
    algebras = [load_algebra(p)[0] for p in paths]
    assert algebras[0] == algebras[1]
    assert algebras[0].mu[0][0][0] == Fraction(100000000000000001, 10 ** 17)
    outputs = []
    for path in paths:
        assert main(["check", path, "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["unit"] == \
        ["100000000000000000/100000000000000001"]


def test_json_number_past_the_float_range_loads_exactly(tmp_path, capsys):
    """1e400, which a float reads as inf, is 10^400."""
    path = _written(tmp_path, "big.json", ONE_DIM.format(mul="1e400",
                                                         alpha="1"))
    A, report = load_algebra(path)
    assert report.valid and A.mu[0][0][0] == 10 ** 400
    assert main(["check", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["unit"] == [f"1/{10 ** 400}"]


def test_cli_inputs_read_json_numbers_exactly(assoc_file, tmp_path, capsys):
    """A twist matrix with the JSON number 1.00000000000000001 gives the
    bytes of the same matrix written with that number as a string."""
    outputs = []
    string = '"100000000000000001/100000000000000000"'
    for name, x in (("number.json", "1.00000000000000001"),
                    ("string.json", string)):
        alpha = _written(tmp_path, name, f'[[1, 0], [0, {x}]]')
        assert main(["twist", assoc_file, alpha]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["alpha"] == \
        [["1", "0"], ["0", "100000000000000001/100000000000000000"]]

def test_hh_betti(example_file, capsys):
    assert main(["hh", example_file, "--max", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == {"0": "2", "1": "1"} or \
        data["betti"] == {"0": 2, "1": 1}


def test_hochschild_text_prints_cycles_as_tensors(example_file, capsys):
    """hh and hhco text label representatives by their tensors; the
    lambda quotient's coordinates are not tensors and keep x{i}."""
    assert main(["hh", example_file, "--max", "2", "--representatives"]) == 0
    out = capsys.readouterr().out
    assert "cycle[1]: 1*e2⊗e2" in out
    assert "cycle[2]: 1*e2⊗e1⊗e2 + -1*e2⊗e2⊗e1" in out
    assert main(["hhco", example_file, "--max", "1",
                 "--representatives"]) == 0
    assert "cycle[0]: 1*e1\n" in capsys.readouterr().out
    assert main(["hc", example_file, "--max", "1", "--method", "lambda",
                 "--representatives"]) == 0
    out = capsys.readouterr().out
    assert "cycle[0]: 1*x0" in out and "⊗" not in out


def test_hc_both_methods(example_file, capsys):
    assert main(["hc", example_file, "--max", "1", "--method", "both",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti_lambda"]["1"] == 0
    assert all(data["agreement"].values())


def test_hhco_trace_dimension(example_file, capsys):
    assert main(["hhco", example_file, "--max", "0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"]["0"] == 2


def test_hp_stabilization(tmp_path, capsys):
    p = tmp_path / "k.json"
    p.write_text(ground_field().to_json())
    assert main(["hp", str(p), "--max", "2", "--window", "2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == {"0": 1, "1": 0, "2": 1}
    assert all(data["stabilized"].values())


@pytest.mark.parametrize("argv", [["hp", "--max", "1", "--window", "3"],
                                  ["hp", "--window", "-2"],
                                  ["hh", "--max", "-1"]])
def test_bad_degree_or_window_exits_2(example_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], example_file] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(f"homcyc {argv[0]}: error:")


def test_duality_command(example_file, capsys):
    assert main(["duality", example_file, "--max", "2"]) == 0
    out = capsys.readouterr().out
    assert "yes" in out and "NO" not in out


def test_twist_round_trip(assoc_file, tmp_path, capsys):
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps([[1, 0], [0, 0]]))
    assert main(["twist", assoc_file, str(alpha)]) == 0
    twisted = json.loads(capsys.readouterr().out)
    out_file = tmp_path / "twisted.json"
    out_file.write_text(json.dumps(twisted))
    assert main(["check", str(out_file)]) == 0


@pytest.mark.parametrize("algebra,alpha", [
    ("example_file", [[1, 0], [0, 0]]),
    ("assoc_file", [[2, 0], [0, 0]]),
], ids=["not-associative", "not-an-algebra-map"])
def test_twist_precondition_failure_exits_2(request, tmp_path, capsys,
                                            algebra, alpha):
    p = tmp_path / "alpha.json"
    p.write_text(json.dumps(alpha))
    assert main(["twist", request.getfixturevalue(algebra), str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_dual_space_command(example_file, capsys):
    assert main(["dual-space", example_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 2 and data["ambient_dim"] == 2


def test_decompose_command(example_file, capsys):
    assert main(["decompose", example_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["A1"]["dim"] == 1 and data["A2"]["dim"] == 1


@pytest.mark.parametrize("name, dims", [("ground_field", (1, 0)),
                                        ("k2", (0, 1))])
def test_decompose_reports_a_zero_summand_as_null(name, dims, tmp_path,
                                                  capsys):
    """alpha(1) = 1 on ground_field leaves A2 = A(1 - alpha(1)) = 0, and
    alpha(1) = 0 on k2 leaves A1 = 0: the zero summand is null in JSON,
    with an empty basis, and has dim 0 in text."""
    from homcyc import corpus
    p = tmp_path / f"{name}.json"
    p.write_text(getattr(corpus, name)().to_json())
    assert main(["decompose", str(p), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for key, dim in zip(("A1", "A2"), dims):
        assert len(data["basis_" + key]) == dim
        if dim:
            assert data[key]["dim"] == dim
        else:
            assert data[key] is None
    assert main(["decompose", str(p)]) == 0
    assert f"dim A1 = {dims[0]}, dim A2 = {dims[1]};" in \
        capsys.readouterr().out


def test_decompose_without_unit_exits_2(tmp_path):
    from homcyc.corpus import k2
    # k2 is unital; build a zero algebra instead
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"name": "zero", "dim": 1, "basis": ["z"],
                             "mul": [[["0"]]], "alpha": [["0"]]}))
    assert main(["decompose", str(p)]) == 2


def test_retired_bb_flag_is_a_usage_error(example_file, capsys):
    """The homology commands take no (b,B) flag: argparse rejects it
    with exit 2 and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(["hh", example_file, "--experimental-bb"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cocycle_verify(example_file, tmp_path, capsys):
    func = tmp_path / "phi.json"
    func.write_text(json.dumps({"degree": 0, "coords": ["1", "0"]}))
    code = main(["cocycle", "verify", example_file,
                 "--functional", str(func), "--format", "json"])
    captured = json.loads(capsys.readouterr().out)
    # e1* is a trace for this commutative product
    assert code == 0 and captured["is_cyclic_cocycle"]


def test_cocycle_verify_negative(example_file, tmp_path, capsys):
    func = tmp_path / "phi.json"
    func.write_text(json.dumps({"degree": 1,
                                "coords": ["1", "0", "0", "0"]}))
    assert main(["cocycle", "verify", example_file,
                 "--functional", str(func)]) == 2


def test_cocycle_derive(tmp_path, capsys):
    from homcyc.corpus import truncated_polynomials
    alg = tmp_path / "tp.json"
    alg.write_text(truncated_polynomials().to_json())
    deriv = tmp_path / "rho.json"
    deriv.write_text(json.dumps([["0", "0", "0"],
                                 ["0", "1", "0"],
                                 ["0", "0", "2"]]))
    tr = tmp_path / "tr.json"
    tr.write_text(json.dumps({"coords": ["1", "0", "0"]}))
    assert main(["cocycle", "derive", str(alg), "--derivation", str(deriv),
                 "--trace", str(tr), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree"] == 1 and len(data["coords"]) == 9


def test_json_output_is_deterministic(example_file, capsys):
    main(["hh", example_file, "--max", "2", "--format", "json"])
    first = capsys.readouterr().out
    main(["hh", example_file, "--max", "2", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def _with_first_mul(literal: str) -> str:
    """two_dim_unital's JSON with mul[0][0][0] written as literal."""
    text = json.dumps(json.loads(two_dim_unital().to_json()))
    return text.replace('"mul": [[["1"', '"mul": [[[' + literal, 1)


@pytest.mark.parametrize("cmd,content", [
    ("hh", json.dumps({"dim": 2, "basis": ["a"], "mul": [], "alpha": []})),
    ("hc", "{not json"),
    ("hh", None),
    ("check", "[" * 100000 + "]" * 100000),
    ("hh", "[" * 100000 + "]" * 100000),
    ("check", _with_first_mul("1" * 5000)),
    ("hh", _with_first_mul("1" * 5000)),
    ("check", _with_first_mul("1e5000")),
    ("check", _with_first_mul("1e10000000")),
    ("hh", _with_first_mul("1e-4300")),
    ("hh", json.dumps([two_dim_unital().to_json_dict()])),
], ids=["malformed-shape", "invalid-json", "missing-file",
        "check-nested-too-deep", "hh-nested-too-deep",
        "check-5000-digit-integer", "hh-5000-digit-integer",
        "number-1e5000", "number-1e10000000", "number-1e-4300",
        "not-an-object"])
def test_unreadable_algebra_file_exits_2(tmp_path, capsys, cmd, content):
    p = tmp_path / "alg.json"
    if content is not None:
        p.write_text(content)
    assert main([cmd, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["check", "{bad}"], ["hh", "{bad}"], ["hp", "{bad}", "--max", "0"],
    ["cocycle", "verify", "{alg}", "--functional", "{bad}"]],
    ids=["check", "hh", "hp", "cocycle-functional"])
def test_non_utf8_input_file_exits_2(example_file, tmp_path, capsys, argv):
    """A file that is not UTF-8 text is not JSON: exit 2 with one
    error line, whichever file of the request it is."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert main([a.format(bad=bad, alg=example_file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cmd,key,value", [
    ("check", ("mul", 0, 1, 0), "x"),
    ("hh", ("mul", 0, 1, 0), "x"),
    ("check", ("alpha", 1, 1), "1/0"),
    ("check", ("dim",), "two"),
    ("check", ("mul",), None),
    ("hh", ("mul",), [[1, 2], [3, 4]]),
    ("check", ("alpha",), 3),
    ("hh", ("alpha",), [1, 2]),
    ("hh", ("mul", 0, 0), "10"),
    ("check", ("dim",), 2.7),
    ("check", ("basis",), "ab"),
    ("check", ("mul", 0, 0, 0), "1e5000"),
    ("hh", ("mul", 0, 0, 0), "1e5000"),
    ("check", ("alpha", 0, 0), "1e10000000"),
    ("check", ("alpha", 1, 1), "1e-4300"),
    ("hh", ("mul", 0, 1, 1), "1/" + "3" * 5000),
    ("check", ("mul", 0, 1, 1), "0." + "1" * 2200 + "2" * 2200),
], ids=["check-mul-not-a-number", "hh-mul-not-a-number",
        "alpha-zero-denominator", "dim-not-a-number", "mul-null",
        "mul-too-shallow", "alpha-scalar", "alpha-too-shallow",
        "mul-entry-a-string", "dim-not-an-integer", "basis-a-string",
        "check-exponent-past-the-digit-limit",
        "hh-exponent-past-the-digit-limit", "exponent-1e10000000",
        "denominator-past-the-digit-limit",
        "5000-digit-denominator", "4400-decimal-digits"])
def test_bad_scalar_in_algebra_file_exits_2(tmp_path, capsys, cmd, key,
                                            value):
    data = json.loads(two_dim_unital().to_json())
    target = data
    for k in key[:-1]:
        target = target[k]
    target[key[-1]] = value
    p = tmp_path / "alg.json"
    p.write_text(json.dumps(data))
    assert main([cmd, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _exit_code(argv):
    """main's return code, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args,files,err_prefix", [
    (["verify"], {}, "homcyc cocycle: error:"),
    (["derive"], {}, "homcyc cocycle: error:"),
    (["derive", "--trace", "{tr}"], {"tr": {"coords": ["1", "0"]}},
     "homcyc cocycle: error:"),
    (["verify", "--functional", "{phi}"],
     {"phi": {"degree": 1, "coords": ["1", "0", "0"]}}, "error: "),
    (["verify", "--functional", "{phi}"], {"phi": {"coords": ["1", "0"]}},
     "error: "),
    (["verify", "--functional", "{phi}"],
     {"phi": {"degree": 10 ** 9, "coords": ["1"]}}, "error: "),
    (["derive", "--derivation", "{rho}", "--trace", "{tr}"],
     {"rho": [["0", "0"], ["0"]], "tr": {"coords": ["1", "0"]}}, "error: "),
    (["derive", "--derivation", "{rho}", "--trace", "{tr}"],
     {"rho": [["0", "0"], ["0", "0"]], "tr": {"coords": ["1"]}}, "error: "),
    (["verify", "--functional", "{phi}"],
     {"phi": {"degree": 0, "coords": "10"}}, "error: "),
    (["verify", "--functional", "{phi}"],
     {"phi": {"degree": True, "coords": ["0"] * 4}}, "error: "),
    (["verify", "--functional", "{phi}"],
     {"phi": {"degree": 1.5, "coords": ["0"] * 4}}, "error: "),
    (["derive", "--derivation", "{rho}", "--trace", "{tr}"],
     {"rho": ["00", ["0", "0"]], "tr": {"coords": ["1", "0"]}}, "error: "),
    (["derive", "--derivation", "{rho}", "--trace", "{tr}"],
     {"rho": [["0", "0"], ["0", "0"]], "tr": {"coords": "10"}}, "error: "),
    # a trace may leave its degree out, but a degree it gives must be 0
    (["derive", "--derivation", "{rho}", "--trace", "{tr}"],
     {"rho": [["0", "0"], ["0", "0"]],
      "tr": {"degree": 5, "coords": ["1", "0"]}}, "error: "),
    (["derive", "--derivation", "{rho}", "--trace", "{tr}"],
     {"rho": [["0", "0"], ["0", "0"]],
      "tr": {"degree": None, "coords": ["1", "0"]}}, "error: "),
    # files given as text are written as they are
    (["verify", "--functional", "{phi}"],
     {"phi": "[" * 100000 + "]" * 100000}, "error: "),
    (["verify", "--functional", "{phi}"],
     {"phi": '{"degree": 0, "coords": [%s, 0]}' % ("1" * 5000)}, "error: "),
    (["verify", "--functional", "{phi}"],
     {"phi": '{"degree": 0, "coords": [1e5000, 0]}'}, "error: "),
], ids=["verify-no-functional", "derive-no-options", "derive-no-derivation",
        "functional-wrong-length", "functional-no-degree",
        "functional-huge-degree", "ragged-derivation", "trace-wrong-length",
        "functional-coords-a-string", "functional-degree-a-bool",
        "functional-degree-a-float", "derivation-row-a-string",
        "trace-coords-a-string", "trace-degree-5", "trace-degree-null",
        "functional-nested-too-deep",
        "functional-5000-digit-integer", "functional-1e5000"])
def test_malformed_cocycle_input_exits_2(example_file, tmp_path, capsys,
                                         args, files, err_prefix):
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(data if type(data) is str
                               else json.dumps(data))
    argv = ["cocycle", args[0], example_file] + \
        [a.format(**paths) for a in args[1:]]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(err_prefix)
    if err_prefix == "error: ":
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("alpha", [[[1, 0], [0]], [[1, 0], [0, 0], [0, 0]],
                                   5, [["x", 0], [0, 1]], ["10", "01"],
                                   [[1, 0], "01"]],
                         ids=["ragged", "not-square", "not-a-list",
                              "not-a-number", "rows-strings", "row-a-string"])
def test_malformed_twist_matrix_exits_2(assoc_file, tmp_path, capsys, alpha):
    p = tmp_path / "alpha.json"
    p.write_text(json.dumps(alpha))
    assert main(["twist", assoc_file, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.fixture()
def shear_file(tmp_path):
    """mat2 Yau-twisted by x -> g x g^-1 with g = [[1, 1], [0, 1]]: a
    valid algebra with alpha^2 != Id, whose dual A* fails the
    dual-bimodule axioms."""
    g_conj = Matrix.from_columns(4, [[1, -1, 0, 0], [0, 1, 0, 0],
                                     [1, -1, 1, -1], [0, 1, 0, 1]])
    p = tmp_path / "shear.json"
    p.write_text(yau_twist(matrix_2x2(), g_conj, name="mat2_shear").to_json())
    return str(p)


@pytest.mark.parametrize("argv", [
    ["hhco"], ["hcco", "--method", "lambda"], ["hcco", "--method", "both"],
    ["duality"]], ids=["hhco", "hcco-lambda", "hcco-both", "duality"])
def test_dual_bimodule_failure_exits_2(shear_file, capsys, argv):
    """A* is needed and refused: one error line naming the failed axiom,
    no traceback."""
    assert main([argv[0], shear_file, "--max", "1", *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "dual-bimodule-compat fails at (1,1,1)" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["hcco", "--max", "1", "--method", "bicomplex"],
    ["hpco", "--max", "0", "--window", "0"]],
    ids=["hcco-bicomplex", "hpco"])
def test_cochain_theories_without_the_dual_bimodule_exit_0(shear_file,
                                                           capsys, argv):
    assert main([argv[0], shear_file, *argv[1:], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"]["0"] >= 0


@pytest.mark.parametrize("theory,cell", [("hc", (2, 1)), ("hcco", (0, 1))])
def test_corrupt_norm_on_the_both_path_exits_3(example_file, capsys,
                                               monkeypatch, theory, cell):
    """With entry (0, 1) of each N_q raised by one, `--method both`
    still fails on the first corrupted square, h^2 = 0 in row 1, with
    the message that names its cell and nothing on stdout."""
    from homcyc import cyclic
    norm_N = cyclic.norm_N

    def corrupt(A, n):
        N = norm_N(A, n)
        return N + Matrix.from_integer_rows(N.cols, [
            (1, {min(1, N.cols - 1): 1} if i == 0 else {})
            for i in range(N.rows)])

    monkeypatch.setattr(cyclic, "norm_N", corrupt)
    assert main([theory, example_file, "--max", "2", "--method", "both"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == f"identity failure: horizontal^2 != 0 at {cell}"
