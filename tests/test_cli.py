import argparse
import inspect
import json
from collections import Counter

import pytest

from cycibl import cli, fileio
from cycibl.cli import build_parser, main
from cycibl.models import build_cpn, build_sn


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_model_emit_and_check(tmp_path, capsys):
    path = tmp_path / "s3.json"
    code, out, _ = run(capsys, "model", "sn", "--n", "3",
                       "--output", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["manifold_dimension"] == 3
    code, out, _ = run(capsys, "algebra-check", str(path))
    assert code == 0
    assert "all relations hold" in out


def test_algebra_check_fails_on_broken_pairing(tmp_path, capsys):
    doc = fileio.structure_to_dict(build_sn(3).structure)
    doc["pairing"][0][1] = "2"   # breaks antisymmetry against the (1,0) entry
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "algebra-check", str(path))
    assert code == 1
    assert "antisymmetry" in out or "relation" in out


def test_algebra_check_fails_on_higher_operation(tmp_path, capsys):
    path = tmp_path / "cp1.json"
    run(capsys, "model", "cpn", "--n", "1", "--output", str(path))
    doc = json.loads(path.read_text())
    doc["mu"]["3"] = [{"inputs": ["e1", "e1", "e1"], "output": {"e1": "1"}}]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "algebra-check", str(path))
    assert code == 1
    assert "mu_3 degree" in out and "mu_3+ cyclicity" in out
    assert "A-infinity relation arity 5 32" in out


def test_vacuous_algebra_check_is_input_error(tmp_path, capsys):
    # no pairing, no operation, no unit: no relation instance to check
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"name": "bare", "manifold_dimension": 3,
                                "basis": [{"label": "x", "shifted_degree": 0}],
                                "mu": {}}))
    code, out, err = run(capsys, "algebra-check", str(path))
    assert code == 2 and out == ""
    assert err == "input error: no relation instance checked\n"


def test_empty_basis_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "x", "manifold_dimension": 2,
                                "basis": [], "mu": {}}))
    code, _, err = run(capsys, "algebra-check", str(path))
    assert code == 2
    assert "basis" in err


def test_homology_table_and_records(tmp_path, capsys):
    path = tmp_path / "s2.json"
    run(capsys, "model", "sn", "--n", "2", "--output", str(path))
    code, out, _ = run(capsys, "homology", str(path), "--twist", "mc",
                       "--reduced", "--weight-bound", "6")
    assert code == 0
    assert "stable" in out
    rec1 = tmp_path / "a.json"
    rec2 = tmp_path / "b.json"
    run(capsys, "homology", str(path), "--twist", "mc", "--reduced",
        "--weight-bound", "6", "--format", "records", "--output", str(rec1))
    run(capsys, "homology", str(path), "--twist", "mc", "--reduced",
        "--weight-bound", "6", "--format", "records", "--output", str(rec2))
    assert rec1.read_bytes() == rec2.read_bytes()
    rows = json.loads(rec1.read_text())
    stable = {(r["degree"], r["weight"]) for r in rows
              if r["stable"] and r["dim"]}
    assert stable == {(w, w) for w in (1, 3, 5)}


def test_weight_bound_one(tmp_path, capsys):
    path = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(path))
    code, out, _ = run(capsys, "homology", str(path), "--twist", "mc",
                       "--weight-bound", "1", "--format", "records")
    assert code == 0
    rows = json.loads(out)
    assert all(r["weight"] == 1 for r in rows)
    assert not any(r["stable"] for r in rows)


def test_graphs_listing(capsys):
    code, out, _ = run(capsys, "graphs", "2", "1", "0", "--legs", "3")
    assert code == 0
    assert "classes" in out
    # (1,4) and (2,3): automorphism orders 1 and 1
    code, out, _ = run(capsys, "graphs", "2", "1", "0", "--legs", "2",
                       "--format", "records")
    rows = json.loads(out)
    auts = sorted(r["automorphisms"] for r in rows)
    assert auts == [1, 2]


def test_pushforward_zero_kernel(tmp_path, capsys):
    path = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(path))
    code, out, _ = run(capsys, "pushforward", str(path),
                       "--weight-bound", "4")
    assert code == 0
    doc = json.loads(out)
    entry10 = next(e for e in doc["entries"] if (e["l"], e["g"]) == (1, 0))
    assert entry10["cochain"]["values"]
    for e in doc["entries"]:
        if (e["l"], e["g"]) != (1, 0):
            assert not e["cochain"]["values"]


def test_green_pipeline_on_model_file(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    run(capsys, "model", "cpn", "--n", "2", "--output", str(path))
    code, out, _ = run(capsys, "green", str(path))
    assert code == 0
    doc = json.loads(out)
    assert all(doc["properties"].values())


def test_eval_product_relation(tmp_path, capsys):
    s3 = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(s3))
    one = tmp_path / "one.json"
    one.write_text(json.dumps(
        {"arity": 1, "values": [{"tuple": [["1"]], "coefficient": "1"}]}))
    w3 = tmp_path / "w3.json"
    w3.write_text(json.dumps(
        {"arity": 1, "values": [{"tuple": [["w", "w", "w"]], "coefficient": "1"}]}))
    code, out, _ = run(capsys, "eval", "product", "--algebra", str(s3),
                       "--psi", str(one), "--psi2", str(w3))
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [
        {"tuple": [["w", "w"]], "coefficient": "-2"}]


def test_byte_stable_structured_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "model", "cpn", "--n", "2", "--output", str(a))
    run(capsys, "model", "cpn", "--n", "2", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def _one_line_input_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["pairing", "mu", "augmentation"])
def test_zero_denominator_in_algebra_is_input_error(tmp_path, capsys, where):
    doc = fileio.structure_to_dict(build_sn(3).structure)
    if where == "pairing":
        doc["pairing"][0][1] = "1/0"
    elif where == "mu":
        doc["mu"]["2"][0]["output"] = {"1": "1/0"}
    else:
        doc["unit"] = "1"
        doc["augmentation"] = {"1": "1/0"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "algebra-check", str(path))
    assert code == 2
    _one_line_input_error(err)
    assert "zero denominator" in err


def test_zero_denominator_in_cochain_and_kernel_is_input_error(tmp_path, capsys):
    s3 = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(s3))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps(
        {"arity": 1, "values": [{"tuple": [["w"]], "coefficient": "1/0"}]}))
    code, _, err = run(capsys, "eval", "boundary", "--algebra", str(s3),
                       "--psi", str(psi))
    assert code == 2
    _one_line_input_error(err)
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps(
        {"entries": [{"i": "1", "j": "w", "value": "1/0"}]}))
    code, _, err = run(capsys, "pushforward", str(s3), "--kernel-file",
                       str(kernel), "--weight-bound", "3")
    assert code == 2
    _one_line_input_error(err)


def test_degenerate_pairing_is_input_error(tmp_path, capsys):
    # algebra-check reports it as a failed axiom; a command that contracts
    # with the pairing cannot run on it
    doc = fileio.structure_to_dict(build_sn(3).structure)
    doc["pairing"] = [["0", "0"], ["0", "0"]]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "algebra-check", str(path))
    assert code == 1 and "pairing nondegenerate" in out
    for argv in (["green", str(path)], ["homology", str(path), "--twist", "mc"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        _one_line_input_error(err)
        assert "degenerate pairing" in err


def test_truncated_twist_file_is_input_error(tmp_path, capsys):
    s3 = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(s3))
    twist = tmp_path / "twist.json"
    run(capsys, "pushforward", str(s3), "--weight-bound", "4",
        "--output", str(twist))
    code, _, err = run(capsys, "homology", str(s3), "--twist", str(twist),
                       "--weight-bound", "3")
    assert code == 2
    _one_line_input_error(err)
    assert "truncated at weight 4" in err
    code, _, _ = run(capsys, "homology", str(s3), "--twist", str(twist),
                     "--weight-bound", "2")
    assert code == 0


def test_inputs_an_operation_cannot_take_are_input_errors(tmp_path, capsys):
    # a product-free algebra has no canonical twist, a kernel file must be
    # a symmetric propagator, eval takes arity-1 cochains
    s3 = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(s3))
    doc = json.loads(s3.read_text())
    doc["mu"] = {}
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"entries": [{"i": "1", "j": "w", "value": "1"}]}))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"arity": 2, "values": [
        {"tuple": [["w"], ["w"]], "coefficient": "1"}]}))
    for argv, why in (
            (["homology", str(bare), "--twist", "mc"], "no product"),
            (["pushforward", str(s3), "--kernel-file", str(kernel)], "propagator"),
            (["eval", "boundary", "--algebra", str(s3), "--psi", str(psi)],
             "arity-1"),
            (["model", "truncated-polynomial", "--n", "2", "--degree", "3"],
             "even")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        _one_line_input_error(err)
        assert why in err
    with pytest.raises(SystemExit) as exc:
        main(["model", "sn", "--n", "0"])
    assert exc.value.code == 2
    _one_line_input_error(capsys.readouterr().err)


def test_internal_error_exits_3_with_traceback(capsys, monkeypatch):
    def broken(args):
        raise ValueError("invariant broken")

    monkeypatch.setattr(cli, "cmd_graphs", broken)
    code, out, err = run(capsys, "graphs", "2", "1", "0")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ValueError('invariant broken')\n")
    assert "Traceback" in err and "input error" not in err


@pytest.mark.parametrize("argv", [
    ["graphs", "2", "1", "0", "--legs", "-1"],
    ["graphs", "-1", "1", "0"],
    ["graphs", "2", "-1", "0"],
    ["graphs", "2", "1", "-1"],
    ["graphs", "2", "1", "x"],
])
def test_negative_graph_arguments_are_input_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    _one_line_input_error(capsys.readouterr().err)


@pytest.mark.parametrize("command,bound", [
    ("pushforward", ["--weight-bound", "0"]),
    ("pushforward", ["--genus-bound", "-2"]),
    ("homology", ["--weight-bound", "0"]),
    ("homology", ["--weight-bound", "-1"]),
])
def test_bad_bounds_are_input_errors(tmp_path, capsys, command, bound):
    path = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(path))
    with pytest.raises(SystemExit) as exc:
        main([command, str(path)] + bound)
    assert exc.value.code == 2
    _one_line_input_error(capsys.readouterr().err)


def test_every_registered_option_is_read_by_its_handler():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sp in subparsers.choices.items():
        source = inspect.getsource(sp.get_default("fn"))
        unread += [(name, action.dest) for action in sp._actions
                   if not isinstance(action, argparse._HelpAction)
                   and f"args.{action.dest}" not in source]
    assert not unread


def _field_paths(node, prefix=()):
    """The path of every value inside a JSON document, containers included."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))


# one replacement of each JSON type, empty and not: a number, a string, a
# list, an object, null
REPLACEMENTS = (7, -1.5, "x", "1", [], ["1"], {}, {"1": "1"}, None)


def _mutations(doc):
    for path in _field_paths(doc):
        for value in REPLACEMENTS:
            mutated = json.loads(json.dumps(doc))
            node = mutated
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield path, value, mutated


def test_mutated_model_files_exit_0_1_or_2(tmp_path, capsys):
    # every field of the S3 and CP2 files replaced by a value of each JSON
    # type: a property failure or an input error, never an internal error
    path = tmp_path / "mutated.json"
    codes = Counter()
    for s in (build_sn(3).structure, build_cpn(2).structure):
        for where, value, doc in _mutations(fileio.structure_to_dict(s)):
            path.write_text(json.dumps(doc))
            for argv in (["algebra-check", str(path)],
                         ["homology", str(path), "--twist", "mc",
                          "--weight-bound", "3"]):
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2), (s.name, where, value, argv[0], err)
                if code == 2:
                    _one_line_input_error(err)
                codes[code] += 1
    assert min(codes[0], codes[1], codes[2]) > 50, codes


def test_mutated_twist_files_exit_0_or_2(tmp_path, capsys):
    algebra, twist, path = (tmp_path / name for name in ("a.json", "t.json",
                                                         "mutated.json"))
    codes = Counter()
    for s in (build_sn(3).structure, build_cpn(2).structure):
        fileio.dump_json(fileio.structure_to_dict(s), str(algebra))
        run(capsys, "pushforward", str(algebra), "--weight-bound", "5",
            "--output", str(twist))
        for where, value, doc in _mutations(json.loads(twist.read_text())):
            path.write_text(json.dumps(doc))
            code, _, err = run(capsys, "homology", str(algebra), "--twist",
                               str(path), "--weight-bound", "3")
            assert code in (0, 2), (s.name, where, value, err)
            if code == 2:
                _one_line_input_error(err)
            codes[code] += 1
    assert codes[0] > 20 and codes[2] > 200, codes


def test_homology_of_an_algebra_failing_its_axioms_is_input_error(tmp_path,
                                                                  capsys):
    # CP2 with mu_2(e0, e0) = 2 e0: the twisted differential fails d*d = 0
    # at weight bound 6, and at 3 its image leaves the kernel one degree
    # down; both are the loaded algebra's fault
    doc = fileio.structure_to_dict(build_cpn(2).structure)
    row = next(r for r in doc["mu"]["2"] if r["inputs"] == ["e0", "e0"])
    row["output"] = {"e0": "2"}
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(doc))
    for bound in ("6", "3"):
        code, out, err = run(capsys, "homology", str(path), "--twist", "mc",
                             "--weight-bound", bound)
        assert code == 2 and out == "", bound
        _one_line_input_error(err)
        assert err == ("input error: CP2: fails A-infinity relation arity 3 "
                       "at (0, 0, 1)\n")
    # a twist file whose (1, 0) entry induces a family of the wrong degree
    s3, twist = tmp_path / "s3.json", tmp_path / "twist.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(s3))
    run(capsys, "pushforward", str(s3), "--weight-bound", "5",
        "--output", str(twist))
    doc = json.loads(twist.read_text())
    record = doc["entries"][0]["cochain"]["values"][0]
    assert record["tuple"] == [["1", "1", "w"]]
    record["tuple"] = [["1", "1", "1"]]
    twist.write_text(json.dumps(doc))
    code, _, err = run(capsys, "homology", str(s3), "--twist", str(twist),
                       "--weight-bound", "3")
    assert code == 2
    _one_line_input_error(err)
    assert err == f"input error: {twist}: fails mu_2 degree at (0, 0)\n"


def test_loaded_inputs_are_checked_before_computing(tmp_path, capsys):
    # CP2 with mu_2(e1, e1) = 2 e2 fails only cyclicity: its twisted
    # complex at weight bound 3 has d*d = 0, so only the check catches it
    doc = fileio.structure_to_dict(build_cpn(2).structure)
    row = next(r for r in doc["mu"]["2"] if r["inputs"] == ["e1", "e1"])
    row["output"] = {"e2": "2"}
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "algebra-check", str(path))[0] == 1
    code, out, err = run(capsys, "homology", str(path), "--twist", "mc",
                         "--weight-bound", "3")
    assert code == 2 and out == ""
    assert err == "input error: CP2: fails mu_2+ cyclicity at (1, 0, 1)\n"
    # a twist file whose (1, 0) entry is inhomogeneous induces a mu_2 of
    # the wrong degree; eval names it before any twisted operation runs
    s3, twist, psi = (tmp_path / name for name in ("s3.json", "t.json",
                                                   "psi.json"))
    run(capsys, "model", "sn", "--n", "3", "--output", str(s3))
    run(capsys, "pushforward", str(s3), "--weight-bound", "5",
        "--output", str(twist))
    doc = json.loads(twist.read_text())
    doc["entries"][0]["cochain"]["values"].append(
        {"coefficient": "1", "tuple": [["1", "w", "w"]]})
    twist.write_text(json.dumps(doc))
    psi.write_text(json.dumps({"algebra": "S3", "arity": 1, "values": [
        {"coefficient": "1", "tuple": [["w", "w", "w"]]}]}))
    code, out, err = run(capsys, "eval", "twisted-boundary", "--algebra",
                         str(s3), "--psi", str(psi), "--twist", str(twist))
    assert code == 2 and out == ""
    assert err == f"input error: {twist}: fails mu_2 degree at (0, 1)\n"


def test_square_zero_error_on_a_valid_algebra_stays_internal(tmp_path, capsys,
                                                            monkeypatch):
    from cycibl import homology
    from cycibl.linalg import SquareZeroError

    def broken(*args, **kwargs):
        raise SquareZeroError("d*d != 0 at degree 1")

    monkeypatch.setattr(homology, "cochain_homology", broken)
    path = tmp_path / "s3.json"
    run(capsys, "model", "sn", "--n", "3", "--output", str(path))
    code, out, err = run(capsys, "homology", str(path), "--twist", "mc")
    assert code == 3 and out == ""
    assert err.startswith(
        "internal error: SquareZeroError('d*d != 0 at degree 1')\n")
    assert "Traceback" in err and "input error" not in err
