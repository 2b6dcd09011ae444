import ast
import csv
import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

from gwcalc import builtin_model, cli, engine, save_model
from gwcalc.cli import Report, main
from gwcalc.engine import GWTable, _wdvv_checks, standard_table
from gwcalc.potential import build_potential


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nd_text_rows(capsys):
    code, out, _ = run(capsys, "nd", "--dmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split() == ["d", "value"]
    assert [tuple(l.split()) for l in lines[2:]] == [
        ("1", "1"), ("2", "1"), ("3", "12"), ("4", "620"),
    ]


def test_nd_single_row(capsys):
    code, out, _ = run(capsys, "nd", "--dmax", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].split() == ["1", "1"]


def test_nd_json_round_trip(capsys):
    code, out, _ = run(capsys, "nd", "--dmax", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "nd"
    assert payload["rows"][-1] == {"key": [6], "value": "26312976"}
    rebuilt = {tuple(row["key"]): int(row["value"]) for row in payload["rows"]}
    assert rebuilt == {(1,): 1, (2,): 1, (3,): 12, (4,): 620, (5,): 87304, (6,): 26312976}
    # emitting the same payload again is stable
    code2, out2, _ = run(capsys, "nd", "--dmax", "6", "--format", "json")
    assert out2 == out


def test_nd_with_boundary_check(capsys):
    code, out, _ = run(capsys, "nd", "--dmax", "3", "--check")
    assert code == 0
    assert "PASS boundary-equivalence-d2" in out
    assert "PASS boundary-equivalence-d3" in out


def test_fano3_quadric_csv(capsys):
    code, out, _ = run(capsys, "fano3", "--space", "q3", "--dmax", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "b", "value"]
    assert ["6", "0", "5"] in rows


def test_fano3_projective_includes_conics(capsys):
    code, out, _ = run(capsys, "fano3", "--space", "p3", "--dmax", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    values = {tuple(row["key"]): row["value"] for row in payload["rows"]}
    assert values[(8, 0)] == "92"
    assert values[(4, 0)] == "2"


def test_fano3_deep_quadric(capsys):
    code, out, _ = run(capsys, "fano3", "--space", "q3", "--dmax", "5", "--format", "json")
    assert code == 0
    values = {tuple(row["key"]): row["value"] for row in json.loads(out)["rows"]}
    assert values[(13, 1)] == "3136284"
    assert values[(15, 0)] == "22731810"


def test_wdvv_count_command(capsys):
    code, out, _ = run(capsys, "wdvv-count", "--m", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    values = {row["key"][0]: int(row["value"]) for row in payload["rows"]}
    assert values == {2: 1, 3: 6, 4: 21, 5: 55, 6: 120, 7: 231}
    assert all(check["pass"] for check in payload["checks"])


def test_solve_plane(capsys):
    code, out, _ = run(capsys, "solve", "--model", "p2", "--dmax", "3", "--format", "json")
    assert code == 0
    values = {tuple(row["key"]): row["value"] for row in json.loads(out)["rows"]}
    assert values[(2, 5)] == "1"
    assert values[(3, 8)] == "12"


def test_solve_with_check(capsys):
    code, out, _ = run(capsys, "solve", "--model", "q3", "--dmax", "2", "--check")
    assert code == 0
    assert "PASS residual-A1122" in out


def test_solve_user_model_file(capsys, tmp_path):
    path = tmp_path / "plane.json"
    save_model(builtin_model("p2"), path)
    code, out, _ = run(capsys, "solve", "--model-file", str(path), "--dmax", "2", "--format", "json")
    assert code == 0
    values = {tuple(row["key"]): row["value"] for row in json.loads(out)["rows"]}
    assert values[(2, 5)] == "1"


def _in_each_format(argv, *digests):
    """Golden cases for one invocation: its stdout digest in json, text and csv."""
    return [(argv, digest, fmt) for fmt, digest in zip(("json", "text", "csv"), digests)]


@pytest.mark.parametrize(
    "argv, digest, fmt",
    [
        (
            ("--model", "q3", "--dmax", "5"),
            "90dbc2801e5ee66cd163b18bf0334731325644b1d588ed4f82c22c984294c1a0",
            "json",
        ),
        (
            ("--model", "p4", "--dmax", "3"),
            "1eedde6f48f703b43bf594e70dbeb9bf698b8861be99aa900230aa286f188993",
            "json",
        ),
        *_in_each_format(
            ("--model", "p1xp1", "--dmax", "3", "--check"),
            "7a56e76875c15867c749e56cfd32bdbb186e297cefb8d851f5e36b224259c803",
            "0eb86d9d433eace034709f7bd1e548861a3cac769010cee66ab4ee92a2eb32f1",
            "d082efdc358797c72f3f5936d91994fbfe3084c41214865da383500f6ddb589a",
        ),
    ],
)
def test_solve_json_golden(capsys, argv, digest, fmt):
    code, out, _ = run(capsys, "solve", *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest, fmt",
    [
        (
            ("nd", "--dmax", "60", "--check"),
            "9699644baa3680a6def453a85b1d1d50e6b1ffa8e785cf6c0beb89aaacf410c6",
            "json",
        ),
        (
            ("fano3", "--space", "q3", "--dmax", "10"),
            "d7d8eb4c4823121def3a490effe5d6b1abbe96dbb144a4b3d564a8aef0465443",
            "json",
        ),
        (
            ("fano3", "--space", "p3", "--dmax", "8", "--check"),
            "1f27ac2e6127ecd7b30d75c45cc7fcf60404a1d712f954f3d0b6d381c526bdb0",
            "json",
        ),
        # every verification suite, pinned in all three formats
        *_in_each_format(
            ("verify", "--suite", "rings", "--model", "gr24"),
            "3cb23eada1efecef4155d81e2101187572d8224fe5b4991fbd8f622e836e862e",
            "61b17526a7668fb9964d26d1e57cd88b7080aaeccbbf44bb1ec8fe242d487d2b",
            "013c9827b258de8ec5ae13cc8ba4617ec58c08b6fea8c630da58dbab3fe19a14",
        ),
        *_in_each_format(
            ("verify", "--suite", "rings", "--model", "p3"),
            "b8fee35d7626933e25db8ec306a275a99a8606804aaad5991978ba996643e99b",
            "6933d35fa9a08d8158fae2fdf54b3507027bf260622910b65cea113d5ee92175",
            "9051dc334d710c27bf817ac296ee2668eea03ac4b0f3db726d7490f20d052b17",
        ),
        *_in_each_format(
            ("verify", "--suite", "boundary", "--model", "p2", "--dmax", "5"),
            "728d71bcafbf7db4849c451f1fccef84ac18926be4785be6f97ba6b421e8950a",
            "ee931e27041d0d11ee2de67e4669a2738f7ee4dfd59acae8f92577796b241827",
            "057c60dc73766db76c07440aadb0b65571672b8aed39667ef7f801a248e35352",
        ),
        *_in_each_format(
            ("verify", "--suite", "all", "--model", "p1xp1", "--dmax", "4"),
            "e16fbbe2c567dfadc3e6c5f3ed56584e8b7c03869921d88973deb9325700bca6",
            "6a06e9e223f2a1a42f371ce2ed79cc51cb098aec73b8c52376068082995b00c7",
            "c8e955ce5e7978a199fc871a69ef6e6fe4fa388ce7cbfeb1718ee16bb50d7a28",
        ),
        *_in_each_format(
            ("verify", "--suite", "wdvv", "--model", "q3", "--dmax", "3"),
            "77d5b59338bd39d064c81c09feb12aac5f3cbe5b5463e0be261983213a3936eb",
            "680724d0c128b4f024990f8cfd68a3ffee308f18b3650e5c3a85ae5c3192bbbe",
            "ecf66f8ee835751a59f2a6c5a01c42dead08c5c921fb8c4c34dada50a5988396",
        ),
        *_in_each_format(
            ("nd", "--dmax", "6", "--check"),
            "9a58c1b11f2488a67ee412f5a451c5c302f9067f10a371b2f17cd2d88340fb35",
            "236e727ea49a7f012d8ae94d0f3e703bbbec1b61b1810533365828bb2e535ed0",
            "d413432cd49c6f65dbcdb3eda3ad3ef6cf8d1a7ca303335f9e7cd9f3956d63a9",
        ),
    ],
)
def test_recursion_json_golden(capsys, argv, digest, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_qring_plane(capsys):
    code, out, _ = run(capsys, "qring", "--model", "p2", "--format", "json")
    assert code == 0
    rows = {tuple(row["key"]): row["value"] for row in json.loads(out)["rows"]}
    # T2 * T2 = q T1
    assert rows[(2, 2, 1, 1)] == "1"


def test_verify_wdvv_plane(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "wdvv", "--model", "p2", "--dmax", "5")
    assert code == 0
    assert "PASS canonical-equation-count: 1 classes" in out
    assert "PASS residual-A1122" in out


def test_verify_rings_projective(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rings", "--model", "p3")
    assert code == 0
    assert "PASS pr3-hyperplane-power" in out


def test_verify_rings_projective_above_four(capsys):
    argv = ["verify", "--suite", "rings", "--model", "p6", "--dmax", "1"]
    checks = {c["name"]: c["pass"] for c in _json_run(capsys, *argv)["checks"]}
    for name in ("pr6-product-rules", "pr6-hyperplane-power", "pr6-normal-form"):
        assert checks[name] is True
    assert all(checks.values()), checks


def test_verify_boundary(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "boundary", "--model", "p2", "--dmax", "6")
    assert code == 0
    assert "PASS boundary-equivalence-d6" in out


def test_verify_grassmannian(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rings", "--model", "gr24")
    assert code == 0
    assert "PASS gr-seed-product" in out


def test_verify_all_quadric(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--model", "q3", "--dmax", "2")
    assert code != 2
    assert "FAIL" not in out
    assert code == 0


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "nd", "--dmax", "0")[0] == 2
    assert run(capsys, "fano3", "--space", "bad", "--dmax", "2")[0] == 2
    assert run(capsys, "solve", "--model", "pr", "--dmax", "2")[0] == 2  # no such model
    assert run(capsys, "verify", "--suite", "nope", "--model", "p2")[0] == 2
    assert run(capsys, "wdvv-count", "--m", "1")[0] == 2


def test_exit_code_argparse(capsys):
    # no --trunc: the total-degree cap always follows from the c1 bound
    for argv in (["unknown-command"], ["solve", "--model", "p3", "--dmax", "2", "--trunc", "9"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_conflicting_model_flags_are_refused(capsys, tmp_path):
    path = tmp_path / "p2.json"
    save_model(builtin_model("p2"), path)
    with pytest.raises(SystemExit) as info:
        main(["solve", "--model", "p3", "--model-file", str(path), "--dmax", "1"])
    assert info.value.code == 2
    assert "--model-file: not allowed with argument --model" in capsys.readouterr().err


def test_projective_dimension_is_no_option(capsys, tmp_path):
    # projective r-space is --model p<r>; argparse refuses --r everywhere
    path = tmp_path / "p2.json"
    save_model(builtin_model("p2"), path)
    for argv in (
        ("solve", "--model", "p3", "--r", "9", "--dmax", "1"),
        ("solve", "--model-file", str(path), "--r", "9", "--dmax", "1"),
        ("qring", "--model", "p2", "--r", "2"),
        ("verify", "--suite", "wdvv", "--r", "3"),
        ("verify", "--suite", "rings", "--model", "gr24", "--r", "3"),
    ):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --r" in captured.err


@pytest.mark.parametrize("name", ["pr", "p0", "p03", "p\u00b2", "p1x"])
def test_model_names_outside_p_r_exit_2(capsys, name):
    code, out, err = run(capsys, "solve", "--model", name, "--dmax", "1")
    assert (code, out, err) == (2, "", f"error: unknown model name {name!r}\n")


def test_large_projective_space_report_names_it(capsys):
    code, out, _ = run(capsys, "solve", "--model", "p10", "--dmax", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["model"] == "p10"


def test_repeated_verify_builds_no_model(capsys, monkeypatch):
    from gwcalc.model import FanoModel

    argv = ("verify", "--suite", "all", "--model", "p3", "--dmax", "6")
    assert run(capsys, *argv)[0] == 0
    builds = []
    construct = FanoModel.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(FanoModel, "__init__", counting)
    assert run(capsys, *argv)[0] == 0
    assert builds == []


def test_model_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "solve", "--model-file", str(bad), "--dmax", "2")
    assert code == 2
    assert "parse" in err


def test_missing_model_file(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "solve", "--model-file", str(missing), "--dmax", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read model file {missing}: ")
    assert "Traceback" not in err


def test_csv_check_rows(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "wdvv", "--model", "p2", "--dmax", "3",
        "--format", "csv",
    )
    assert code == 0
    assert "check:residual-A1122,pass" in out


def _edited_file(tmp_path, builtin, edit):
    data = builtin_model(builtin).to_dict()
    edit(data)
    path = tmp_path / f"{builtin}-edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _renamed_file(tmp_path, builtin, name):
    return _edited_file(tmp_path, builtin, lambda data: data.update(name=name))


def _json_run(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    payload.pop("model")
    return payload


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--dmax", "3", "--check"),
        ("qring",),
        ("verify", "--suite", "all", "--dmax", "3"),
    ],
)
def test_plane_data_under_another_name(capsys, tmp_path, argv):
    path = _renamed_file(tmp_path, "p2", "plane")
    from_file = _json_run(capsys, *argv, "--model-file", str(path))
    assert from_file == _json_run(capsys, *argv, "--model", "p2")
    if argv[0] == "verify":
        names = {check["name"] for check in from_file["checks"]}
        assert {"plane-cubic-presentation", "pr2-product-rules", "boundary-equivalence-d3"} <= names


def test_quadric_data_named_p3(capsys, tmp_path):
    path = _renamed_file(tmp_path, "q3", "p3")
    code, out, err = run(capsys, "verify", "--suite", "wdvv", "--model-file", str(path), "--dmax", "3")
    assert code == 0, err
    assert "FAIL" not in out and "PASS residual-A1133" in out
    solve = ("solve", "--dmax", "3")
    assert _json_run(capsys, *solve, "--model-file", str(path)) == _json_run(capsys, *solve, "--model", "q3")


def test_seedless_model_file(capsys, tmp_path):
    data = builtin_model("p2").to_dict()
    del data["seeds"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "solve", "--model-file", str(path), "--dmax", "2")
    assert code == 2
    assert "seeds" in err


def test_bad_seed_model_file(capsys, tmp_path):
    data = builtin_model("p2").to_dict()
    data["seeds"][0]["insertions"] = [3]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "qring", "--model-file", str(path))
    assert code == 2
    assert "dimension constraint" in err


@pytest.mark.parametrize("triple", [(0, 0, 7), (-1, 0, 0)])
def test_bad_triple_index_model_file(capsys, tmp_path, triple):
    data = builtin_model("p2").to_dict()
    data["triples"].append(dict(zip("ijk", triple), value=1))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "solve", "--model-file", str(path), "--dmax", "2")
    assert (code, out, err) == (2, "", f"error: triple {triple} has an index outside 0..2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--dmax", "2"),
        ("qring",),
        ("verify", "--suite", "all"),
        ("verify", "--suite", "wdvv"),
    ],
)
def test_point_model_file_is_refused_by_rule(capsys, tmp_path, argv):
    data = {
        "name": "pt", "dimension": 0, "basis": [{"name": "T0", "codim": 0}],
        "pairing": [[1]], "triples": [{"i": 0, "j": 0, "k": 0, "value": 1}], "effective": [],
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--model-file", str(path))
    assert (code, out, err) == (2, "", "error: basis needs at least one class of codimension 1\n")


def _seeds(*seeds):
    def edit(data):
        data["seeds"] = [{"class": c, "insertions": n, "value": v} for c, n, v in seeds]
    return edit


@pytest.mark.parametrize(
    "builtin, seeds, message",
    [
        # both line counts seeded, the second wrong (5, not 1): level 3 has
        # no unknown left, and its first equation cannot vanish
        ("q3", _seeds(([1], [1, 1], 1), ([1], [3, 0], 5)),
         "inconsistent system at c1-degree 3 on q3: "
         "equation (1, 1, 2, 2) at key ((1,), (0, 0)) cannot vanish"),
        # a conic count alone leaves every line count free
        ("p3", _seeds(([2], [0, 4], 0)),
         "no unique solution at c1-degree 4 on p3: unknowns "
         "[((1,), (0, 2)), ((1,), (2, 1)), ((1,), (4, 0))] are not determined"),
    ],
    ids=["inconsistent", "undetermined"],
)
def test_unsolvable_model_file_exits_1(capsys, tmp_path, builtin, seeds, message):
    # runs main's exit-1 branch for a SolveError raised in wdvv_solve
    path = _edited_file(tmp_path, builtin, seeds)
    code, out, err = run(capsys, "solve", "--model-file", str(path), "--dmax", "2")
    assert (code, out, err) == (1, "", f"failure: {message}\n")


@pytest.mark.parametrize(
    "constant, message",
    [
        (Fraction(-1, 2), "non-integral solution 1/2 for ((2,), (5,))"),
        (Fraction(1), "negative solution -1 for ((2,), (5,))"),
    ],
    ids=["non-integral", "negative"],
)
def test_solution_that_is_not_a_count_exits_1(capsys, monkeypatch, constant, message):
    # No model file has been found whose unique solution is fractional or
    # negative, so the reduction is patched to reach wdvv_solve's two raises:
    # a solvable level's pivot rows cover its unknowns, and the constant
    # column follows them.
    reduce = engine.row_reduce

    def patched(rows):
        pivots, origin = reduce(rows)
        for row in pivots.values():
            row[len(pivots)] = constant
        return pivots, origin

    monkeypatch.setattr(engine, "row_reduce", patched)
    code, out, err = run(capsys, "solve", "--model", "p2", "--dmax", "2")
    assert (code, out, err) == (1, "", f"failure: {message}\n")


@pytest.mark.parametrize(
    "argv, edit, rule",
    [
        (("verify", "--suite", "wdvv", "--model", "gr24"), None,
         "model gr24 supports only the rings suite"),
        (("verify", "--suite", "boundary", "--model", "p3"), None,
         "the boundary suite replays the plane argument; use --model p2"),
        (("solve", "--dmax", "2"), None, "a model is required (--model or --model-file)"),
        (("solve", "--dmax", "2"), lambda d: d.pop("dimension"), "malformed model data: 'dimension'"),
        (("solve", "--dmax", "2"),
         lambda d: d["effective"].append({"dual_divisor_index": 2, "c1_degree": 3}),
         "need exactly one effective generator per divisor class"),
        (("solve", "--dmax", "2"), lambda d: d["basis"][0].update(codim=1),
         "basis must start with the unit class of codimension 0"),
        (("solve", "--dmax", "2"), lambda d: d["basis"][1].update(name={"a": 1}),
         "basis class 1 has name {'a': 1}, not a string"),
        (("solve", "--dmax", "2"), lambda d: d.update(seeds={}),
         "malformed model data in seeds: expected a list, got an object"),
    ],
    ids=["grassmannian-suite", "boundary-off-the-plane", "no-model", "no-dimension",
         "extra-generator", "divisor-first", "basis-name-type", "seeds-object"],
)
def test_refused_invocation_exits_2_naming_its_rule(capsys, tmp_path, argv, edit, rule):
    # each case reaches a raise that no other test reaches: _cmd_verify's two
    # suite refusals, _resolve_model's missing model, and model_from_dict's
    # malformed-data wrap and list check, FanoModel's generator count, its
    # unit-first rule and its string basis names
    if edit is not None:
        argv += ("--model-file", str(_edited_file(tmp_path, "p2", edit)))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {rule}\n")


def test_verify_labels_the_resolved_model(capsys, tmp_path):
    path = _renamed_file(tmp_path, "q3", "quadric")
    code, out, _ = run(capsys, "verify", "--suite", "wdvv", "--model-file", str(path), "--dmax", "1")
    assert code == 0
    assert out.startswith("verify on quadric ")
    code, out, _ = run(capsys, "verify", "--suite", "wdvv", "--model", "p3", "--dmax", "1")
    assert code == 0
    assert out.startswith("verify on p3 ")
    code, out, _ = run(capsys, "verify", "--suite", "wdvv", "--dmax", "1")
    assert code == 0
    assert out.startswith("verify on p2 ")


def test_fano3_check_runs_the_residual_sweep(capsys):
    code, out, _ = run(capsys, "fano3", "--space", "q3", "--dmax", "4", "--check")
    assert code == 0
    assert "PASS canonical-equation-count: 6 classes" in out
    assert out.count("PASS residual-A") == 6
    assert "recursion-cross-validation" not in out


@pytest.mark.parametrize("name, c1_max", [("p2", 12), ("p3", 20), ("q3", 15), ("p1xp1", 8)])
def test_residual_sweep_catches_a_raised_top_count(name, c1_max):
    # The count of largest total degree at the top c1 level sits in the far
    # corner of the truncation box; the sweep must still see it.
    model = builtin_model(name)
    table = standard_table(model, c1_max)
    top = max(
        (key for key in table.entries if model.c1_degree(key[0]) == c1_max),
        key=lambda key: sum(key[1]),
    )
    entries = dict(table.entries)
    entries[top] += 1
    raised = GWTable(model, table.c1_max, entries)
    checks = _wdvv_checks(build_potential(raised, c1_max))
    failed = [detail for label, ok, detail in checks if not ok]
    assert failed and all(label.startswith("residual-A") for label, ok, _ in checks if not ok)
    for detail in failed:
        assert detail.startswith("nonzero at ")
        keys = ast.literal_eval(detail[len("nonzero at "):])
        assert keys and all(model.c1_degree(beta) == c1_max for beta, _ in keys)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_render_integers_past_the_digit_limit(capsys, monkeypatch, fmt):
    # Python caps int -> str conversion at 4300 digits by default; nd --dmax
    # 572 reaches that length but takes about 16 s, so a 5000-digit row stands in
    digits = "7" + "0" * 4998 + "1"
    report = Report("p2", "nd", {"dmax": 1}, ["d"], [((1,), 7 * 10**4999 + 1)])
    monkeypatch.setitem(cli._HANDLERS, "nd", lambda config: report)
    limit = sys.get_int_max_str_digits()
    try:
        code, out, _ = run(capsys, "nd", "--dmax", "1", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert digits in out
