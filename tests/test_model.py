import copy
import hashlib
import json
import pickle
import re
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcalc import (
    BoundaryDatum,
    FanoModel,
    GWSeries,
    GradedPoly,
    ModelError,
    SeriesBounds,
    builtin_model,
    load_model,
    model_from_dict,
    save_model,
)
from gwcalc.model import _invert_exact
from gwcalc.series import compositions
from test_oracles import P1XP2, Q3_HYPERPLANE

ALL_BUILTINS = ["p1", "p2", "p3", "q3", "p1xp1"]


def expected_dimension(model, beta, n):
    """Dimension of the space of n-pointed rational maps in class beta."""
    return model.dimension + model.c1_degree(beta) + n - 3


def effective_classes(model, c1_max):
    """All effective classes of the model with anticanonical degree at most
    c1_max, sorted."""
    return sorted(b for c1 in range(c1_max + 1) for b in compositions(model.effective_c1, c1))


def test_plane_structure(p2):
    assert p2.dimension == 2
    assert p2.codims == (0, 1, 2)
    assert p2.pairing == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert p2.c1_degree((1,)) == 3


def test_threefold_line_degrees(p3, q3):
    assert p3.c1_degree((1,)) == 4
    assert q3.c1_degree((1,)) == 3


def test_quadric_classical_difference(p3, q3):
    # hyperplane cube: 1 on projective space, 2 on the quadric
    assert p3.triple(1, 1, 1) == 1
    assert q3.triple(1, 1, 1) == 2


def test_expected_dimension(p2, p3):
    assert expected_dimension(p2, (1,), 2) == 4
    assert expected_dimension(p3, (1,), 0) == 4
    assert expected_dimension(p2, (0,), 3) == 2


def test_pairing_inverse_exact():
    for name in ALL_BUILTINS:
        model = builtin_model(name)
        size = model.rank
        for i in range(size):
            for j in range(size):
                total = sum(
                    Fraction(model.pairing[i][e]) * model.pairing_inverse[e][j] for e in range(size)
                )
                assert total == (1 if i == j else 0)


def _determinant(matrix):
    if not matrix:
        return 1
    return sum(
        (-1) ** col * matrix[0][col] * _determinant([row[:col] + row[col + 1:] for row in matrix[1:]])
        for col in range(len(matrix))
    )


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
)
def test_invert_exact_property(matrix):
    size = len(matrix)
    if _determinant(matrix) == 0:
        with pytest.raises(ModelError, match="singular"):
            _invert_exact(matrix)
        return
    inverse = _invert_exact(matrix)
    for i in range(size):
        for j in range(size):
            total = sum(inverse[i][e] * matrix[e][j] for e in range(size))
            assert total == (1 if i == j else 0)


def test_invert_exact_singular():
    with pytest.raises(ModelError, match="singular"):
        _invert_exact([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


def test_duality_counts():
    for name in ALL_BUILTINS:
        model = builtin_model(name)
        for k in range(model.dimension + 1):
            low = sum(1 for c in model.codims if c == k)
            high = sum(1 for c in model.codims if c == model.dimension - k)
            assert low == high


def test_triples_fully_symmetric(q3):
    for i, j, k in permutations((1, 1, 1), 3):
        assert q3.triple(i, j, k) == 2
    for perm in permutations((0, 1, 2)):
        assert q3.triple(*perm) == 1


def test_unit_triples_match_pairing():
    for name in ALL_BUILTINS:
        model = builtin_model(name)
        for j in range(model.rank):
            for k in range(model.rank):
                assert model.triple(0, j, k) == model.pairing[j][k]


def test_product_of_lines_validates():
    model = builtin_model("p1xp1")
    assert model.divisor_count == 2
    assert model.effective_c1 == (2, 2)
    assert model.triple(0, 1, 2) == 1
    assert model.triple(1, 1, 2) == 0


def test_pr_models():
    p5 = builtin_model("p5")
    assert p5.dimension == 5
    assert p5.c1_degree((1,)) == 6
    with pytest.raises(ModelError):
        builtin_model("pr")
    with pytest.raises(ModelError):
        builtin_model("nope")
    # p and a decimal r >= 1 in ASCII digits, no leading zero, is the only spelling
    for name in ("p", "p0", "p03", "p\u00b2", "p\u0661", "p1x", "p-1", " p3", "p3 ", "p3\n"):
        with pytest.raises(ModelError, match="unknown model name"):
            builtin_model(name)


def test_round_trip(tmp_path, p2):
    path = tmp_path / "plane.json"
    save_model(p2, path)
    assert load_model(path) == p2


def test_round_trip_all_builtins(tmp_path):
    for name in ALL_BUILTINS:
        model = builtin_model(name)
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        assert load_model(path) == model


def test_asymmetric_pairing_rejected(p2):
    data = p2.to_dict()
    data["pairing"][0][1] = 1
    with pytest.raises(ModelError, match="symmetric"):
        model_from_dict(data)


def test_low_anticanonical_degree_rejected(p2):
    data = p2.to_dict()
    data["effective"][0]["c1_degree"] = 0
    with pytest.raises(ModelError, match="ample, so every curve has at least 1"):
        model_from_dict(data)


def test_unit_law_violation_rejected(p2):
    data = p2.to_dict()
    data["triples"] = [t for t in data["triples"] if (t["i"], t["j"], t["k"]) != (0, 0, 2)]
    with pytest.raises(ModelError, match="unit law"):
        model_from_dict(data)


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelError, match="parse"):
        load_model(path)


def _every_model():
    """Every built-in, the projective spaces p4, p2 and p6, and the two oracle files."""
    specs = [(name,) for name in ALL_BUILTINS] + [("p4",), ("p2",), ("p6",)]
    models = [builtin_model(*spec) for spec in specs]
    return models + [model_from_dict(P1XP2), model_from_dict(Q3_HYPERPLANE)]


def test_effective_class_enumeration(p2):
    assert effective_classes(p2, 9) == [(0,), (1,), (2,), (3,)]
    pp = builtin_model("p1xp1")
    assert (1, 1) in effective_classes(pp, 4)
    assert all(pp.c1_degree(b) <= 4 for b in effective_classes(pp, 4))
    for model in _every_model():
        ranges = [range(24 // w + 1) for w in model.effective_c1]
        for c1_max in range(25):
            brute = [b for b in product(*ranges) if model.c1_degree(b) <= c1_max]
            assert effective_classes(model, c1_max) == brute


def test_models_are_hashable_values():
    for model in _every_model():
        copy = model_from_dict(model.to_dict())
        assert copy == model and copy is not model
        assert hash(copy) == hash(model)
        assert len({model, copy}) == 1
    # one object per built-in space
    assert builtin_model("p3") is builtin_model("p3")
    assert builtin_model("p1") is builtin_model("p1")
    assert builtin_model("p12") is builtin_model("p12")


def test_model_triples_are_read_only(q3):
    with pytest.raises(TypeError):
        q3.triples[(1, 1, 1)] = 3
    assert q3.triple(1, 1, 1) == 2


def test_dimension_constraint(p2, q3):
    assert p2.dimension_matches((1,), (2,))
    assert not p2.dimension_matches((1,), (3,))
    assert q3.dimension_matches((2,), (2, 2))
    assert not q3.dimension_matches((2,), (2, 1))


def test_projective_space_names_its_dimension():
    p12 = builtin_model("p12")
    assert p12 is builtin_model("p12")
    assert p12.name == "p12"
    # the data of P^12 as it was built under its former name pr(12)
    data = p12.to_dict()
    del data["name"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == "badbba5a5b5f537cd23fbfe80ab892400d530bba1490cf6239b4ab5bd699923b"


def test_builtin_seeds():
    assert builtin_model("p1").seeds == (((1,), (), 1),)
    assert builtin_model("p5").seeds == (((1,), (0, 0, 0, 2), 1),)
    assert builtin_model("q3").seeds == (((1,), (1, 1), 1),)
    assert builtin_model("p1xp1").seeds == (((0, 1), (1,), 1), ((1, 0), (1,), 1))


def test_seedless_file_loads(p2):
    data = p2.to_dict()
    del data["seeds"]
    model = model_from_dict(data)
    assert model.seeds == ()
    assert model != p2
    assert model_from_dict(p2.to_dict()) == p2


# shapes with no divisor class: a point, and a fourfold with even codimensions only
_DIVISORLESS = {
    "point": dict(
        name="pt", dimension=0, basis_names=("T0",), codims=(0,), pairing=((1,),),
        triples={(0, 0, 0): 1}, effective_c1=(),
    ),
    "fourfold": dict(
        name="four", dimension=4, basis_names=("T0", "S", "pt"), codims=(0, 2, 4),
        pairing=((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        triples={(0, 0, 2): 1, (0, 1, 1): 1}, effective_c1=(),
    ),
}


def _as_file_data(fields):
    return {
        "name": fields["name"],
        "dimension": fields["dimension"],
        "basis": [
            {"name": name, "codim": codim}
            for name, codim in zip(fields["basis_names"], fields["codims"])
        ],
        "pairing": [list(row) for row in fields["pairing"]],
        "triples": [
            {"i": i, "j": j, "k": k, "value": value}
            for (i, j, k), value in fields["triples"].items()
        ],
        "effective": [],
    }


@pytest.mark.parametrize("shape", list(_DIVISORLESS))
def test_model_without_a_divisor_is_refused(shape):
    # curve classes are dual to the divisor classes: without one there is no curve to count
    text = "basis needs at least one class of codimension 1"
    fields = _DIVISORLESS[shape]
    with pytest.raises(ModelError, match=f"^{re.escape(text)}$"):
        FanoModel(**fields)
    with pytest.raises(ModelError, match=f"^{re.escape(text)}$"):
        model_from_dict(_as_file_data(fields))
    # the rule is checked last, so a fault reported before keeps its message
    with pytest.raises(ModelError, match="^need exactly one effective generator per divisor"):
        FanoModel(**{**fields, "effective_c1": (1,)})


def test_equality_ignores_only_the_name(p2, p3, q3):
    data = q3.to_dict()
    data["name"] = "p3"
    renamed = model_from_dict(data)
    assert renamed == q3 and q3 == renamed
    assert hash(renamed) == hash(q3)
    assert renamed.name == "p3"
    assert renamed != p3
    assert p2 != builtin_model("p1xp1")
    copy = q3.replace(name="x")
    assert copy == q3 and hash(copy) == hash(q3) and copy.name == "x"


def test_inverse_pairing_is_derived(q3):
    with pytest.raises(TypeError, match="unexpected keyword argument 'pairing_inverse'"):
        q3.replace(pairing_inverse=q3.pairing)
    assert q3.replace(name="x").pairing_inverse == q3.pairing_inverse


@pytest.mark.parametrize("triple", [(0, 0, 7), (-1, 0, 0), (0, 3, 0)])
def test_triple_index_out_of_range_rejected(p2, triple):
    data = p2.to_dict()
    data["triples"].append(dict(zip("ijk", triple), value=1))
    with pytest.raises(ModelError, match=re.escape(f"triple {triple} has an index outside 0..2")):
        model_from_dict(data)


def _seed(beta, n, value=1):
    return {"class": beta, "insertions": n, "value": value}


@pytest.mark.parametrize(
    "seeds, rule",
    [
        ([_seed([1, 0], [2])], "class and 1 insertion entries"),
        ([_seed([1], [2, 0])], "class and 1 insertion entries"),
        ([_seed([0], [2])], "non-zero class"),
        ([_seed([2], [-1])], "non-negative entries"),
        ([_seed([1], [3])], "dimension constraint"),
        ([_seed([1], [2], -1)], "non-negative integer"),
        ([_seed([1], [2], 1.5)], "non-negative integer"),
        ([_seed([1], [2], "1")], "non-negative integer"),
        ([_seed([1], [2]), _seed([1], [2])], "appears twice"),
    ],
)
def test_bad_seed_rejected(p2, seeds, rule):
    data = p2.to_dict()
    data["seeds"] = seeds
    with pytest.raises(ModelError, match=rule):
        model_from_dict(data)


def _set(data, path, value):
    *head, last = path
    for step in head:
        data = data[step]
    data[last] = value


@pytest.mark.parametrize("value", [1.9, 1.0, True, "1"])
@pytest.mark.parametrize(
    "path, field",
    [
        (("dimension",), "dimension"),
        (("basis", 1, "codim"), "codim"),
        (("pairing", 1, 1), "pairing entry"),
        (("triples", 0, "i"), "triple i"),
        (("triples", 0, "value"), "triple value"),
        (("effective", 0, "dual_divisor_index"), "dual_divisor_index"),
        (("effective", 0, "c1_degree"), "c1_degree"),
        (("seeds", 0, "class", 0), "seed class entry"),
        (("seeds", 0, "insertions", 0), "seed insertions entry"),
    ],
)
def test_model_numbers_must_be_exact_integers(p2, path, field, value):
    # int() would truncate 1.9 to 1 and read true as 1, solving another model
    data = p2.to_dict()
    _set(data, path, value)
    with pytest.raises(ModelError, match=f"^{field} must be an integer, got {value!r}$"):
        model_from_dict(data)


@pytest.mark.parametrize("field", ["basis", "pairing", "triples", "effective", "seeds"])
def test_wrong_json_type_names_its_field(p2, field):
    data = p2.to_dict()
    data[field] = 5
    text = f"malformed model data in {field}: 'int' object is not iterable"
    with pytest.raises(ModelError, match=f"^{re.escape(text)}$"):
        model_from_dict(data)


def _p2_json_named(name):
    return json.dumps({**builtin_model("p2").to_dict(), "name": name}).encode()


@pytest.mark.parametrize(
    "content, text",
    [
        (b"[" * 100000 + b"]" * 100000, "cannot parse model file {path}: maximum recursion depth"),
        (b"\xff\xfe{}", "cannot read model file {path}: 'utf-8' codec can't decode byte 0xff"),
        (b"[]", "malformed model data: expected an object, got list"),
        (b"5", "malformed model data: expected an object, got int"),
        (b"null", "malformed model data: expected an object, got NoneType"),
        (b'"x"', "malformed model data: expected an object, got str"),
        (_p2_json_named({"a": 1}), "model name {{'a': 1}} is not a string"),
        (_p2_json_named(5), "model name 5 is not a string"),
    ],
    ids=["deep-nesting", "not-utf8", "list", "int", "null", "str", "name-object", "name-number"],
)
def test_hostile_model_file_is_refused_by_rule(tmp_path, content, text):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(ModelError, match=f"^{re.escape(text.format(path=path))}"):
        load_model(path)


def test_integer_past_the_digit_cap_is_refused_by_rule(tmp_path):
    # cli.main lifts the cap for the whole process, so this test sets it
    path = tmp_path / "model.json"
    path.write_bytes(b"1" + b"0" * 4400)
    text = f"cannot parse model file {path}: Exceeds the limit (4300 digits)"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ModelError, match=f"^{re.escape(text)}"):
            load_model(path)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "field, edit",
    [
        ("basis", lambda d: d.update(basis={})),
        ("pairing", lambda d: d.update(pairing={})),
        ("triples", lambda d: d.update(triples={})),
        ("effective", lambda d: d.update(effective={})),
        ("seeds", lambda d: d.update(seeds={})),
        ("seeds", lambda d: d.update(seeds={"a": 1})),
        ("seeds", lambda d: d["seeds"][0].update({"class": {}})),
        ("seeds", lambda d: d["seeds"][0].update(insertions={"2": 1})),
    ],
    ids=["basis", "pairing", "triples", "effective", "seeds", "seeds-nonempty",
         "seed-class", "seed-insertions"],
)
def test_json_object_for_a_list_names_its_field(p2, field, edit):
    # an object iterates as its keys, so read as a list it would load "seeds": {}
    # as no seeds and report "triples": {} as a unit-law fault
    data = p2.to_dict()
    edit(data)
    text = f"malformed model data in {field}: expected a list, got an object"
    with pytest.raises(ModelError, match=f"^{re.escape(text)}$"):
        model_from_dict(data)


def _append(key, entry):
    return lambda data: data[key].append(entry)


@pytest.mark.parametrize(
    "name, edit, text",
    [
        ("p2", lambda d: d["basis"].insert(1, d["basis"].pop(2)),
         "basis must be ordered unit, divisors, higher codimension"),
        ("p2", lambda d: _set(d, ("basis", 2, "codim"), 0),
         "exactly one basis class may have codimension 0"),
        ("p2", _append("basis", {"name": "T3", "codim": 3}),
         "basis codimension exceeds the dimension"),
        ("q3", _append("basis", {"name": "T4", "codim": 2}),
         "basis counts violate duality: 1 classes in codimension 1 but 2 in codimension 2"),
        ("p2", lambda d: d["pairing"].pop(), "pairing matrix has the wrong shape"),
        ("p2", lambda d: _set(d, ("pairing", 0, 0), 1),
         "pairing must vanish off complementary codimension"),
        ("p2", _append("triples", {"i": 2, "j": 0, "k": 0, "value": 2}),
         "conflicting triple product at (0, 0, 2)"),
        ("p2", _append("triples", {"i": 1, "j": 1, "k": 1, "value": 1}),
         "triple (1, 1, 1) violates the codimension constraint"),
        ("p2", lambda d: _set(d, ("effective", 0, "dual_divisor_index"), 2),
         "dual divisor index 2 out of range"),
        ("p1xp1", lambda d: _set(d, ("effective", 1, "dual_divisor_index"), 1),
         "duplicate effective generator for divisor 1"),
        # a file lists each class's name and codim together, so only the
        # constructor can pass lists of different lengths
        ("p2", {"basis_names": ("T0",)}, "basis needs one name per class: 1 names for 3 classes"),
        # a dict name would make the model unhashable
        ("p2", {"basis_names": ("T0", {"a": 1}, "T2")},
         "basis class 1 has name {'a': 1}, not a string"),
        ("p2", lambda d: _set(d, ("basis", 1, "name"), {"a": 1}),
         "basis class 1 has name {'a': 1}, not a string"),
    ],
    ids=[
        "basis-order", "two-units", "codim-above-dimension", "duality", "pairing-shape",
        "pairing-off-codimension", "conflicting-triple", "triple-codimension",
        "dual-out-of-range", "duplicate-dual", "basis-names", "basis-name-type",
        "basis-name-type-in-file",
    ],
)
def test_structural_fault_rejected(name, edit, text):
    model = builtin_model(name)
    with pytest.raises(ModelError, match=f"^{re.escape(text)}$"):
        if isinstance(edit, dict):
            model.replace(**edit)
        else:
            data = model.to_dict()
            edit(data)
            model_from_dict(data)


@pytest.mark.parametrize(
    "changes, edit",
    [
        ({"seeds": (((1,), (5,), 1),)}, lambda d: _set(d, ("seeds",), [_seed([1], [5])])),
        ({"seeds": (((0,), (0,), 1),)}, lambda d: _set(d, ("seeds",), [_seed([0], [0])])),
        ({"pairing": ((0, 0, 1), (0, 2, 0), (1, 0, 0))}, lambda d: _set(d, ("pairing", 1, 1), 2)),
    ],
)
def test_replace_validates_like_a_file(p2, changes, edit):
    data = p2.to_dict()
    edit(data)
    with pytest.raises(ModelError) as from_file:
        model_from_dict(data)
    with pytest.raises(ModelError, match=f"^{re.escape(str(from_file.value))}$"):
        p2.replace(**changes)


def _level_keys(model, c1):
    """The keys of c1-degree c1 that meet the dimension constraint; the
    solver enumerates exactly these at each level c1 >= 1."""
    return {
        (beta, n)
        for beta in compositions(model.effective_c1, c1)
        for n in compositions(model.insertion_weights(), model.dimension + c1 - 3)
    }


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_every_model()), st.integers(0, 8), st.data())
def test_key_problem_passes_exactly_the_solver_keys(model, c1, data):
    # at c1 = 0 the zero class meets the dimension constraint on most models
    assert all((model.key_problem(*key) is None) == (c1 >= 1) for key in _level_keys(model, c1))
    p, q = model.divisor_count, len(model.nondivisor_indices)
    entry = st.integers(min_value=-1, max_value=6)
    beta = tuple(data.draw(st.lists(entry, max_size=p + 1)))
    n = tuple(data.draw(st.lists(entry, max_size=q + 1)))
    degree = model.c1_degree(beta)
    expected = degree >= 1 and (beta, n) in _level_keys(model, degree)
    assert (model.key_problem(beta, n) is None) == expected


def test_replace_copies_through_the_constructor():
    for model in _every_model():
        renamed = model.replace(name="renamed")
        assert renamed == model and hash(renamed) == hash(model) and renamed is not model
        assert renamed.name == "renamed" and renamed.pairing_inverse == model.pairing_inverse
        assert model.replace(seeds=()) != model


def test_list_arguments_build_the_same_model():
    lists = {
        "p1": dict(
            name="p1", dimension=1, basis_names=["T0", "T1"], codims=[0, 1],
            pairing=[[0, 1], [1, 0]], triples={(0, 0, 1): 1}, effective_c1=[2],
            seeds=[([1], [], 1)],
        ),
        "p2": dict(
            name="p2", dimension=2, basis_names=["T0", "T1", "T2"], codims=[0, 1, 2],
            pairing=[[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            triples={(0, 0, 2): 1, (0, 1, 1): 1}, effective_c1=[3],
            seeds=[([1], [2], 1)],
        ),
    }
    for name, fields in lists.items():
        builtin = builtin_model(name)
        built = FanoModel(**fields)
        assert built == builtin and hash(built) == hash(builtin)
        for attr in ("basis_names", "codims", "pairing", "effective_c1", "seeds"):
            copied = builtin.replace(**{attr: fields[attr]})
            assert copied == builtin and hash(copied) == hash(builtin), attr
    with pytest.raises(ModelError, match="ordered unit, divisors, higher codimension"):
        builtin_model("p2").replace(codims=[0, 2, 1])


# each formerly frozen type: how to build one, and its attributes
_VALUE_TYPES = {
    "FanoModel": (
        lambda: builtin_model("p2"),
        "name dimension basis_names codims pairing triples effective_c1 seeds pairing_inverse",
    ),
    "SeriesBounds": (
        lambda: SeriesBounds((3,), 9, 1, 8), "beta_weights max_c1 n_vars max_total min_c1"
    ),
    "GWSeries": (lambda: GWSeries(SeriesBounds((3,), 9, 1, 8), {((1,), (2,)): 5}), "bounds coeffs"),
    "GradedPoly": (lambda: GradedPoly((1, 2), {(1, 0): 3}), "degrees coeffs"),
    "BoundaryDatum": (
        lambda: BoundaryDatum(frozenset({1}), frozenset({2, 3}), (1,), (0,)), "a b beta1 beta2"
    ),
}


@pytest.mark.parametrize("kind", list(_VALUE_TYPES))
def test_value_types_refuse_assignment(kind):
    build, attrs = _VALUE_TYPES[kind]
    value = build()
    for attr in (*attrs.split(), "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, attr)


@pytest.mark.parametrize("kind", list(_VALUE_TYPES))
def test_value_types_compare_and_copy_by_value(kind):
    build, _ = _VALUE_TYPES[kind]
    value = build()
    copies = [build(), copy.copy(value)]
    if kind != "FanoModel":  # its read-only triples view can be neither pickled nor deep-copied
        copies += [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for other in copies:
        assert other == value and not other != value
        if kind in ("GWSeries", "GradedPoly"):
            with pytest.raises(TypeError, match="unhashable"):
                hash(other)
        else:
            assert hash(other) == hash(value)
