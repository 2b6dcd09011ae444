import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcalc import (
    GWTable,
    ModelError,
    SolveError,
    TableDepthError,
    builtin_model,
    fano3_numbers,
    fano3_solve,
    gw_invariant,
    nd_plane,
    nd_plane_numbers,
    standard_seeds,
    standard_table,
    wdvv_canonical_equations,
    wdvv_count,
    wdvv_solve,
)
from gwcalc import FanoModel, engine, model_from_dict
from gwcalc.potential import build_potential, wdvv_residual
from gwcalc.series import GWSeries, binomial_z, compositions

PLANE_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}

QUADRIC_COUNTS = {
    (1, 1): 1, (3, 0): 1,
    (0, 3): 1, (2, 2): 1, (4, 1): 2, (6, 0): 5,
    (1, 4): 2, (3, 3): 5, (5, 2): 16, (7, 1): 59, (9, 0): 242,
    (0, 6): 6, (2, 5): 20, (4, 4): 74, (6, 3): 320, (8, 2): 1546,
    (10, 1): 8148, (12, 0): 46230,
    (1, 7): 106, (3, 6): 448, (5, 5): 2180, (7, 4): 11910,
    (9, 3): 71178, (11, 2): 457788, (13, 1): 3136284, (15, 0): 22731810,
}


def test_plane_counts():
    assert nd_plane_numbers(6) == PLANE_COUNTS


def test_plane_counts_symmetric_in_split_order():
    # re-derive over every ordered split, written in the opposite order, as
    # an oracle for the mirror-paired sum
    counts = {1: 1}
    for d in range(2, 121):
        total = 0
        for d2 in range(1, d):
            d1 = d - d2
            total += counts[d1] * counts[d2] * (
                d1 * d1 * d2 * d2 * binomial_z(3 * d - 4, 3 * d1 - 2)
                - d1 ** 3 * d2 * binomial_z(3 * d - 4, 3 * d1 - 1)
            )
        counts[d] = total
    assert counts == nd_plane_numbers(120)


def test_plane_requires_positive_bound():
    with pytest.raises(ValueError):
        nd_plane(0)


def test_quadric_full_published_table():
    assert fano3_numbers("q3", 5) == QUADRIC_COUNTS
    assert len(QUADRIC_COUNTS) == 26


def test_projective_threefold_values():
    counts = fano3_numbers("p3", 3)
    assert counts[(4, 0)] == 2
    assert counts[(8, 0)] == 92
    assert counts[(12, 0)] == 80160
    assert counts[(0, 2)] == 1 and counts[(2, 1)] == 1


def test_fano3_rejects_bad_input():
    with pytest.raises(ValueError):
        fano3_solve("p2", 2)
    with pytest.raises(ValueError):
        fano3_solve("q3", 0)


@pytest.mark.parametrize(
    "s3, message",
    [
        (1, "q3: non-integral value 1/2 for (2, 2) via (3)"),
        (-2, "q3: negative value -1 for (2, 2) via (3)"),
        (4, "q3: recursion (2) fails at (a,b)=(2,2): -2 != 0"),
    ],
)
def test_fano3_error_texts(monkeypatch, s3, message):
    # recursion (3) reads N_{2,2} = s3 / c off the sums, with c = 2 on q3;
    # an integral wrong value is caught by the degree's check of (2)
    one_pass = engine._fano3_sums

    def perturbed(a, b, k, known, rows):
        sums = one_pass(a, b, k, known, rows)
        return sums[:2] + (s3,) + sums[3:] if (a, b) == (2, 2) else sums

    monkeypatch.setattr(engine, "_fano3_sums", perturbed)
    with pytest.raises(SolveError) as error:
        fano3_numbers("q3", 3)
    assert str(error.value) == message


# what raising each slot's sum at (3, 3) breaks first, in the order (1)-(6);
# (3) derives N_{3,3}, so raising its sum first breaks (1)
EVERY_SUM_MESSAGES = (
    "q3: recursion (1) fails at (a,b)=(3,3): 2 != 4",
    "q3: recursion (2) fails at (a,b)=(3,3): -4 != -2",
    "q3: recursion (1) fails at (a,b)=(3,3): 0 != 2",
    "q3: recursion (4) fails at (a,b)=(3,3): 2 != 4",
    "q3: recursion (5) fails at (a,b)=(3,3): 2 != 4",
    "q3: recursion (6) fails at (a,b)=(3,3): 0 != 2",
)


@pytest.mark.parametrize("slot", range(6))
def test_fano3_every_sum_is_read(monkeypatch, slot):
    # raising recursion (slot + 1)'s sum by c = 2 at the interior point
    # (3, 3) keeps every derived value integral; a check must still fail
    one_pass = engine._fano3_sums

    def perturbed(a, b, k, known, rows):
        sums = list(one_pass(a, b, k, known, rows))
        if (a, b) == (3, 3):
            sums[slot] += 2
        return tuple(sums)

    monkeypatch.setattr(engine, "_fano3_sums", perturbed)
    with pytest.raises(SolveError) as error:
        fano3_numbers("q3", 3)
    assert str(error.value) == EVERY_SUM_MESSAGES[slot]


def test_fano3_table_keys(q3_table):
    for (beta, (a, b)), value in q3_table.entries.items():
        assert a + 2 * b == 3 * beta[0]
        assert value >= 0


def _oracle_rhs(rec, a, b, k, known):
    """One recursion's sum at (a, b), written out per recursion over the
    whole a1 x b1 grid, as an independent route to the one-pass sums."""
    d = (a + 2 * b) // k
    total = 0
    for a1 in range(a + 1):
        for b1 in range(b + 1):
            weight = a1 + 2 * b1
            if weight % k or weight == 0 or weight == k * d:
                continue
            d1 = weight // k
            d2 = d - d1
            pair = known[(a1, b1)] * known[(a - a1, b - b1)]
            if pair == 0:
                continue
            if rec == 1:
                w = binomial_z(b, b1) * (
                    d1 ** 3 * binomial_z(a - 3, a1)
                    - d1 * d1 * d2 * binomial_z(a - 3, a1 - 1)
                )
            elif rec == 2:
                w = binomial_z(a - 2, a1) * (
                    d1 ** 3 * binomial_z(b - 1, b1)
                    - d1 * d1 * d2 * binomial_z(b - 1, b1 - 1)
                )
            elif rec == 3:
                w = (
                    2 * d1 * d1 * d2 * binomial_z(a - 1, a1) * binomial_z(b - 2, b1 - 1)
                    - d1 * d1 * d2 * binomial_z(a - 1, a1 - 1) * binomial_z(b - 2, b1)
                    - d1 ** 3 * binomial_z(a - 1, a1) * binomial_z(b - 2, b1)
                )
            elif rec == 4:
                w = d1 * d1 * (
                    binomial_z(a - 3, a1) * binomial_z(b - 1, b1 - 1)
                    - binomial_z(a - 3, a1 - 1) * binomial_z(b - 1, b1)
                )
            elif rec == 5:
                w = (
                    d1 * d2 * binomial_z(a - 2, a1 - 1) * binomial_z(b - 2, b1 - 1)
                    - d1 * d2 * binomial_z(a - 2, a1 - 2) * binomial_z(b - 2, b1)
                    + d1 * d1 * binomial_z(a - 2, a1) * binomial_z(b - 2, b1 - 1)
                    - d1 * d1 * binomial_z(a - 2, a1 - 1) * binomial_z(b - 2, b1)
                )
            else:
                w = d1 * (
                    binomial_z(a - 3, a1) * binomial_z(b - 2, b1 - 2)
                    - 2 * binomial_z(a - 3, a1 - 1) * binomial_z(b - 2, b1 - 1)
                    + binomial_z(a - 3, a1 - 2) * binomial_z(b - 2, b1)
                )
            total += pair * w
    return total


# (label, condition on (a, b)) for every recursion instance the check applies
APPLICABLE = (
    (1, lambda a, b: a >= 3),
    (2, lambda a, b: a >= 2 and b >= 1),
    (3, lambda a, b: a >= 1 and b >= 2),
    (4, lambda a, b: a >= 3 and b >= 1),
    (5, lambda a, b: a >= 2 and b >= 2),
    (6, lambda a, b: a >= 3 and b >= 2),
)


@pytest.mark.parametrize("space, d_max", [("q3", 8), ("p3", 6)])
def test_fano3_sums_match_the_per_recursion_oracle(monkeypatch, space, d_max):
    computed = {}
    one_pass = engine._fano3_sums

    def recording(a, b, k, known, rows):
        computed[(a, b)] = one_pass(a, b, k, known, rows)
        return computed[(a, b)]

    monkeypatch.setattr(engine, "_fano3_sums", recording)
    known = fano3_numbers(space, d_max)
    k = builtin_model(space).effective_c1[0]
    assert set(computed) == set(known)
    instances = 0
    for (a, b), sums in computed.items():
        for rec, applies in APPLICABLE:
            if applies(a, b):
                assert sums[rec - 1] == _oracle_rhs(rec, a, b, k, known), (rec, a, b)
                instances += 1
    assert instances > len(known)


@pytest.mark.parametrize(
    "space, d_max, instances",
    [("q3", 5, 85), ("p3", 3, 40), ("q3", 24, 2450), ("p3", 16, 1457)],
)
def test_fano3_checks_every_applicable_instance(monkeypatch, space, d_max, instances):
    counts = []
    check = engine._fano3_check

    def counting(*args):
        counts.append(check(*args))
        return counts[-1]

    monkeypatch.setattr(engine, "_fano3_check", counting)
    fano3_numbers(space, d_max)
    assert len(counts) == d_max  # one check per degree
    assert sum(counts) == instances
    # the same count, read off the applicability conditions alone
    k = builtin_model(space).effective_c1[0]
    expected = sum(
        applies(a, (k * d - a) // 2)
        for d in range(1, d_max + 1)
        for a in range(k * d % 2, k * d + 1, 2)
        for _, applies in APPLICABLE
    )
    assert instances == expected


@pytest.mark.parametrize("a", range(1, 16, 2))
def test_fano3_check_catches_a_raised_top_count(monkeypatch, a):
    b = (15 - a) // 2
    check = engine._fano3_check

    def corrupting(space, d, c, known, sums):
        if d == 5:
            known[(a, b)] += 1
        return check(space, d, c, known, sums)

    monkeypatch.setattr(engine, "_fano3_check", corrupting)
    label = r"\(3\)" if a == 1 else r"\(1\)"
    with pytest.raises(SolveError, match=rf"q3: recursion {label} fails at \(a,b\)=\({a},{b}\)"):
        fano3_numbers("q3", 5)


# -- invariant evaluation ----------------------------------------------------


def test_invariant_zero_class_is_triple(p2, plane_table):
    # unit insertions reduce to the pairing; a line and a point multiply to
    # zero in the plane's cohomology
    assert gw_invariant(plane_table, (0,), [0, 1, 1]) == 1
    assert gw_invariant(plane_table, (0,), [0, 0, 2]) == 1
    assert gw_invariant(plane_table, (0,), [0, 1, 2]) == 0
    assert gw_invariant(plane_table, (0,), [1, 1, 2]) == 0
    assert gw_invariant(plane_table, (0,), [1, 1, 2, 2]) == 0


def test_invariant_unit_insertion_vanishes(p2, plane_table):
    assert gw_invariant(plane_table, (1,), [0, 2, 2]) == 0


def test_invariant_divisor_stripping(p2, plane_table):
    assert gw_invariant(plane_table, (1,), [2, 2]) == 1
    assert gw_invariant(plane_table, (1,), [1, 1, 2, 2]) == 1
    assert gw_invariant(plane_table, (2,), [1, 2, 2, 2, 2, 2]) == 2
    assert gw_invariant(plane_table, (3,), [2] * 8) == 12


def test_invariant_dimension_mismatch_is_zero(p2, plane_table):
    assert gw_invariant(plane_table, (1,), [2, 2, 2]) == 0
    assert gw_invariant(plane_table, (2,), [2, 2]) == 0


def test_invariant_permutation_symmetry(q3, q3_table):
    rng = random.Random(7)
    classes = [1, 2, 2, 3, 3]
    base = gw_invariant(q3_table, (2,), classes)
    assert base > 0
    for _ in range(10):
        shuffled = classes[:]
        rng.shuffle(shuffled)
        assert gw_invariant(q3_table, (2,), shuffled) == base


@pytest.mark.parametrize("beta", [(0,), (1,)])
@pytest.mark.parametrize("classes", [[0, 99], [99, 0], [99, 0, 1], [2, 2, -1]])
def test_invariant_checks_every_index_first(plane_table, beta, classes):
    # a unit insertion or a zero class reduces to 0 only after every index is read
    with pytest.raises(ValueError, match="out of range"):
        gw_invariant(plane_table, beta, classes)


@pytest.mark.parametrize(
    "beta, n", [((1,), (4,)), ((1, 0), (0, 2)), ((1,), (-2, 3)), ((-1,), (-4, 0)), ((0,), (0, 0))]
)
def test_table_refuses_malformed_keys(p3, beta, n):
    # the dimension constraint alone pairs the key with the weights, so a key
    # of the wrong length or with a negative entry could pass it; so does a
    # zero class, whose invariants are the classical triples, not counts
    table = GWTable(p3, 4)
    with pytest.raises(ValueError, match=re.escape(str((beta, n)))):
        table.add(beta, n, 5)
    assert not table.entries
    with pytest.raises(ValueError, match=re.escape(str((beta, n)))):
        GWTable(p3, 4, {(beta, n): 1})


def test_zero_class_key_cannot_shift_the_classical_triples():
    # y_2^3/3! at the zero class would add its value to <T2 T2 T2> = 1 on P^6
    p6 = builtin_model("p6")
    table = standard_table(p6, 7)
    key = ((0,), (3, 0, 0, 0, 0))
    assert p6.dimension_matches(*key)
    with pytest.raises(ValueError, match="non-zero class"):
        table.add(*key, 4)
    with pytest.raises(ValueError, match="non-zero class"):
        GWTable(p6, 7, {**table.entries, key: 4})
    assert build_potential(table, 7).phi(2, 2, 2).coeffs.get(((0,), (0,) * 5), 0) == 1


def test_invariant_depth_error(p2):
    table = nd_plane(2)
    with pytest.raises(TableDepthError, match="c1-degree"):
        gw_invariant(table, (3,), [2] * 8)


# -- equation counting -------------------------------------------------------


def test_equation_count_values():
    assert [wdvv_count(m) for m in range(2, 8)] == [1, 6, 21, 55, 120, 231]


def test_equation_count_closed_form():
    for m in range(1, 30):
        assert wdvv_count(m) == m * (m - 1) * (m * m - m + 2) // 8


def test_equation_count_large_rank():
    # rank 24 basis: the closed form gives 32131; the occasionally quoted
    # figure 30861 does not satisfy it.
    assert wdvv_count(23) == 32131
    assert wdvv_count(23) != 30861


def test_canonical_equations_m2():
    assert wdvv_canonical_equations(2) == [(1, 1, 2, 2)]


def test_canonical_equations_counts():
    for m in range(2, 8):
        assert len(wdvv_canonical_equations(m)) == wdvv_count(m)


def test_canonical_equations_well_formed():
    equations = wdvv_canonical_equations(4)
    assert equations == sorted(set(equations))
    for i, j, k, l in equations:
        assert i != k and j != l and 0 not in (i, j, k, l)


def _partition(a, b, c, d):
    """The pair partition {{a,b},{c,d}} as a sorted pair of sorted pairs."""
    return tuple(sorted((tuple(sorted((a, b))), tuple(sorted((c, d))))))


def test_canonical_equations_match_partition_pairs():
    # an oracle free of the 4-cycle symmetries: an equation compares two
    # distinct pair partitions of one 4-multiset, and is named by the least
    # quadruple (i, j, k, l) whose {ij|kl} and {jk|il} are that pair
    for m in range(1, 7):
        expected = []
        for multiset in itertools.combinations_with_replacement(range(1, m + 1), 4):
            orders = set(itertools.permutations(multiset))
            partitions = sorted({_partition(*quad) for quad in orders})
            for pair in itertools.combinations(partitions, 2):
                expected.append(min(
                    (i, j, k, l) for i, j, k, l in orders
                    if {_partition(i, j, k, l), _partition(j, k, i, l)} == set(pair)
                ))
        assert wdvv_canonical_equations(m) == sorted(expected)


# -- the generic solver ------------------------------------------------------


def test_solver_matches_plane_recursion(p2):
    solved = wdvv_solve(p2, standard_seeds(p2), 18)
    assert solved.entries == nd_plane(6).entries


def test_solver_matches_quadric_recursions(q3, q3_table):
    solved = wdvv_solve(q3, standard_seeds(q3), 12)
    assert solved.entries == q3_table.entries


def test_solver_matches_projective_recursions(p3):
    solved = wdvv_solve(p3, standard_seeds(p3), 12)
    assert solved.entries == fano3_solve("p3", 3).entries


def test_solver_product_of_lines():
    model = builtin_model("p1xp1")
    table = wdvv_solve(model, standard_seeds(model), 8)
    # one curve of each ruling through a point; the class (1,1) counts the
    # unique such curve through three points; pure ruling multiples miss
    # general points entirely
    assert table.get((1, 0), (1,)) == 1
    assert table.get((1, 1), (3,)) == 1
    assert table.get((2, 0), (3,)) == 0
    assert table.get((2, 2), (7,)) == 12


def test_solver_line_only_model():
    model = builtin_model("p1")
    table = wdvv_solve(model, standard_seeds(model), 6)
    assert table.entries == {((1,), ()): 1}


def test_solver_detects_contradictory_seeds(q3, p3):
    bad = GWTable(q3, 3)
    bad.add((1,), (1, 1), 1)
    bad.add((1,), (3, 0), 5)
    with pytest.raises(SolveError, match="inconsistent"):
        wdvv_solve(q3, bad, 6)
    # a wrong conic count (the true one is 0) beside four unknowns of its level
    bad = standard_seeds(p3)
    bad.add((2,), (0, 4), 2)
    with pytest.raises(SolveError, match="inconsistent"):
        wdvv_solve(p3, bad, 8)


def test_solver_names_every_free_unknown(p3):
    # without the seed, the line counts are fixed only up to one common scale
    with pytest.raises(SolveError, match="c1-degree 4") as info:
        wdvv_solve(p3, GWTable(p3, 4), 8)
    for unknown in (((1,), (0, 2)), ((1,), (2, 1)), ((1,), (4, 0))):
        assert str(unknown) in str(info.value)


# -- the level system against one-count residuals ------------------------------


def _one_count_system(known, level, quads):
    """A level's unknowns and rows built from residual sweeps: an unknown's
    column is the residual of the potential holding that count alone at
    value 1, the constant column the residual of the known counts."""
    model = known.model
    unknowns = [
        (beta, n)
        for beta in sorted(compositions(model.effective_c1, level))
        for n in compositions(model.insertion_weights(), model.dimension + level - 3)
        if (beta, n) not in known.entries
    ]
    tables = [GWTable(model, level, {key: 1}) for key in unknowns] + [known]
    rows = {}
    for col, table in enumerate(tables):
        bundle = build_potential(table, level)
        for quad in quads:
            for key, value in wdvv_residual(bundle, *quad).coeffs.items():
                if model.c1_degree(key[0]) == level:
                    rows.setdefault((quad, key), {})[col] = value
    return unknowns, rows


def _model_file(name):
    """The model data of a file from ``test_oracles``, loaded when called."""
    import test_oracles

    return lambda: model_from_dict(getattr(test_oracles, name))


@pytest.mark.parametrize(
    "make, c1_max",
    [
        (lambda: builtin_model("p3"), 16),
        (lambda: builtin_model("q3"), 12),
        (lambda: builtin_model("p1xp1"), 10),
        (lambda: builtin_model("p4"), 15),
        (_model_file("P1XP2"), 8),
        (_model_file("Q3_HYPERPLANE"), 9),
    ],
    ids=["p3", "q3", "p1xp1", "p4", "p1xp2", "q3h"],
)
def test_level_rows_match_one_count_residuals(monkeypatch, make, c1_max):
    model = make()
    direct = engine._level_system
    constants = []

    def both(known, level, quads):
        unknowns, rows = direct(known, level, quads)
        assert (unknowns, rows) == _one_count_system(known, level, quads)
        constants.append(sum(len(unknowns) in row for row in rows.values()))
        return unknowns, rows

    monkeypatch.setattr(engine, "_level_system", both)
    solved = wdvv_solve(model, standard_seeds(model), c1_max)
    monkeypatch.undo()
    assert solved.entries == wdvv_solve(model, standard_seeds(model), c1_max).entries
    # lower counts reach the constant column of later levels
    assert any(constants[1:])


def test_constant_column_products_stay_on_the_level(monkeypatch, p3):
    # lower levels are solved and verified, so the constant column needs
    # products only at the level's own keys
    multiply = GWSeries.__mul__
    calls = []

    def recording(left, right):
        calls.append((left.bounds.min_c1, left.bounds.max_c1))
        return multiply(left, right)

    monkeypatch.setattr(GWSeries, "__mul__", recording)
    wdvv_solve(p3, standard_seeds(p3), 12)
    assert calls and all(floor == level for floor, level in calls)


@pytest.mark.parametrize(
    "space, seeds, c1_max",
    [
        ("q3", [((1,), (1, 1), 1), ((1,), (3, 0), 5)], 6),
        # a wrong conic count (the true one is 0) beside four unknowns of its level
        ("p3", [((1,), (0, 2), 1), ((2,), (0, 4), 2)], 8),
    ],
)
def test_contradictory_seeds_fail_alike_on_both_routes(monkeypatch, space, seeds, c1_max):
    model = builtin_model(space)
    bad = GWTable(model, c1_max)
    for beta, n, value in seeds:
        bad.add(beta, n, value)
    with pytest.raises(SolveError, match="inconsistent") as direct:
        wdvv_solve(model, bad, c1_max)
    monkeypatch.setattr(engine, "_level_system", _one_count_system)
    with pytest.raises(SolveError) as one_count:
        wdvv_solve(model, bad, c1_max)
    assert str(direct.value) == str(one_count.value)
    assert "equation (" in str(direct.value) and "at key ((" in str(direct.value)


def test_solver_product_of_lines_published_counts():
    # bidegrees (1,1), (1,2), (2,2), (2,3), (3,3) through 2a + 2b - 1 points
    # (Di Francesco-Itzykson, hep-th/9412175)
    model = builtin_model("p1xp1")
    table = wdvv_solve(model, standard_seeds(model), 12)
    bidegrees = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    counts = {beta: table.get(beta, (2 * sum(beta) - 1,)) for beta in bidegrees}
    assert counts == {(1, 1): 1, (1, 2): 1, (2, 2): 12, (2, 3): 96, (3, 3): 3510}
    assert table.get((2, 1), (5,)) == 1 and table.get((3, 2), (9,)) == 96


def test_solver_rejects_foreign_seeds(p2, q3):
    with pytest.raises(ValueError):
        wdvv_solve(p2, standard_seeds(q3), 6)


def test_solver_takes_seeds_of_equal_data_under_another_name(q3):
    renamed = model_from_dict({**q3.to_dict(), "name": "quadric"})
    table = wdvv_solve(q3, standard_seeds(renamed), 6)
    assert table.entries == fano3_solve("q3", 2).entries


def test_standard_table_routes(p2, q3):
    assert standard_table(p2, 9).entries == nd_plane(3).entries
    assert standard_table(q3, 6).entries == fano3_solve("q3", 2).entries
    p4 = builtin_model("p4")
    table = standard_table(p4, 5)
    assert table.get((1,), (0, 0, 2)) == 1
    assert table.get((1,), (1, 1, 1)) == 1
    assert table.get((1,), (0, 3, 0)) == 1


@pytest.mark.parametrize("name", ["p2", "p3", "q3"])
def test_standard_table_covers_exactly_the_request(name):
    model = builtin_model(name)
    step = model.effective_c1[0]
    for c1_max in (step - 1, step + 1, 2 * step - 1, 2 * step + 1):
        table = standard_table(model, c1_max)
        assert table.c1_max == c1_max
        assert all(model.c1_degree(beta) <= c1_max for beta, _ in table.entries)
        # every degree the request reaches is still there
        degrees = {beta[0] for beta, _ in table.entries}
        assert degrees == set(range(1, c1_max // step + 1))


@pytest.mark.parametrize("r", [10, 12])
def test_standard_seeds_large_projective_spaces(r):
    # a projective space above p9 once fell through the name-keyed seed table
    model = builtin_model(f"p{r}")
    point = (0,) * (r - 2) + (2,)
    assert standard_seeds(model).entries == {((1,), point): 1}


def test_standard_seeds_need_model_seeds(p2):
    with pytest.raises(ModelError, match="carries no seeds"):
        standard_seeds(p2.replace(seeds=()))


_SPECS = [("p1",), ("p2",), ("p3",), ("q3",), ("p1xp1",), ("p4",)]


@pytest.fixture(scope="module")
def builtin_tables():
    tables = {}
    for spec in _SPECS:
        model = builtin_model(*spec)
        tables[spec] = standard_table(model, 2 * model.dimension).entries
    return tables


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SPECS), st.text(max_size=8))
def test_standard_table_ignores_the_name(builtin_tables, spec, name):
    renamed = builtin_model(*spec).replace(name=name)
    table = standard_table(renamed, 2 * renamed.dimension)
    assert table.model is renamed
    assert table.entries == builtin_tables[spec]


@pytest.mark.parametrize("space", ["p2", "p3", "q3"])
def test_standard_table_checks_each_recursion_key_once(monkeypatch, space):
    # the recursion runs on the built-in model; its keys are checked again on
    # the caller's model as the returned table is built
    checked = set()
    key_problem = FanoModel.key_problem

    def recording(self, beta, n):
        if self is renamed:
            checked.add((beta, n))
        return key_problem(self, beta, n)

    renamed = builtin_model(space).replace(name="renamed")
    monkeypatch.setattr(FanoModel, "key_problem", recording)
    table = standard_table(renamed, 12)
    assert table.model is renamed and table.entries
    assert set(table.entries) <= checked
