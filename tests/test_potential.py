import itertools
import random

import pytest

from gwcalc import (
    GWTable,
    big_associator,
    build_potential,
    builtin_model,
    f_bracket,
    g_bracket,
    model_from_dict,
    standard_seeds,
    standard_table,
    wdvv_canonical_equations,
    wdvv_residual,
    wdvv_solve,
)
from gwcalc.series import GWSeries, SeriesBounds
from test_model import effective_classes


def test_gamma_coefficients_are_counts(plane_potential):
    gamma = plane_potential.gamma
    assert gamma.coeffs.get(((1,), (2,)), 0) == 1
    assert gamma.coeffs.get(((3,), (8,)), 0) == 12
    assert gamma.coeffs.get(((1,), (1,)), 0) == 0


def test_empty_table_gives_classical_potential(p2):
    bundle = build_potential(GWTable(p2, 6), 6)
    assert bundle.gamma.is_zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                phi = bundle.phi(i, j, k)
                assert phi == GWSeries.constant(bundle.bounds, p2.triple(i, j, k))


def test_third_partial_display(plane_potential):
    # d^2/dy1^2 d/dy2 picks up d^2 and one exponent shift
    g112 = plane_potential.gamma_partial(1, 1, 2)
    assert g112.coeffs.get(((1,), (1,)), 0) == 1
    assert g112.coeffs.get(((2,), (4,)), 0) == 4
    g222 = plane_potential.gamma_partial(2, 2, 2)
    assert g222.coeffs.get(((2,), (2,)), 0) == 1


def test_phi_symmetry(q3_potential):
    for i in range(4):
        for j in range(4):
            for k in range(4):
                base = q3_potential.phi(i, j, k)
                assert q3_potential.phi(k, j, i) == base
                assert q3_potential.phi(j, k, i) == base


def test_phi_with_unit_index_is_pairing(q3, q3_potential):
    for j in range(4):
        for k in range(4):
            assert q3_potential.phi(0, j, k) == GWSeries.constant(
                q3_potential.bounds, q3.pairing[j][k]
            )


@pytest.mark.parametrize("name, c1_max", [("p2", 9), ("p3", 12), ("q3", 9), ("p1xp1", 6)])
def test_unimodular_models_keep_int_coefficients(name, c1_max):
    # every built-in pairing is unimodular, so no Fraction may enter the
    # third partials, the cached big products and brackets or the residuals
    model = builtin_model(name)
    table = standard_table(model, c1_max)
    bundle = build_potential(table, c1_max)
    nonzero = range(1, model.rank)
    for i, j, k in itertools.product(nonzero, repeat=3):
        big_associator(bundle, i, j, k)
    top = max(key for key in table.entries if model.c1_degree(key[0]) == c1_max)
    entries = {**table.entries, top: table.entries[top] + 1}
    raised = build_potential(GWTable(model, c1_max, entries), c1_max)
    residuals = [
        wdvv_residual(potential, *quad)
        for potential in (bundle, raised)
        for quad in wdvv_canonical_equations(model.top_index)
    ]
    assert bundle._brackets
    series = [
        *bundle._phi.values(),
        *(s for expansion in bundle._products.values() for s in expansion.values()),
        *bundle._brackets.values(),
        *residuals,
    ]
    values = [v for s in series for v in s.coeffs.values()]
    assert values and all(type(v) is int for v in values)
    assert any(not r.is_zero() for r in residuals)


@pytest.mark.parametrize(
    "name, max_c1, bounds",
    [
        # dim + max_c1 - 3 is negative on p1 below c1 = 2, and the cap is 0
        ("p1", 0, SeriesBounds((2,), 0, 0, 0)),
        ("p1", 1, SeriesBounds((2,), 1, 0, 0)),
        ("p1", 2, SeriesBounds((2,), 2, 0, 0)),
        ("p2", 6, SeriesBounds((3,), 6, 1, 5)),
        ("q3", 6, SeriesBounds((3,), 6, 2, 6)),
        ("p1xp1", 4, SeriesBounds((2, 2), 4, 1, 3)),
    ],
)
def test_series_box_follows_the_grading(name, max_c1, bounds):
    model = builtin_model(name)
    assert build_potential(standard_table(model, max_c1), max_c1).bounds == bounds


def test_bounds_must_be_covered(p2, plane_table):
    with pytest.raises(ValueError, match="coverage"):
        build_potential(plane_table, 21)


def test_f_bracket_unit_contraction(q3, q3_potential):
    for j in range(4):
        for k in range(4):
            for l in range(4):
                series = f_bracket(q3_potential, 0, j, k, l)
                assert series.coeffs.get(((0,), (0, 0)), 0) == q3.triple(j, k, l)


def test_plane_coefficient_identity(plane_potential):
    # the point-direction triple partial equals the bracket difference
    g111 = plane_potential.gamma_partial(1, 1, 1)
    g112 = plane_potential.gamma_partial(1, 1, 2)
    g122 = plane_potential.gamma_partial(1, 2, 2)
    g222 = plane_potential.gamma_partial(2, 2, 2)
    residual = g222 - (g112 * g112 - g111 * g122)
    assert residual.is_zero()
    assert (g112 * g112).coeffs.get(((2,), (2,)), 0) == 2


def test_plane_residual_vanishes(plane_potential):
    residual = wdvv_residual(plane_potential, 1, 1, 2, 2)
    assert residual.is_zero()


def test_residual_trivial_when_outer_indices_repeat(q3_potential):
    assert wdvv_residual(q3_potential, 1, 2, 1, 3).is_zero()
    assert wdvv_residual(q3_potential, 2, 1, 3, 1).is_zero()
    assert wdvv_residual(q3_potential, 0, 1, 2, 3).is_zero()


def test_residual_antisymmetry(q3_potential):
    for i, j, k, l in [(1, 2, 3, 1), (1, 1, 2, 3), (2, 1, 3, 2)]:
        forward = wdvv_residual(q3_potential, i, j, k, l)
        backward = wdvv_residual(q3_potential, k, j, i, l)
        assert backward == forward.scale(-1)


def test_threefold_residual_suites(p3_potential, q3_potential):
    for bundle in (p3_potential, q3_potential):
        for quad in wdvv_canonical_equations(3):
            assert wdvv_residual(bundle, *quad).is_zero()


def test_solved_product_of_lines_residuals():
    model = builtin_model("p1xp1")
    table = wdvv_solve(model, standard_seeds(model), 8)
    bundle = build_potential(table, 8)
    for quad in wdvv_canonical_equations(3):
        assert wdvv_residual(bundle, *quad).is_zero()


# -- boundary sums -----------------------------------------------------------


def test_boundary_sum_degree_two(p2, plane_table):
    # two line conditions, four point conditions at degree 2
    classes = [1, 1, 2, 2, 2, 2]
    n2 = plane_table.get((2,), (5,))
    same_side = g_bracket(plane_table, (2,), classes, 1, 2, 3, 4)
    crossed = g_bracket(plane_table, (2,), classes, 1, 3, 2, 4)
    assert same_side == n2 + 1
    assert crossed == 2
    assert same_side == crossed


def test_boundary_sum_zero_class_reduces_to_triples(p2, plane_table):
    classes = [1, 1, 0, 0]
    lhs = g_bracket(plane_table, (0,), classes, 1, 2, 3, 4)
    rhs = g_bracket(plane_table, (0,), classes, 2, 3, 1, 4)
    assert lhs == rhs == 1


def test_boundary_sum_degree_three_equivalence(p2, plane_table):
    classes = [1, 1, 2, 2] + [2] * 5
    lhs = g_bracket(plane_table, (3,), classes, 1, 2, 3, 4)
    rhs = g_bracket(plane_table, (3,), classes, 2, 3, 1, 4)
    assert lhs == rhs


def test_boundary_sum_requires_distinct_positions(p2, plane_table):
    with pytest.raises(ValueError):
        g_bracket(plane_table, (1,), [2, 2, 1, 1], 1, 1, 2, 3)


def _random_instances(model, table, degree_choices, rng, count=20):
    out = []
    rank = model.rank
    while len(out) < count:
        beta = rng.choice(degree_choices)
        n = rng.randint(4, 6)
        classes = [rng.randint(1, rank - 1) for _ in range(n)]
        total = sum(model.codims[c] for c in classes)
        expected = model.dimension + model.c1_degree(beta) + n - 3 - 1
        if total != expected:
            continue
        positions = rng.sample(range(1, n + 1), 4)
        out.append((beta, classes, positions))
    return out


def test_boundary_sum_equivalence_randomized(p2, plane_table, p3, p3_table, q3, q3_table):
    rng = random.Random(2024)
    for model, table, degrees in (
        (p2, plane_table, [(1,), (2,), (3,)]),
        (p3, p3_table, [(1,), (2,)]),
        (q3, q3_table, [(1,), (2,)]),
    ):
        for beta, classes, (q, r, s, t) in _random_instances(model, table, degrees, rng):
            assert g_bracket(table, beta, classes, q, r, s, t) == g_bracket(
                table, beta, classes, r, s, q, t
            )


# -- the pointwise route as an oracle of the series brackets -----------------


def _bracket_oracle(model, table, c1_max):
    """Compare every coefficient of every bracket F(i,j|k,l), i..l >= 1, with
    the boundary sum over the same markings; return the number of
    dimension-matching keys compared and of other keys found zero."""
    bundle = build_potential(table, c1_max)
    total = bundle.bounds.max_total
    keys = [
        (beta, n)
        for beta in effective_classes(model, c1_max)
        for n in itertools.product(range(total + 1), repeat=bundle.bounds.n_vars)
        if sum(n) <= total
    ]
    compared = zeros = 0
    for quad in itertools.product(range(1, model.rank), repeat=4):
        bracket = f_bracket(bundle, *quad)
        for beta, n in keys:
            classes = list(quad)
            for index, count in zip(model.nondivisor_indices, n):
                classes += [index] * count
            coefficient = bracket.coeffs.get((beta, n), 0)
            codim = sum(model.codims[x] for x in classes)
            if codim == model.dimension + model.c1_degree(beta) + len(classes) - 4:
                expected = g_bracket(table, beta, classes, 1, 2, 3, 4)
                assert coefficient == expected, (quad, beta, n)
                compared += 1
            else:
                assert coefficient == 0, (quad, beta, n)
                zeros += 1
    return compared, zeros


@pytest.mark.parametrize(
    "spec, c1_max, counts",
    [
        (("p2",), 8, (21, 363)),
        (("p3",), 8, (218, 10717)),
        (("q3",), 8, (118, 10817)),
        (("p1xp1",), 6, (572, 4288)),
        (("file", "P1XP2"), 3, (416, 37084)),
        (("file", "Q3_HYPERPLANE"), 6, (118, 6686)),
        (("raised", "q3"), 6, (118, 6686)),
    ],
    ids=["p2", "p3", "q3", "p1xp1", "p1xp2", "q3h", "q3-raised"],
)
def test_brackets_match_boundary_sums(spec, c1_max, counts):
    # F(i,j|k,l) = sum_{e,f} phi_ije g^ef phi_fkl, read coefficientwise, is
    # the boundary sum g_bracket over markings i,j | k,l plus n's insertions;
    # the identity holds on any table, so a raised count must not break it
    if spec[0] == "file":
        import test_oracles

        model = model_from_dict(getattr(test_oracles, spec[1]))
        table = standard_table(model, c1_max)
    elif spec[0] == "raised":
        # one more conic through two lines and two points
        model = builtin_model(spec[1])
        entries = dict(standard_table(model, c1_max).entries)
        entries[((2,), (2, 2))] += 1
        table = GWTable(model, c1_max, entries)
        assert not wdvv_residual(build_potential(table, c1_max), 1, 2, 2, 3).is_zero()
    else:
        model = builtin_model(*spec)
        table = standard_table(model, c1_max)
    assert _bracket_oracle(model, table, c1_max) == counts
