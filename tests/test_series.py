import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcalc.series import (
    GWSeries,
    GradedPoly,
    SeriesBounds,
    binomial_row,
    binomial_z,
    series_partial,
)

BOUNDS = SeriesBounds(beta_weights=(3,), max_c1=9, n_vars=1, max_total=8)
BOUNDS2 = SeriesBounds(beta_weights=(2, 2), max_c1=8, n_vars=2, max_total=5)


def test_binomial_standard():
    assert binomial_z(4, 2) == 6
    assert binomial_z(0, 0) == 1
    assert binomial_z(5, 5) == 1


def test_binomial_zero_extension():
    assert binomial_z(2, -1) == 0
    assert binomial_z(-1, 0) == 0
    assert binomial_z(3, 5) == 0


def test_binomial_row_matches_comb():
    for n in range(201):
        row = binomial_row(n)
        assert len(row) == n + 1
        assert all(row[m] == math.comb(n, m) for m in range(n + 1))


def test_binomial_row_empty_below_zero():
    # a row holds no entry outside 0 <= m <= n, where binomial_z reads 0
    for n in range(-3, 0):
        assert binomial_row(n) == []
        assert binomial_z(n, 0) == 0


def test_binomial_recursion_term():
    # the d=2, d1=1 term of the plane recursion
    d, d1 = 2, 1
    assert binomial_z(3 * d - 4, 3 * d1 - 1) == binomial_z(2, 2) == 1


def test_binomial_pascal_rule():
    # The apex (0,0) is the one exception to Pascal's rule under the
    # zero-outside-the-triangle convention: C(0,0)=1 yet both parents vanish.
    for n in range(-5, 21):
        for m in range(-5, 21):
            if (n, m) == (0, 0):
                continue
            assert binomial_z(n, m) == binomial_z(n - 1, m - 1) + binomial_z(n - 1, m)
    assert binomial_z(0, 0) == 1
    assert binomial_z(-1, -1) + binomial_z(-1, 0) == 0


def test_divided_power_square():
    # (q y^2/2!)^2 = q^2 C(4,2) y^4/4!
    a = GWSeries(BOUNDS, {((1,), (2,)): 1})
    prod = a * a
    assert prod.coeffs == {((2,), (4,)): Fraction(6)}


def test_mul_by_zero():
    a = GWSeries(BOUNDS, {((1,), (2,)): 5, ((2,), (0,)): 3})
    assert (a * GWSeries(BOUNDS)).is_zero()


def test_constant_is_unit():
    a = GWSeries(BOUNDS, {((1,), (2,)): 5, ((0,), (3,)): Fraction(1, 2)})
    one = GWSeries.constant(BOUNDS, 1)
    assert (a * one).coeffs == a.coeffs


def test_mul_truncates():
    a = GWSeries(BOUNDS, {((2,), (0,)): 1})
    b = GWSeries(BOUNDS, {((2,), (0,)): 1})
    # c1-degree would be 12 > 9: dropped
    assert (a * b).is_zero()


def test_partial_divisor_direction():
    a = GWSeries(BOUNDS, {((2,), (3,)): 7})
    d = series_partial(a, 1)
    assert d.coeffs == {((2,), (3,)): Fraction(14)}


def test_partial_nondivisor_shifts():
    a = GWSeries(BOUNDS, {((2,), (2,)): 1})
    d = series_partial(series_partial(series_partial(a, 2), 2), 2)
    assert d.is_zero()
    twice = series_partial(series_partial(a, 2), 2)
    assert twice.coeffs == {((2,), (0,)): Fraction(1)}


def test_partial_of_constant_is_zero():
    c = GWSeries.constant(BOUNDS, 5)
    assert series_partial(c, 1).is_zero()
    assert series_partial(c, 2).is_zero()


def test_partial_unknown_variable():
    with pytest.raises(ValueError):
        series_partial(GWSeries(BOUNDS), 3)
    with pytest.raises(ValueError):
        series_partial(GWSeries(BOUNDS), 0)


def test_arity_mismatch_rejected():
    a = GWSeries(BOUNDS)
    b = GWSeries(BOUNDS2)
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("value", [0.5, 2.0, 0.0, "1", None])
def test_inexact_coefficients_rejected(value):
    # a float, even an integral one, would let binary rounding into an exact
    # series; constant and scale let only int and Fraction values in
    with pytest.raises(TypeError):
        GWSeries.constant(BOUNDS, value)
    with pytest.raises(TypeError):
        GWSeries(BOUNDS, {((1,), (2,)): 1}).scale(value)


def test_int_coefficients_stay_int():
    a = GWSeries(BOUNDS, {((1,), (2,)): 3, ((0,), (1,)): -2})
    b = GWSeries.constant(BOUNDS, 5) + a.scale(2)
    for series in (a, b, a * b, series_partial(a * b, 1), series_partial(a * b, 2)):
        assert all(type(v) is int for v in series.coeffs.values())
    assert type(a.coeffs.get(((2,), (3,)), 0)) is int


def test_zero_coefficients_not_stored():
    a = GWSeries(BOUNDS, {((1,), (2,)): 1})
    b = GWSeries(BOUNDS, {((1,), (2,)): -1})
    assert (a + b).coeffs == {}


# -- randomized algebra laws -------------------------------------------------


def in_bounds(bounds, beta, n):
    return bounds.c1_degree(beta) <= bounds.max_c1 and sum(n) <= bounds.max_total


keys2 = st.tuples(
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
).filter(lambda k: in_bounds(BOUNDS2, *k))
series2 = st.dictionaries(keys2, st.integers(-4, 4).filter(bool), max_size=5).map(
    lambda terms: GWSeries(BOUNDS2, terms)
)


@settings(max_examples=60, deadline=None)
@given(series2, series2)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(series2, series2, series2)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(series2)
def test_partials_commute(a):
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert series_partial(series_partial(a, i), j) == series_partial(
                series_partial(a, j), i
            )


def _to_naive(series):
    return {
        key: Fraction(value, math.prod(math.factorial(x) for x in key[1]))
        for key, value in series.coeffs.items()
    }


def _naive_mul(a, b, bounds):
    out = {}
    for (b1, n1), v1 in a.items():
        for (b2, n2), v2 in b.items():
            beta = tuple(x + y for x, y in zip(b1, b2))
            n = tuple(x + y for x, y in zip(n1, n2))
            if not in_bounds(bounds, beta, n) or bounds.c1_degree(beta) < bounds.min_c1:
                continue
            out[(beta, n)] = out.get((beta, n), Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


@settings(max_examples=40, deadline=None)
@given(series2, series2)
def test_divided_power_matches_naive_product(a, b):
    # restrict to low total degree so the factorial dictionary stays tiny
    if any(sum(k[1]) > 3 for k in list(a.coeffs) + list(b.coeffs)):
        return
    expected = _naive_mul(_to_naive(a), _to_naive(b), BOUNDS2)
    assert _to_naive(a * b) == expected


@st.composite
def bounded_factors(draw):
    """Random bounds and two sparse series over them, with keys drawn often
    from the edge of the bounds."""
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    max_c1 = draw(st.integers(0, 7))
    bounds = SeriesBounds(
        beta_weights=weights,
        max_c1=max_c1,
        n_vars=draw(st.integers(0, 2)),
        max_total=draw(st.integers(0, 4)),
        # unfloored in about half the draws, floored anywhere up to max_c1 otherwise
        min_c1=draw(st.just(0) | st.integers(0, max_c1)),
    )
    keys = [
        (beta, n)
        for beta in itertools.product(*(range(bounds.max_c1 // w + 1) for w in weights))
        for n in itertools.product(range(bounds.max_total + 1), repeat=bounds.n_vars)
        if in_bounds(bounds, beta, n)
    ]
    # keys that no further class step, or no further variable, keeps in bounds
    edge = [
        (beta, n)
        for beta, n in keys
        if bounds.c1_degree(beta) + min(weights) > bounds.max_c1
        or (n and sum(n) == bounds.max_total)
    ]
    key = st.sampled_from(edge) | st.sampled_from(keys)
    # int factors or rational ones, never mixed within a draw
    value = draw(st.sampled_from([st.integers(-6, 6), st.fractions(-6, 6, max_denominator=5)]))

    def factor():
        return GWSeries(bounds, draw(st.dictionaries(key, value.filter(bool), max_size=8)))

    return bounds, factor(), factor()


@settings(max_examples=100, deadline=None)
@given(bounded_factors())
def test_budgeted_product_matches_all_pairs(case):
    bounds, a, b = case
    product = a * b
    assert _to_naive(product) == _naive_mul(_to_naive(a), _to_naive(b), bounds)
    factors = list(a.coeffs.values()) + list(b.coeffs.values())
    if all(type(v) is int for v in factors):
        assert all(type(v) is int for v in product.coeffs.values())
    assert all(type(v) in (int, Fraction) for v in product.coeffs.values())


# -- graded polynomials ------------------------------------------------------


def test_graded_poly_arithmetic():
    degrees = (1, 2)
    x = GradedPoly.variable(degrees, 0)
    y = GradedPoly.variable(degrees, 1)
    poly = (x + y) * (x + y)
    assert poly.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert str(poly - x.scale(3)) == "1*x1^2 + -3*x0 + 2*x0*x1 + 1*x0^2"
    assert poly.homogeneous_degree() is None
    assert (x * x).homogeneous_degree() == 2
    assert (y + x * x).homogeneous_degree() == 2


def set_var_to_zero(poly, index):
    """Specialize one variable to zero (drop every term containing it)."""
    return GradedPoly(poly.degrees, {m: c for m, c in poly.coeffs.items() if m[index] == 0})


def test_graded_poly_specialization():
    degrees = (1, 3)
    x = GradedPoly.variable(degrees, 0)
    q = GradedPoly.variable(degrees, 1)
    poly = x * x + q.scale(4)
    assert set_var_to_zero(poly, 1).coeffs == {(2, 0): 1}
    assert (poly - poly).is_zero()


def test_graded_poly_rejects_mixed_rings():
    with pytest.raises(ValueError):
        GradedPoly.variable((1,), 0) * GradedPoly.variable((1, 2), 0)
