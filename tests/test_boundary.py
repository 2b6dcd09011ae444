import pytest

from gwcalc import (
    builtin_model,
    enumerate_boundary,
    intersection_counts,
    nd_plane,
)
from gwcalc.boundary import _boundary_equivalence_checks, _brute_force_boundary
from gwcalc.engine import TableDepthError
from gwcalc.series import binomial_z


def test_four_points_no_curve_class():
    data = enumerate_boundary(4, (0,))
    assert len(data) == 3
    sides = {frozenset((tuple(sorted(x.a)), tuple(sorted(x.b)))) for x in data}
    assert sides == {
        frozenset(((1, 2), (3, 4))),
        frozenset(((1, 3), (2, 4))),
        frozenset(((1, 4), (2, 3))),
    }


def test_no_markings_degree_five():
    data = enumerate_boundary(0, (5,))
    assert [(x.beta1, x.beta2) for x in data] == [((1,), (4,)), ((2,), (3,))]


def test_no_markings_even_degree_counts_halves_once():
    data = enumerate_boundary(0, (4,))
    assert [(x.beta1, x.beta2) for x in data] == [((1,), (3,)), ((2,), (2,))]


def test_one_marking_degree_two():
    data = enumerate_boundary(1, (2,))
    assert len(data) == 1
    datum = data[0]
    assert datum.a == frozenset({1}) and datum.b == frozenset()
    assert datum.beta1 == (1,) and datum.beta2 == (1,)


def test_every_datum_satisfies_conditions():
    for n in range(0, 6):
        for d in range(0, 4):
            for datum in enumerate_boundary(n, (d,)):
                assert datum.is_valid(n, (d,))


def test_no_duplicate_data():
    for n in range(0, 6):
        for d in range(0, 4):
            data = enumerate_boundary(n, (d,))
            assert len({x.unordered() for x in data}) == len(data)


@pytest.mark.parametrize("model_name,d_top", [("p2", 4), ("p3", 3)])
def test_enumeration_matches_brute_force(model_name, d_top):
    model = builtin_model(model_name)
    for n in range(0, 9):
        for d in range(0, d_top + 1):
            beta = (d,)
            assert model.c1_degree(beta) <= 12
            fast = {x.unordered() for x in enumerate_boundary(n, beta)}
            assert fast == _brute_force_boundary(n, beta)


def test_enumeration_two_parameter_classes():
    for n in range(0, 5):
        for beta in [(1, 0), (1, 1), (2, 1)]:
            fast = {x.unordered() for x in enumerate_boundary(n, beta)}
            assert fast == _brute_force_boundary(n, beta)


def d_sum(n, beta, i, j, k, l):
    """The data of the boundary divisor D(ij|kl): ``enumerate_boundary``
    filtered to markings i, j on side a and k, l on side b.  With i = 1
    that is every such datum, since side a holds marking 1."""
    return [x for x in enumerate_boundary(n, beta) if {i, j} <= x.a and {k, l} <= x.b]


def test_d_sum_triples_partition_two_two_splits():
    for beta in [(0,), (1,), (2,)]:
        data = enumerate_boundary(4, beta)
        two_two = {x.unordered() for x in data if len(x.a) == 2}
        collected = set()
        total = 0
        for j, k, l in ((2, 3, 4), (3, 2, 4), (4, 2, 3)):
            part = {x.unordered() for x in d_sum(4, beta, 1, j, k, l)}
            assert not (collected & part)
            collected |= part
            total += len(part)
        assert collected == two_two
        assert total == len(two_two)


def test_d_sum_membership():
    for datum in d_sum(6, (2,), 1, 2, 3, 4):
        assert {1, 2} <= set(datum.a)
        assert {3, 4} <= set(datum.b)


def test_d_sum_contracted_datum_is_unique():
    data = d_sum(6, (2,), 1, 2, 3, 4)
    contracted = [
        x for x in data if x.beta1 == (0,) and x.a == frozenset({1, 2})
    ]
    assert len(contracted) == 1


def test_d_sum_partition_counts_match_binomials():
    # the itemized partition counts of the incidence-count formula
    for d in (2, 3):
        n = 3 * d
        data = d_sum(n, (d,), 1, 2, 3, 4)
        for d1 in range(1, d):
            matching = [
                x for x in data if x.beta1 == (d1,) and len(x.a) == 3 * d1 + 1
            ]
            assert len(matching) == binomial_z(3 * d - 4, 3 * d1 - 1)


def test_intersection_counts_degree_two(plane_table):
    lhs, rhs = intersection_counts(2, plane_table)
    n2 = plane_table.get((2,), (5,))
    assert lhs == n2 + 1
    assert rhs == 2
    assert lhs == rhs


def test_intersection_counts_labels_on_read(plane_table):
    # the itemized replay: the contracted side through the two line markings,
    # then one item per split d1 + d2, its value partitions * weight * N_d1 N_d2
    lhs, rhs = eager_terms(2, plane_table)
    assert [value for *_, value in lhs] == [1, 1]
    assert [value for *_, value in rhs] == [2]
    # degree 3: C(5, 5) = 1 partition of weight 2^3 * 1, C(5, 4) = 5 of weight 2^2 * 1^2
    lhs, rhs = eager_terms(3, plane_table)
    assert lhs[-1] == (2, 1, 1, 8, 8)
    assert rhs[-1] == (2, 1, 5, 4, 20)
    assert intersection_counts(3, plane_table)[0] == sum(value for *_, value in lhs) == 40


def test_intersection_counts_match_through_degree_six(plane_table):
    for d in range(2, 7):
        lhs, rhs = intersection_counts(d, plane_table)
        assert lhs == rhs, f"degree {d}"


def test_intersection_counts_forces_degree_two_count():
    # equality of the two sides pins the degree-2 count to 1
    table = nd_plane(2)
    lhs, rhs = intersection_counts(2, table)
    lhs_without_nd = lhs - table.get((2,), (5,))
    assert rhs - lhs_without_nd == 1


def test_intersection_counts_input_validation(plane_table):
    with pytest.raises(ValueError):
        intersection_counts(1, plane_table)
    with pytest.raises(TableDepthError):
        intersection_counts(3, nd_plane(2))


def eager_terms(d, table):
    """Oracle: both sides itemized over every ordered split d1 + d2."""
    def count(degree):
        return table.get((degree,), (3 * degree - 1,))

    lhs, rhs = [(0, d, 1, 1, count(d))], []
    for d1 in range(1, d):
        d2 = d - d1
        pair = count(d1) * count(d2)
        lhs_weight, rhs_weight = d1 ** 3 * d2, d1 ** 2 * d2 ** 2
        lhs_parts = binomial_z(3 * d - 4, 3 * d1 - 1)
        rhs_parts = binomial_z(3 * d - 4, 3 * d1 - 2)
        lhs.append((d1, d2, lhs_parts, lhs_weight, pair * lhs_weight * lhs_parts))
        rhs.append((d1, d2, rhs_parts, rhs_weight, pair * rhs_weight * rhs_parts))
    return tuple(lhs), tuple(rhs)


def test_paired_totals_match_the_ordered_items():
    # odd and even degrees, so the self-mirrored split d1 = d2 is covered
    table = nd_plane(60)
    for d in range(2, 61):
        totals = intersection_counts(d, table)
        items = eager_terms(d, table)
        assert totals == tuple(sum(value for *_, value in side) for side in items), d
        assert totals[0] == totals[1], d


@pytest.mark.parametrize("d", [2, 3, 4, 7, 10])
def test_boundary_equivalence_fails_at_a_raised_count(d):
    table = nd_plane(10)
    table.add((d,), (3 * d - 1,), table.get((d,), (3 * d - 1,)) + 1)
    checks = _boundary_equivalence_checks(table, 10)
    assert [name for name, ok, _ in checks if not ok][0] == f"boundary-equivalence-d{d}"

