"""Acceptance gate: one test per shipped criterion, exact arithmetic, zero
tolerance throughout.  Each test prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream)."""

from fractions import Fraction

import pytest

from gwcalc import (
    GradedPoly,
    big_associator,
    big_product,
    build_potential,
    builtin_model,
    enumerate_boundary,
    fano3_numbers,
    fano3_solve,
    grassmannian_presentation,
    intersection_counts,
    nd_plane,
    nd_plane_numbers,
    presentation_from_big,
    s_r_determinant,
    small_ring,
    standard_seeds,
    standard_table,
    wdvv_canonical_equations,
    wdvv_count,
    wdvv_solve,
)
from gwcalc.boundary import _brute_force_boundary
from gwcalc.series import GWSeries, binomial_z


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_01_plane_curve_table():
    counts = nd_plane_numbers(10)
    expected = {2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}
    ok = all(counts[d] == v for d, v in expected.items())
    # extension to degree 10: exact integers, and the splitting sum gives the
    # same value when accumulated in the reverse order
    reversed_counts = {1: 1}
    for d in range(2, 11):
        total = 0
        for d2 in range(1, d):
            d1 = d - d2
            total += reversed_counts[d1] * reversed_counts[d2] * (
                d1 * d1 * d2 * d2 * binomial_z(3 * d - 4, 3 * d1 - 2)
                - d1 ** 3 * d2 * binomial_z(3 * d - 4, 3 * d1 - 1)
            )
        reversed_counts[d] = total
    ok = ok and counts == reversed_counts
    ok = ok and all(isinstance(v, int) and v > 0 for v in counts.values())
    report("01 plane-curve table through degree 10", ok)


QUADRIC_PUBLISHED = {
    (1, 1): 1, (3, 0): 1,
    (0, 3): 1, (2, 2): 1, (4, 1): 2, (6, 0): 5,
    (1, 4): 2, (3, 3): 5, (5, 2): 16, (7, 1): 59, (9, 0): 242,
    (0, 6): 6, (2, 5): 20, (4, 4): 74, (6, 3): 320, (8, 2): 1546,
    (10, 1): 8148, (12, 0): 46230,
    (1, 7): 106, (3, 6): 448, (5, 5): 2180, (7, 4): 11910,
    (9, 3): 71178, (11, 2): 457788, (13, 1): 3136284, (15, 0): 22731810,
}


def test_criterion_02_quadric_table():
    # fano3_numbers cross-checks every value against every applicable
    # recursion internally; completing without error is part of the criterion
    counts = fano3_numbers("q3", 5)
    ok = counts == QUADRIC_PUBLISHED and len(QUADRIC_PUBLISHED) == 26
    report("02 quadric threefold table, 26 values through degree 5", ok)


def test_criterion_03_projective_threefold():
    counts = fano3_numbers("p3", 3)
    ok = (
        counts[(4, 0)] == 2
        and counts[(8, 0)] == 92
        and counts[(12, 0)] == 80160
    )
    report("03 projective threefold line/conic/twisted-cubic counts", ok)


def test_criterion_04_equation_count():
    ok = [wdvv_count(m) for m in range(2, 8)] == [1, 6, 21, 55, 120, 231]
    ok = ok and all(
        len(wdvv_canonical_equations(m)) == wdvv_count(m) for m in range(2, 8)
    )
    # rank-24 case: the closed form gives 32131, not the occasionally quoted
    # 30861; the formula value is authoritative here
    ok = ok and wdvv_count(23) == 32131 and wdvv_count(23) != 30861
    report("04 equation counts and canonical classes", ok)


def test_criterion_05_residual_suite():
    from gwcalc.potential import wdvv_residual

    ok = True
    for model_name, table, c1_max in (
        ("p2", nd_plane(6), 18),
        ("p3", fano3_solve("p3", 4), 16),
        ("q3", fano3_solve("q3", 4), 12),
    ):
        model = builtin_model(model_name)
        bundle = build_potential(table, c1_max)
        for quad in wdvv_canonical_equations(model.top_index):
            residual = wdvv_residual(bundle, *quad)
            if not residual.is_zero():
                ok = False
    report("05 associativity residuals vanish on the whole truncation box", ok)


def test_criterion_06_cross_solver_oracle():
    p2 = builtin_model("p2")
    q3 = builtin_model("q3")
    p3 = builtin_model("p3")
    ok = wdvv_solve(p2, standard_seeds(p2), 18).entries == nd_plane(6).entries
    ok = ok and wdvv_solve(q3, standard_seeds(q3), 12).entries == fano3_solve("q3", 4).entries
    ok = ok and wdvv_solve(p3, standard_seeds(p3), 16).entries == fano3_solve("p3", 4).entries
    report("06 generic solver reproduces the dedicated recursions", ok)


def test_criterion_07_ring_laws():
    ok = True
    for model_name, table, c1_max in (
        ("p2", nd_plane(5), 15),
        ("p3", fano3_solve("p3", 3), 12),
        ("q3", fano3_solve("q3", 3), 9),
    ):
        model = builtin_model(model_name)
        bundle = build_potential(table, c1_max)
        rank = model.rank
        for j in range(rank):
            product = big_product(bundle, 0, j)
            for f, series in product.items():
                if series != GWSeries.constant(bundle.bounds, 1 if f == j else 0):
                    ok = False
        for i in range(rank):
            for j in range(rank):
                li = big_product(bundle, i, j)
                ri = big_product(bundle, j, i)
                if any(li[f].coeffs != ri[f].coeffs for f in range(rank)):
                    ok = False
        for i in range(1, rank):
            for j in range(1, rank):
                for k in range(1, rank):
                    residual = big_associator(bundle, i, j, k)
                    if not all(s.is_zero() for s in residual.values()):
                        ok = False
        if model_name == "p2":
            # the cubic holds in any potential, so this raises only if the big
            # product is wrong; the associators above decide that it presents
            # the ring
            presentation_from_big(bundle)
    report("07 big-ring laws and the plane cubic", ok)


def test_criterion_08_small_rings():
    ok = True
    for r in (1, 2, 3, 4):
        model = builtin_model(f"p{r}")
        ring = small_ring(standard_table(model, 2 * r))
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                expansion = {
                    f: poly for f, poly in ring.product(i, j).items() if not poly.is_zero()
                }
                if i + j <= r:
                    if list(expansion) != [i + j] or expansion[i + j].coeffs != {(0,): 1}:
                        ok = False
                elif list(expansion) != [i + j - r - 1] or expansion[
                    i + j - r - 1
                ].coeffs != {(1,): 1}:
                    ok = False
        power = {f: p for f, p in ring.basis_power(1, r + 1).items() if not p.is_zero()}
        if list(power) != [0] or power[0].coeffs != {(1,): 1}:
            ok = False
        for (i, j), expansion in ring.constants.items():
            for f in range(model.rank):
                cup = sum(
                    Fraction(model.triple(i, j, e)) * model.pairing_inverse[e][f]
                    for e in range(model.rank)
                )
                if expansion[f].coeffs.get((0,), 0) != cup:
                    ok = False
    # Grassmannian of planes in 4-space
    ideal = grassmannian_presentation(2, 4)  # raises on any rank defect
    # quotient rank over the parameter: strip the period-4 repetition
    rank = sum(
        ideal.rank(d) - (ideal.rank(d - 4) if d >= 4 else 0) for d in range(5)
    )
    ok = ok and rank == 6
    s1, s2, q = ideal.variable(0), ideal.variable(1), ideal.variable(2)
    ok = ok and ideal.normal_form(s_r_determinant(2, 4, 3)).is_zero()
    top = ideal.normal_form(s_r_determinant(2, 4, 4))
    ok = ok and all(mono[2] for mono in top.coeffs)  # no q-free term
    identity = s_r_determinant(2, 4, 4)
    sign = -1
    for i in range(1, 3):
        sigma = GradedPoly.variable(identity.degrees, i - 1)
        identity = identity + (s_r_determinant(2, 4, 4 - i) * sigma).scale(sign)
        sign = -sign
    ok = ok and identity.is_zero()
    ok = ok and ideal.normal_form(s2 * (s1 * s1 - s2)) == ideal.normal_form(q)
    report("08 small rings: projective spaces and the Grassmannian", ok)


def test_criterion_09_boundary_equivalence():
    table = nd_plane(6)
    ok = all(lhs == rhs for lhs, rhs in (intersection_counts(d, table) for d in range(2, 7)))
    report("09 boundary linear equivalence reproduces the recursion", ok)


def test_criterion_10_enumeration_oracle():
    ok = True
    for model_name in ("p2", "p3"):
        model = builtin_model(model_name)
        line_degree = model.effective_c1[0]
        for n in range(0, 9):
            for d in range(0, 12 // line_degree + 1):
                beta = (d,)
                fast = {x.unordered() for x in enumerate_boundary(n, beta)}
                if fast != _brute_force_boundary(n, beta):
                    ok = False
    report("10 boundary enumeration matches brute force", ok)
