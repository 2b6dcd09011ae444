"""Models that are not built in, written out as model data and run through
the generic solver; their counts are checked against independent values."""

import functools
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcalc import FanoModel, builtin_model, model_from_dict, nd_plane_numbers
from gwcalc.cli import main
from gwcalc.engine import (
    GWTable, _wdvv_checks, gw_invariant, standard_seeds, standard_table, wdvv_solve,
)
from gwcalc.potential import build_potential
from gwcalc.qring import PresentationIdeal, grassmannian_presentation, small_ring
from gwcalc.series import GradedPoly
from test_series import set_var_to_zero

# P^1 x P^2 in the basis 1, h1, h2, h1*h2, h2^2, pt.  The seeds: one line of
# the P^1 ruling through a point, one line of a P^2 fiber through a point and
# a curve of class h2^2.
P1XP2 = {
    "name": "p1xp2",
    "dimension": 3,
    "basis": [
        {"name": name, "codim": codim}
        for name, codim in [("1", 0), ("h1", 1), ("h2", 1), ("h1h2", 2), ("h2^2", 2), ("pt", 3)]
    ],
    "pairing": [[int(i + j == 5) for j in range(6)] for i in range(6)],
    "triples": [
        {"i": 0, "j": 0, "k": 5, "value": 1},
        {"i": 0, "j": 1, "k": 4, "value": 1},
        {"i": 0, "j": 2, "k": 3, "value": 1},
        {"i": 1, "j": 2, "k": 2, "value": 1},
    ],
    "effective": [
        {"dual_divisor_index": 1, "c1_degree": 2},
        {"dual_divisor_index": 2, "c1_degree": 3},
    ],
    "seeds": [
        {"class": [1, 0], "insertions": [0, 0, 1], "value": 1},
        {"class": [0, 1], "insertions": [0, 1, 1], "value": 1},
    ],
}


# The quadric threefold in the basis 1, H, H^2, pt.  H^2 is twice the line
# class of the built-in model, so H.H^2 = 2: the pairing is not unimodular,
# g^-1 holds entries 1/2, and every series product goes through Fractions.
# The seed is the built-in line count with its H^2 insertion doubled.
Q3_HYPERPLANE = {
    "name": "q3h",
    "dimension": 3,
    "basis": [
        {"name": name, "codim": codim}
        for name, codim in [("1", 0), ("H", 1), ("H^2", 2), ("pt", 3)]
    ],
    "pairing": [[0, 0, 0, 1], [0, 0, 2, 0], [0, 2, 0, 0], [1, 0, 0, 0]],
    "triples": [
        {"i": 0, "j": 0, "k": 3, "value": 1},
        {"i": 0, "j": 1, "k": 2, "value": 2},
        {"i": 1, "j": 1, "k": 1, "value": 2},
    ],
    "effective": [{"dual_divisor_index": 1, "c1_degree": 3}],
    "seeds": [{"class": [1], "insertions": [1, 1], "value": 2}],
}


# Two blow-ups of the plane, where the exceptional curve E has c1.E = 1.
# F_1 in the basis 1, F, H, pt (F the fiber H - E): the generators are E,
# dual to F, and F, dual to H, so dH is the class (d, d) and dH - E is
# (d - 1, d).  The seeds: the one curve E, and one fiber through a point.
F1 = {
    "name": "f1",
    "dimension": 2,
    "basis": [
        {"name": name, "codim": codim}
        for name, codim in [("T0", 0), ("F", 1), ("H", 1), ("pt", 2)]
    ],
    "pairing": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 0]],
    "triples": [
        {"i": 0, "j": 0, "k": 3, "value": 1},
        {"i": 0, "j": 1, "k": 2, "value": 1},
        {"i": 0, "j": 2, "k": 2, "value": 1},
    ],
    "effective": [
        {"dual_divisor_index": 1, "c1_degree": 1},
        {"dual_divisor_index": 2, "c1_degree": 2},
    ],
    "seeds": [
        {"class": [1, 0], "insertions": [0], "value": 1},
        {"class": [0, 1], "insertions": [1], "value": 1},
    ],
}


# The plane blown up in two points, in the basis 1, H - E1, H - E2, H, pt:
# the generators E1, E2 and H - E1 - E2, each with c1 = 1, are dual to the
# three divisors in order, so dH is (d, d, d), dH - E1 is (d - 1, d, d) and
# dH - E1 - E2 is (d - 1, d - 1, d).  Each generator is one rigid curve.
BL2P2 = {
    "name": "bl2p2",
    "dimension": 2,
    "basis": [
        {"name": name, "codim": codim}
        for name, codim in [("T0", 0), ("H-E1", 1), ("H-E2", 1), ("H", 1), ("pt", 2)]
    ],
    "pairing": [
        [0, 0, 0, 0, 1],
        [0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0],
        [0, 1, 1, 1, 0],
        [1, 0, 0, 0, 0],
    ],
    "triples": [
        {"i": 0, "j": 0, "k": 4, "value": 1},
        {"i": 0, "j": 1, "k": 2, "value": 1},
        {"i": 0, "j": 1, "k": 3, "value": 1},
        {"i": 0, "j": 2, "k": 3, "value": 1},
        {"i": 0, "j": 3, "k": 3, "value": 1},
    ],
    "effective": [{"dual_divisor_index": i, "c1_degree": 1} for i in (1, 2, 3)],
    "seeds": [
        {"class": beta, "insertions": [0], "value": 1}
        for beta in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
    ],
}


def _run_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def q3_hyperplane_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracles") / "q3h.json"
    path.write_text(json.dumps(Q3_HYPERPLANE), encoding="utf-8")
    return str(path)


def test_q3_hyperplane_basis_takes_the_fraction_path():
    model = model_from_dict(Q3_HYPERPLANE)
    assert model.pairing_inverse[1][2] == Fraction(1, 2)
    assert type(model.pairing_inverse[0][3]) is int


def test_q3_hyperplane_counts_are_rescaled_builtin_counts(q3_hyperplane_file):
    # each H^2 insertion counts twice what a line insertion counts
    code, report = _run_json("solve", "--model-file", q3_hyperplane_file, "--dmax", "3", "--check")
    assert code == 0
    assert report["checks"] and all(check["pass"] for check in report["checks"])
    values = {tuple(row["key"]): int(row["value"]) for row in report["rows"]}
    builtin = standard_table(builtin_model("q3"), 9)
    assert values == {(*beta, *n): 2 ** n[0] * v for (beta, n), v in builtin.entries.items()}
    assert (values[(1, 3, 0)], values[(2, 6, 0)], values[(3, 9, 0)]) == (8, 320, 123904)


def test_q3_hyperplane_verify_suite_passes(q3_hyperplane_file):
    code, report = _run_json(
        "verify", "--suite", "all", "--model-file", q3_hyperplane_file, "--dmax", "3"
    )
    assert code == 0
    assert report["checks"] and all(check["pass"] for check in report["checks"])


def test_q3_hyperplane_residuals_catch_a_raised_count():
    model = model_from_dict(Q3_HYPERPLANE)
    table = standard_table(model, 9)
    entries = dict(table.entries)
    entries[((2,), (6, 0))] += 1
    checks = _wdvv_checks(build_potential(GWTable(model, 9, entries), 9))
    assert any(label.startswith("residual-A") and not ok for label, ok, _ in checks)
    assert all(ok for _, ok, _ in _wdvv_checks(build_potential(table, 9)))


@pytest.fixture(scope="module")
def p1xp2_report(tmp_path_factory):
    """One checked solve through c1-degree 9, as exit code and JSON report."""
    path = tmp_path_factory.mktemp("oracles") / "p1xp2.json"
    path.write_text(json.dumps(P1XP2), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["solve", "--model-file", str(path), "--dmax", "3", "--check", "--format", "json"])
    return code, json.loads(out.getvalue())


def test_p1xp2_loads():
    model = model_from_dict(P1XP2)
    assert model.effective_c1 == (2, 3)
    assert model.insertion_weights() == (1, 1, 2)


def test_p1xp2_solve_passes_every_check(p1xp2_report):
    code, report = p1xp2_report
    assert code == 0
    assert report["model"] == "p1xp2"
    assert report["bounds"] == {"dmax": 3, "c1max": 9}
    assert len(report["checks"]) == 56
    assert all(check["pass"] for check in report["checks"])
    assert len(report["rows"]) == 193


def test_p1xp2_fiber_counts_are_plane_counts(p1xp2_report):
    # a curve of class (0, d) lies in a P^2 fiber; the point fixes the fiber
    # and every h2^2 insertion meets it in one point, so these are N_d
    _, report = p1xp2_report
    values = {tuple(row["key"]): int(row["value"]) for row in report["rows"]}
    fiber = {d: values[(0, d, 0, 3 * d - 2, 1)] for d in (1, 2, 3)}
    assert fiber == nd_plane_numbers(3)


def test_p1xp2_ruling_lines(p1xp2_report):
    # P^1-ruling classes (d, 0) with d > 1 are multiple covers and meet no
    # general point
    _, report = p1xp2_report
    values = {tuple(row["key"]): int(row["value"]) for row in report["rows"]}
    assert values[(1, 0, 0, 0, 1)] == 1
    assert values[(2, 0, 0, 0, 2)] == 0


# -- blow-ups of the plane: curves through a blown-up point --------------------


def test_f1_counts_are_plane_counts():
    # a curve of class dH misses E, and one of class dH - E passes once
    # through the blown-up point: both are plane curves through 3d - 1 points
    table = standard_table(model_from_dict(F1), 18)
    assert len(table.entries) == 99
    plane = nd_plane_numbers(6)
    assert {d: table.get((d, d), (3 * d - 1,)) for d in plane} == plane
    assert {d: table.get((d - 1, d), (3 * d - 2,)) for d in plane} == plane


def test_bl2p2_counts_are_plane_counts():
    table = standard_table(model_from_dict(BL2P2), 12)
    assert len(table.entries) == 454
    for d, value in nd_plane_numbers(4).items():
        assert table.get((d, d, d), (3 * d - 1,)) == value, d
        assert table.get((d - 1, d, d), (3 * d - 2,)) == value, d
        assert table.get((d - 1, d - 1, d), (3 * d - 3,)) == value, d
    # dH - 2E1 misses E2, so it counts what dH - 2E counts on F_1
    f1 = standard_table(model_from_dict(F1), 10)
    for d in range(2, 5):
        assert table.get((d - 2, d, d), (3 * d - 3,)) == f1.get((d - 2, d), (3 * d - 3,)), d


@pytest.mark.parametrize(
    "model_data, top, classes",
    [
        (F1, 18, lambda d: [(d, d), (d - 1, d)]),
        (BL2P2, 12, lambda d: [(d, d, d), (d - 1, d, d), (d - 1, d - 1, d)]),
    ],
    ids=["f1", "bl2p2"],
)
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_blown_up_planes_count_plane_curves_at_any_bound(model_data, top, classes, data):
    # dH, dH - E1 and dH - E1 - E2 have c1 = 3d, 3d - 1 and 3d - 2, and a
    # class of c1-degree c counts curves through c - 1 points
    c1_max = data.draw(st.integers(0, top), label="c1_max")
    model = model_from_dict(model_data)
    table = standard_table(model, c1_max)
    reached = [
        (beta, value)
        for d, value in nd_plane_numbers(top // 3).items()
        for beta in classes(d)
        if model.c1_degree(beta) <= c1_max
    ]
    assert len(reached) == sum((c1_max + j) // 3 for j in range(len(classes(1))))
    for beta, value in reached:
        assert table.entries[(beta, (model.c1_degree(beta) - 1,))] == value, beta


@pytest.mark.parametrize("data, c1_max", [(F1, 12), (BL2P2, 9)], ids=["f1", "bl2p2"])
def test_blown_up_planes_pass_the_residual_sweep(data, c1_max):
    table = standard_table(model_from_dict(data), c1_max)
    checks = _wdvv_checks(build_potential(table, c1_max))
    assert checks and all(ok for _, ok, _ in checks), checks


# -- basis changes -------------------------------------------------------------


def _permuted(model, order):
    """The model in the basis T'_a = T_order[a], with the maps that carry a
    class and an insertion multi-index into the new basis."""
    p = model.divisor_count

    def classes(beta):
        return tuple(beta[i - 1] for i in order[1 : p + 1])

    def insertions(n):
        return tuple(n[i - p - 1] for i in order[p + 1 :])

    position = {old: new for new, old in enumerate(order)}
    permuted = FanoModel(
        name=model.name,
        dimension=model.dimension,
        basis_names=tuple(model.basis_names[i] for i in order),
        codims=tuple(model.codims[i] for i in order),
        pairing=tuple(tuple(model.pairing[i][j] for j in order) for i in order),
        triples={tuple(position[i] for i in key): v for key, v in model.triples.items()},
        effective_c1=classes(model.effective_c1),
        seeds=tuple((classes(beta), insertions(n), v) for beta, n, v in model.seeds),
    )
    return permuted, classes, insertions


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_basis_change_permutes_the_counts(data):
    # relabelling the divisors among themselves, and the other classes among
    # themselves, is a basis change: the counts are the same numbers, with
    # their class and insertion entries relabelled
    models = [builtin_model("p1xp1"), *map(model_from_dict, (P1XP2, F1, BL2P2))]
    model = data.draw(st.sampled_from(models), label="model")
    p = model.divisor_count
    divisors = data.draw(st.permutations(range(1, p + 1)), label="divisors")
    others = data.draw(st.permutations(range(p + 1, model.rank)), label="others")
    c1_max = data.draw(st.integers(0, 8), label="c1_max")
    permuted, classes, insertions = _permuted(model, (0, *divisors, *others))
    table = wdvv_solve(model, standard_seeds(model), c1_max)
    assert wdvv_solve(permuted, standard_seeds(permuted), c1_max).entries == {
        (classes(beta), insertions(n)): value for (beta, n), value in table.entries.items()
    }


# -- products of projective spaces -------------------------------------------


def _product_of_spaces(a, b):
    """P^a x P^b through the constructor, with its basis as exponent pairs.

    The basis is h1^i h2^j, ordered by codimension with h1 first; the
    pairing and the triples are read off int h1^a h2^b = 1.  The generators
    are the lines of the two factors, dual to h1 and h2, with c1 = a + 1 and
    b + 1.  Each factor's seed is its one line through a point meeting
    pt_X x 1 (or 1 x pt_Y); when that class is the divisor, the divisor
    axiom drops it and leaves the point alone.
    """
    exponents = sorted(product(range(a + 1), range(b + 1)), key=lambda e: (sum(e), -e[0]))
    others = exponents[3:]  # the basis after the unit, h1 and h2

    def integral(*factors):
        return int(tuple(map(sum, zip(*factors))) == (a, b))

    def seed(beta, through):
        n = tuple(int(e in {(a, b), through}) for e in others)
        return beta, n, 1

    model = FanoModel(
        name=f"p{a}xp{b}",
        dimension=a + b,
        basis_names=tuple(f"h1^{i}h2^{j}" for i, j in exponents),
        codims=tuple(map(sum, exponents)),
        pairing=tuple(tuple(integral(e, f) for f in exponents) for e in exponents),
        triples={
            key: 1
            for key in combinations_with_replacement(range(len(exponents)), 3)
            if integral(*(exponents[x] for x in key))
        },
        effective_c1=(a + 1, b + 1),
        seeds=(seed((1, 0), (a, 0)), seed((0, 1), (0, b))),
    )
    return model, exponents


@functools.cache
def _product_table(a, b, c1_max):
    model, exponents = _product_of_spaces(a, b)
    return standard_table(model, c1_max), exponents


def test_product_builder_reproduces_p1xp1():
    model, _ = _product_of_spaces(1, 1)
    p1xp1 = builtin_model("p1xp1")
    assert model.replace(basis_names=p1xp1.basis_names) == p1xp1


PRODUCTS = [(1, 1, 10), (1, 2, 9), (2, 1, 9), (1, 3, 8), (3, 1, 8), (2, 2, 8)]


@pytest.mark.parametrize("a, b, c1_max", PRODUCTS)
def test_product_fibre_classes_count_in_their_factor(a, b, c1_max):
    # a curve of class (d, 0) lies in a fibre P^a x {y}; one insertion
    # c x pt_Y fixes the fibre, and every c x 1 meets it in c, so the count
    # is the factor's count: <c_1 x 1 ... c_n x pt_Y>_(d,0) = <c_1 ... c_n>_d
    table, exponents = _product_table(a, b, c1_max)
    index = {e: k for k, e in enumerate(exponents)}
    for factor, (r, other) in enumerate([(a, b), (b, a)]):
        def lift(k, top):  # h^k in this factor, times 1 or the other point
            return index[(k, top) if factor == 0 else (top, k)]

        fibre = standard_table(builtin_model("pr", r), c1_max)
        reached = set()
        for (beta, n), value in fibre.entries.items():
            # P^r's basis index k is h^k; P^1's counts have only the divisor
            classes = [k + 2 for k, m in enumerate(n) for _ in range(m)] or [1]
            lifted = [lift(k, 0) for k in classes[:-1]] + [lift(classes[-1], other)]
            d = (beta[0], 0) if factor == 0 else (0, beta[0])
            expected = gw_invariant(fibre, beta, classes)
            assert gw_invariant(table, d, lifted) == expected, (factor, beta, n)
            if expected:
                reached.add(beta[0])
        top = c1_max // (r + 1) if r > 1 else 1  # P^1's only count is its line
        assert reached == set(range(1, top + 1)), factor
    if (a, b) == (2, 1):
        assert gw_invariant(table, (3, 0), [index[(2, 0)]] * 7 + [index[(2, 1)]]) == 12


@pytest.mark.parametrize("a, b, c1_max", PRODUCTS)
def test_product_small_ring_is_the_tensor_product(a, b, c1_max):
    # QH(P^a x P^b) = QH(P^a) x QH(P^b) (Kaufmann-Kontsevich-Manin): the
    # structure constants multiply, q1 carrying the first factor's exponent
    # and q2 the second's
    table, exponents = _product_table(a, b, c1_max)
    index = {e: k for k, e in enumerate(exponents)}
    ring = small_ring(table)
    first, second = (small_ring(standard_table(builtin_model("pr", r), 2 * r)) for r in (a, b))
    for (i, j), expansion in ring.constants.items():
        (i1, i2), (j1, j2) = exponents[i], exponents[j]
        expected = {}
        pairs = product(first.product(i1, j1).items(), second.product(i2, j2).items())
        for (f1, p1), (f2, p2) in pairs:
            terms = {
                (*m1, *m2): c1 * c2 for m1, c1 in p1.coeffs.items() for m2, c2 in p2.coeffs.items()
            }
            if terms:
                expected[index[(f1, f2)]] = GradedPoly(ring.model.effective_c1, terms)
        assert {f: poly for f, poly in expansion.items() if not poly.is_zero()} == expected, (i, j)


# -- lines in P^r by Schubert calculus ----------------------------------------


def _pieri_lines(r, n):
    """Lines in P^r meeting n[a - 2] general linear spaces of codimension a,
    for a = 2..r: the degree of the product of the Schubert classes
    sigma_(a - 1) on G(2, r + 1), by Pieri's rule on two-row partitions
    inside the 2 x (r - 1) box."""
    classes = {(0, 0): 1}
    for a, count in enumerate(n, start=2):
        for _ in range(count):
            step = {}
            for (l1, l2), value in classes.items():
                # sigma_(a-1) adds a horizontal strip: l2 <= m2 <= l1 <= m1
                for m2 in range(l2, l1 + 1):
                    m1 = l1 + l2 + a - 1 - m2
                    if l1 <= m1 <= r - 1:
                        step[(m1, m2)] = step.get((m1, m2), 0) + value
            classes = step
    return classes.get((r - 1, r - 1), 0)


@pytest.mark.parametrize("r", range(2, 8))
def test_projective_lines_match_pieri(r):
    model = builtin_model("pr", r=r)
    table = wdvv_solve(model, standard_seeds(model), r + 1)
    lines = {n: value for (beta, n), value in table.entries.items() if beta == (1,)}
    assert lines and any(lines.values())
    assert lines == {n: _pieri_lines(r, n) for n in lines}


@pytest.mark.parametrize("r", [3, 4])
def test_projective_lines_match_the_grassmannian_ring(r):
    # lines in P^r are points of G(2, r + 1), and a codimension-a linear
    # space meets the lines of the Schubert class sigma_(a - 1): the count is
    # the degree of the product in H^*(G(2, r + 1)), the quantum ring at q = 0
    model = builtin_model("pr", r=r)
    table = wdvv_solve(model, standard_seeds(model), r + 1)
    lines = {n: value for (beta, n), value in table.entries.items() if beta == (1,)}
    quantum = grassmannian_presentation(2, r + 1)
    # drop q from the relations, not from quantum normal forms: in degree 6
    # of G(2, 5) sigma_1 q is no basis monomial, so its normal form mixes
    # sigma_2^3 and sigma_3^2 and the q-free part is not the classical one
    q = len(quantum.degrees) - 1
    ring = PresentationIdeal(
        quantum.degrees, tuple(set_var_to_zero(relation, q) for relation in quantum.relations)
    )
    point = ring.normal_form(ring.variable(r - 2) * ring.variable(r - 2))
    assert not point.is_zero()
    assert lines and any(lines.values())
    for n, value in lines.items():
        product = GradedPoly.constant(ring.degrees, 1)
        for a, count in enumerate(n, start=2):
            for _ in range(count):
                product = product * ring.variable(a - 2)
        assert ring.normal_form(product) == point.scale(value), n
