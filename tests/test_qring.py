import io
import itertools
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcalc import (
    GWTable,
    PotentialBundle,
    big_associator,
    big_product,
    build_potential,
    builtin_model,
    f_bracket,
    grassmannian_presentation,
    gw_invariant,
    model_from_dict,
    pr_presentation,
    presentation_from_big,
    s_r_determinant,
    small_ring,
    standard_table,
    wdvv_residual,
)
from gwcalc import cli, qring
from gwcalc.engine import _wdvv_checks
from gwcalc.qring import _grassmannian_checks, _ring_checks
from gwcalc.series import GWSeries, GradedPoly, compositions


def _nonzero(expansion):
    return {f: series for f, series in expansion.items() if not series.is_zero()}


# -- big ring ----------------------------------------------------------------


def test_unit_acts_trivially(q3_potential):
    bounds = q3_potential.bounds
    for j in range(4):
        product = big_product(q3_potential, 0, j)
        for f, series in product.items():
            expected = GWSeries.constant(bounds, 1 if f == j else 0)
            assert series == expected


def test_plane_product_displays(plane_potential):
    g111 = plane_potential.gamma_partial(1, 1, 1)
    g112 = plane_potential.gamma_partial(1, 1, 2)
    g122 = plane_potential.gamma_partial(1, 2, 2)
    g222 = plane_potential.gamma_partial(2, 2, 2)
    t1t1 = big_product(plane_potential, 1, 1)
    assert t1t1[2] == GWSeries.constant(plane_potential.bounds, 1)
    assert t1t1[1].coeffs == g111.coeffs
    assert t1t1[0].coeffs == g112.coeffs
    t2t2 = big_product(plane_potential, 2, 2)
    assert t2t2[2].is_zero()
    assert t2t2[1].coeffs == g122.coeffs
    assert t2t2[0].coeffs == g222.coeffs


def test_big_commutativity(q3_potential):
    for i in range(4):
        for j in range(4):
            left = big_product(q3_potential, i, j)
            right = big_product(q3_potential, j, i)
            assert {f: s.coeffs for f, s in left.items()} == {
                f: s.coeffs for f, s in right.items()
            }


def test_unit_associator_identically_zero(q3_potential):
    for j in range(4):
        for k in range(4):
            residual = big_associator(q3_potential, 0, j, k)
            assert all(series.is_zero() for series in residual.values())


def test_plane_associator_and_unit_coefficient(plane_potential):
    residual = big_associator(plane_potential, 1, 1, 2)
    assert all(series.is_zero() for series in residual.values())


def test_threefold_associators(p3_potential, q3_potential):
    for bundle in (p3_potential, q3_potential):
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    residual = big_associator(bundle, i, j, k)
                    assert all(
                        series.is_zero() for series in residual.values()
                    )


def test_projective_space_associators():
    for r in (1, 2, 3, 4):
        model = builtin_model(f"p{r}")
        c1_max = 2 * (r + 1)
        table = standard_table(model, c1_max)
        bundle = build_potential(table, c1_max)
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                for k in range(j, r + 1):
                    residual = big_associator(bundle, i, j, k)
                    assert all(
                        series.is_zero() for series in residual.values()
                    )


def test_product_of_lines_associators():
    model = builtin_model("p1xp1")
    table = standard_table(model, 8)
    bundle = build_potential(table, 8)
    for i in range(1, 4):
        for j in range(i, 4):
            for k in range(j, 4):
                residual = big_associator(bundle, i, j, k)
                assert all(series.is_zero() for series in residual.values())


def test_big_ring_collects_constants(plane_potential):
    for i, j in itertools.product(range(3), repeat=2):
        assert set(big_product(plane_potential, i, j)) == {0, 1, 2}
    assert big_product(plane_potential, 1, 1)[2] == GWSeries.constant(plane_potential.bounds, 1)


# -- products and associators cached on the bundle ---------------------------


def _uncached(bundle):
    return PotentialBundle(bundle.model, bundle.bounds, bundle.gamma)


@pytest.fixture(scope="module")
def p3_ring(p3, p3_table):
    return small_ring(p3_table)


@pytest.mark.parametrize("name", ["plane_potential", "p3_potential", "q3_potential"])
def test_cached_products_match_uncached_bundles(request, name):
    bundle = request.getfixturevalue(name)
    indices = range(bundle.model.rank)
    for i, j in itertools.product(indices, repeat=2):
        assert big_product(bundle, i, j) == big_product(_uncached(bundle), i, j)
    for i, j, k in itertools.product(indices, repeat=3):
        assert big_associator(bundle, i, j, k) == big_associator(_uncached(bundle), i, j, k)


def test_big_product_returns_a_fresh_dict(plane_potential):
    bundle = _uncached(plane_potential)
    first = big_product(bundle, 1, 1)
    expected = dict(first)
    first[0] = GWSeries.constant(bundle.bounds, 5)
    del first[2]
    assert big_product(bundle, 1, 1) == expected
    assert big_associator(bundle, 1, 1, 2) == big_associator(_uncached(bundle), 1, 1, 2)


class _RecordingDict(dict):
    """A cache that remembers every key written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


def test_sweeps_build_each_bracket_once(p3_potential, p3_ring):
    bundle = _uncached(p3_potential)
    bundle._brackets = _RecordingDict()
    checks = _wdvv_checks(bundle) + _ring_checks(bundle, p3_ring)
    assert all(ok for _, ok, _ in checks)
    # one bracket per pair partition {{i,j},{k,l}}, keyed by its sorted form
    written = bundle._brackets.writes
    partitions = [sorted((tuple(sorted(key[:2])), tuple(sorted(key[2:])))) for key in written]
    assert written and written == [first + second for first, second in partitions]
    assert len(written) == len(set(written))


def test_verify_makes_fewer_series_products(monkeypatch):
    calls = []
    multiply = GWSeries.__mul__

    def counting(left, right):
        calls.append(1)
        return multiply(left, right)

    monkeypatch.setattr(GWSeries, "__mul__", counting)
    counts = {}
    for suite in ("wdvv", "all"):
        calls.clear()
        with redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", suite, "--model", "p3", "--dmax", "6"])
        assert code == 0
        counts[suite] = len(calls)
    # the ring checks read every bracket off the residual sweep
    assert counts == {"wdvv": 29, "all": 29}


def test_p4_sweeps_share_pair_partition_brackets(monkeypatch):
    # with four distinct non-unit indices the sweeps meet F(2,3|1,4) and
    # F(3,2|1,4), and F(2,4|1,3) and F(1,3|2,4): one bracket each; the
    # table's solver multiplies on floored bounds, which are not counted
    calls, bundles = [], []
    multiply, build = GWSeries.__mul__, cli.build_potential

    def counting(left, right):
        calls.append(left.bounds.min_c1 == 0)
        return multiply(left, right)

    def keeping(*args):
        bundles.append(build(*args))
        return bundles[-1]

    monkeypatch.setattr(GWSeries, "__mul__", counting)
    monkeypatch.setattr(cli, "build_potential", keeping)
    with redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", "all", "--model", "p4", "--dmax", "3"])
    assert code == 0
    [bundle] = bundles
    assert (len(bundle._brackets), sum(calls)) == (39, 132)


def test_associator_builds_no_unit_brackets(monkeypatch, p3, p3_table, p3_ring):
    bundles = []
    build = cli.build_potential

    def keeping(*args):
        bundles.append(build(*args))
        return bundles[-1]

    monkeypatch.setattr(cli, "build_potential", keeping)
    for suite in ("wdvv", "all"):
        with redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", suite, "--model", "p3", "--dmax", "6"])
        assert code == 0
    sweep, bundle = bundles
    # the associator builds no bracket beyond the two of each canonical residual
    assert len(sweep._brackets) == 12
    assert set(bundle._brackets) == set(sweep._brackets)
    assert not any(0 in key for key in bundle._brackets)
    # the associator still sees one raised count
    entries = dict(p3_table.entries)
    entries[((2,), (0, 4))] += 1
    raised = build_potential(GWTable(p3, 16, entries), 16)
    checks = {label: ok for label, ok, _ in _ring_checks(raised, p3_ring)}
    assert checks["big-unit"] and checks["big-commutative"]
    assert not checks["big-associative"]


@pytest.mark.parametrize("d_max", [1, 6])
def test_verify_solves_one_table(monkeypatch, d_max):
    bounds = []
    solve = cli.standard_table

    def counting(model, c1_max):
        bounds.append(c1_max)
        return solve(model, c1_max)

    monkeypatch.setattr(cli, "standard_table", counting)
    with redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", "all", "--model", "p3", "--dmax", str(d_max)])
    assert code == 0
    # the sweeps read 4 * d_max, the small ring 2 * dim = 6
    assert bounds == [max(4 * d_max, 6)]


def test_ring_checks_fetch_each_big_product_once(monkeypatch, p3_potential, p3_ring):
    calls = []
    product = qring.big_product

    def counting(bundle, i, j):
        calls.append((i, j))
        return product(bundle, i, j)

    # _ring_checks reads big_product from qring's globals when it runs
    monkeypatch.setattr(qring, "big_product", counting)
    checks = _ring_checks(_uncached(p3_potential), p3_ring)
    assert all(ok for _, ok, _ in checks)
    rank = p3_potential.model.rank
    assert len(calls) <= 2 * rank ** 2 + rank
    # the commutativity check still reaches every unordered pair
    assert {frozenset(pair) for pair in calls} >= {
        frozenset((i, j)) for i in range(rank) for j in range(i + 1, rank)
    }


def test_ring_checks_catch_a_corrupted_cached_product(p3_potential, p3_ring):
    bundle = _uncached(p3_potential)
    product = bundle.product(1, 2)
    product[0] = product[0] + GWSeries.constant(bundle.bounds, 1)
    checks = {name: ok for name, ok, _ in _ring_checks(bundle, p3_ring)}
    assert checks["big-commutative"] is False


# -- the cubic satisfied by the plane's hyperplane class ----------------------


def test_plane_cubic_presentation(plane_potential):
    cubic = presentation_from_big(plane_potential)
    assert set(cubic) == {0, 1, 2}
    assert cubic[2] == plane_potential.gamma_partial(1, 1, 1)
    assert cubic[1] == plane_potential.gamma_partial(1, 1, 2).scale(2)
    assert cubic[0] == plane_potential.gamma_partial(1, 2, 2)


def test_plane_cubic_unit_coefficient(plane_potential):
    # the unit coefficient of the triple power, its pairing with the point
    # F(1,1|1,2): quantum part of T1.T2.T2 plus the product of the two
    # leading cubic coefficients
    unit = f_bracket(plane_potential, 1, 1, 1, 2)
    expected = plane_potential.gamma_partial(1, 2, 2) + plane_potential.gamma_partial(
        1, 1, 1
    ) * plane_potential.gamma_partial(1, 1, 2)
    assert (unit - expected).is_zero()


def test_plane_cubic_degenerates_classically(p2):
    bundle = build_potential(GWTable(p2, 6), 6)
    cubic = presentation_from_big(bundle)
    assert set(cubic) == {0, 1, 2}
    assert all(series.is_zero() for series in cubic.values())


def test_cubic_requires_plane_shape(q3_potential):
    with pytest.raises(ValueError):
        presentation_from_big(q3_potential)


# -- brackets against products of products ------------------------------------


def _products_of_products(bundle):
    """The route the brackets replace, contracted here from the third
    partials alone: T_i * T_j, and an expansion times T_k one basis product
    at a time."""
    model, zero = bundle.model, GWSeries(bundle.bounds)
    products = {}

    def product(i, j):
        if (i, j) not in products:
            products[(i, j)] = {
                f: sum((bundle.phi(i, j, e).scale(model.pairing_inverse[e][f]) for e in range(model.rank)), zero)
                for f in range(model.rank)
            }
        return products[(i, j)]

    def times(expansion, k):
        out = {f: zero for f in range(model.rank)}
        for e, coeff in expansion.items():
            for f, factor in product(e, k).items():
                out[f] = out[f] + coeff * factor
        return out

    return product, times


def _raised_potential(model, c1_max):
    """The potential of a table whose every count is one too large."""
    table = standard_table(model, c1_max)
    entries = {key: value + 1 for key, value in table.entries.items()}
    return build_potential(GWTable(model, c1_max, entries), c1_max)


@pytest.mark.parametrize(
    "spec, c1_max",
    [(("p2",), 9), (("p3",), 8), (("q3",), 6), (("p1xp1",), 4), (("p4",), 5),
     (("file", "P1XP2"), 5), (("file", "Q3_HYPERPLANE"), 6)],
    ids=["p2", "p3", "q3", "p1xp1", "p4", "p1xp2", "q3h"],
)
def test_associator_matches_products_of_products(spec, c1_max):
    if spec[0] == "file":
        import test_oracles

        model = model_from_dict(getattr(test_oracles, spec[1]))
    else:
        model = builtin_model(*spec)
    bundle = _raised_potential(model, c1_max)
    product, times = _products_of_products(bundle)
    nonzero = 0
    for i, j, k in itertools.product(range(model.rank), repeat=3):
        left, right = times(product(i, j), k), times(product(j, k), i)
        expected = {f: left[f] - right[f] for f in range(model.rank)}
        assert big_associator(bundle, i, j, k) == expected
        nonzero += sum(not series.is_zero() for series in expected.values())
    # the raised counts break associativity, so the comparison is not empty
    assert nonzero
    # the ring suite's verdict, read off the canonical residuals, is the
    # all-associators verdict, on the raised table and on the correct one
    table = standard_table(model, max(c1_max, 2 * model.dimension))
    ring = small_ring(table)
    for potential, associative in ((bundle, False), (build_potential(table, c1_max), True)):
        verdict = {label: ok for label, ok, _ in _ring_checks(potential, ring)}
        assert verdict["big-associative"] == associative
        assert associative == all(
            series.is_zero()
            for i, j, k in itertools.product(range(model.rank), repeat=3)
            for series in big_associator(potential, i, j, k).values()
        )


@pytest.mark.parametrize(
    "spec, c1_max",
    [(("p2",), 9), (("p3",), 8), (("q3",), 6), (("p1xp1",), 4), (("p4",), 5),
     (("file", "P1XP2"), 5), (("file", "Q3_HYPERPLANE"), 6)],
    ids=["p2", "p3", "q3", "p1xp1", "p4", "p1xp2", "q3h"],
)
def test_residual_signs_match_the_bracket_formula(spec, c1_max):
    if spec[0] == "file":
        import test_oracles

        model = model_from_dict(getattr(test_oracles, spec[1]))
    else:
        model = builtin_model(*spec)
    bundle = _raised_potential(model, c1_max)
    nonzero = 0
    for i, j, k, l in itertools.product(range(model.rank), repeat=4):
        expected = f_bracket(bundle, i, j, k, l) - f_bracket(bundle, j, k, i, l)
        assert wdvv_residual(bundle, i, j, k, l) == expected, (i, j, k, l)
        nonzero += not expected.is_zero()
    # the raised counts break associativity, so the comparison is not empty
    assert nonzero


@settings(max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(0, 10**6), min_size=3, max_size=3))
def test_plane_cubic_matches_products_of_products(counts):
    p2 = builtin_model("p2")
    entries = {((d,), (3 * d - 1,)): value for d, value in enumerate(counts, 1)}
    bundle = build_potential(GWTable(p2, 9, entries), 9)
    product, times = _products_of_products(bundle)
    pow2, pow3 = product(1, 1), times(product(1, 1), 1)
    # any nonzero count reaches the triple power's quantum terms
    assert any(any(beta) for series in pow3.values() for beta, _ in series.coeffs) == any(counts)
    # the cubic holds in any potential: its residuals are zero series, so
    # the triple power is read back from the coefficient series alone
    cubic = presentation_from_big(bundle)
    assert {
        f: cubic[2] * pow2[f] + (cubic[f] if f < 2 else GWSeries(bundle.bounds))
        for f in range(3)
    } == pow3


def test_plane_cubic_check_fails_on_raised_counts(p2):
    # the cubic itself holds on this table; its one WDVV equation does not
    bundle = _raised_potential(p2, 9)
    ring = small_ring(standard_table(p2, 9))
    checks = {label: (ok, detail) for label, ok, detail in _ring_checks(bundle, ring)}
    ok, detail = checks["plane-cubic-presentation"]
    assert not ok and detail.startswith("T2*T2 not reproduced")
    assert not checks["big-associative"][0]


# -- small rings --------------------------------------------------------------


def test_plane_small_ring(p2):
    ring = small_ring(standard_table(p2, 4))
    assert _expansion_coeffs(ring.product(2, 2)) == {1: {(1,): 1}}
    assert _expansion_coeffs(ring.product(1, 1)) == {2: {(0,): 1}}
    assert _expansion_coeffs(ring.product(1, 2)) == {0: {(1,): 1}}


def _expansion_coeffs(expansion):
    return {f: poly.coeffs for f, poly in expansion.items() if not poly.is_zero()}


def test_projective_space_product_rules():
    for r in (1, 2, 3, 4):
        model = builtin_model(f"p{r}")
        ring = small_ring(standard_table(model, 2 * r))
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                expansion = _nonzero_polys(ring.product(i, j))
                if i + j <= r:
                    assert list(expansion) == [i + j]
                    assert expansion[i + j].coeffs == {(0,): 1}
                else:
                    target = i + j - r - 1
                    assert list(expansion) == [target]
                    assert expansion[target].coeffs == {(1,): 1}


def _nonzero_polys(expansion):
    return {f: poly for f, poly in expansion.items() if not poly.is_zero()}


def test_hyperplane_power_is_deformation_parameter():
    for r in (1, 2, 3, 4):
        model = builtin_model(f"p{r}")
        ring = small_ring(standard_table(model, 2 * r))
        power = _nonzero_polys(ring.basis_power(1, r + 1))
        assert list(power) == [0]
        assert power[0].coeffs == {(1,): 1}


def test_basis_powers_on_product_of_lines():
    # QH(P1 x P1) = QH(P1) (x) QH(P1): each hyperplane squares to its own q
    model = builtin_model("p1xp1")
    ring = small_ring(standard_table(model, 2 * model.dimension))
    for e in range(7):
        half, odd = divmod(e, 2)
        assert _nonzero_polys(ring.basis_power(1, e)) == {
            odd: GradedPoly(ring.model.effective_c1, {(half, 0): 1})
        }
        assert _nonzero_polys(ring.basis_power(2, e)) == {
            2 * odd: GradedPoly(ring.model.effective_c1, {(0, half): 1})
        }


def test_small_ring_homogeneity(q3):
    ring = small_ring(standard_table(q3, 6))
    for (i, j), expansion in ring.constants.items():
        for f, poly in expansion.items():
            for mono in poly.coeffs:
                weight = sum(e * d for e, d in zip(mono, ring.model.effective_c1))
                assert weight + q3.codims[f] == q3.codims[i] + q3.codims[j]


def test_small_ring_q0_is_cup_product():
    for name in ("p2", "p3", "q3", "p1xp1"):
        model = builtin_model(name)
        ring = small_ring(standard_table(model, 2 * model.dimension))
        q0 = (0,) * len(ring.model.effective_c1)
        for i in range(model.rank):
            for j in range(i, model.rank):
                for f in range(model.rank):
                    cup = sum(
                        Fraction(model.triple(i, j, e)) * model.pairing_inverse[e][f]
                        for e in range(model.rank)
                    )
                    assert ring.constants[(i, j)][f].coeffs.get(q0, 0) == cup


def test_small_ring_commutative_storage(q3):
    ring = small_ring(standard_table(q3, 6))
    assert ring.product(1, 2) is ring.product(2, 1)


def _small_ring_by_invariants(model, table):
    """Independent route to the small ring: T_i * T_j -> T_f gathers
    <T_i T_j T_e>_beta g^{ef} q^beta over the effective classes whose
    c1-degree the codimensions pin down, each count read by gw_invariant."""
    constants = {}
    for i in range(model.rank):
        for j in range(i, model.rank):
            accum = {f: {} for f in range(model.rank)}
            zero = (0,) * model.divisor_count
            for e, f, gef in model.g_inv_pairs():
                cup = model.triple(i, j, e)
                if cup:
                    accum[f][zero] = accum[f].get(zero, 0) + Fraction(cup) * gef
                needed = model.codims[i] + model.codims[j] + model.codims[e] - model.dimension
                for beta in compositions(model.effective_c1, needed):
                    if not any(beta):
                        continue
                    value = gw_invariant(table, beta, [i, j, e])
                    if value:
                        accum[f][beta] = accum[f].get(beta, 0) + Fraction(value) * gef
            constants[(i, j)] = {
                f: {beta: c for beta, c in terms.items() if c} for f, terms in accum.items()
            }
    return constants


@pytest.mark.parametrize(
    "spec",
    [("p1",), ("p2",), ("p3",), ("q3",), ("p1xp1",), ("p4",), ("p5",), ("p6",),
     ("file", "P1XP2"), ("file", "Q3_HYPERPLANE")],
)
def test_small_ring_matches_the_invariant_oracle(spec):
    if spec[0] == "file":
        import test_oracles

        model = model_from_dict(getattr(test_oracles, spec[1]))
    else:
        model = builtin_model(*spec)
    table = standard_table(model, 2 * model.dimension)
    ring = small_ring(table)
    expected = _small_ring_by_invariants(model, table)
    assert {key: {f: dict(poly.coeffs) for f, poly in expansion.items()}
            for key, expansion in ring.constants.items()} == expected
    # some class contributes, so the comparison reaches the quantum terms
    assert any(any(beta) for expansion in expected.values()
               for terms in expansion.values() for beta in terms)


@pytest.mark.parametrize("name, short", [("p2", 3), ("p3", 5), ("q3", 5), ("p1xp1", 2)])
def test_small_ring_refuses_a_shallow_table(name, short):
    model = builtin_model(name)
    table = standard_table(model, short)
    with pytest.raises(ValueError) as info:
        small_ring(table)
    message = str(info.value)
    assert f"c1-degree {2 * model.dimension}" in message
    assert f"coverage {short}" in message


def test_product_of_lines_small_ring():
    model = builtin_model("p1xp1")
    ring = small_ring(standard_table(model, 4))
    assert _expansion_coeffs(ring.product(1, 1)) == {0: {(1, 0): 1}}
    assert _expansion_coeffs(ring.product(2, 2)) == {0: {(0, 1): 1}}
    assert _expansion_coeffs(ring.product(1, 2)) == {3: {(0, 0): 1}}
    assert _expansion_coeffs(ring.product(3, 3)) == {0: {(1, 1): 1}}


def test_product_of_lines_ring_is_the_tensor_square_of_the_line():
    # QH(P^1) = Z[h, q]/(h^2 - q): h^a * h^b = q^e h^c with (e, c) = divmod(a + b, 2)
    line = small_ring(standard_table(builtin_model("p1"), 2))
    for a, b in itertools.product(range(2), repeat=2):
        e, c = divmod(a + b, 2)
        assert _expansion_coeffs(line.product(a, b)) == {c: {(e,): 1}}
    # T1 and T2 are h pulled back from the two factors, T3 is their product,
    # and q^beta is q1^beta1 q2^beta2
    index = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    ring = small_ring(standard_table(builtin_model("p1xp1"), 4))
    for (a1, b1), (a2, b2) in itertools.product(index, repeat=2):
        (e1, c1), (e2, c2) = divmod(a1 + a2, 2), divmod(b1 + b2, 2)
        expected = {index[(c1, c2)]: {(e1, e2): 1}}
        assert _expansion_coeffs(ring.product(index[(a1, b1)], index[(a2, b2)])) == expected


# -- presentations ------------------------------------------------------------


def test_pr_presentation_normal_forms():
    for r in (1, 2, 3):
        pres = pr_presentation(r)
        t_var = pres.variable(0)
        q_var = pres.variable(1)
        power = GradedPoly.constant(pres.degrees, 1)
        for _ in range(r + 1):
            power = power * t_var
        assert pres.normal_form(power) == pres.normal_form(q_var)
        assert pres.normal_form(power * t_var) == pres.normal_form(q_var * t_var)
        for degree in range(3 * (r + 1)):
            assert pres.rank(degree) == 1
        fresh = pr_presentation(r)
        assert (pres.degrees, pres.relations) == (fresh.degrees, fresh.relations)


def test_s_r_determinant_basics():
    s1 = s_r_determinant(2, 4, 1)
    assert s1.coeffs == {(1, 0, 0): 1}
    s3 = s_r_determinant(2, 4, 3)
    assert s3.coeffs == {(3, 0, 0): 1, (1, 1, 0): -2}
    s2 = s_r_determinant(2, 4, 2)
    assert s2.coeffs == {(2, 0, 0): 1, (0, 1, 0): -1}


def test_alternating_sum_identity():
    for p, n in ((2, 4), (2, 5)):
        k = n - p
        total = s_r_determinant(p, n, n)
        sign = -1
        for i in range(1, k + 1):
            sigma = GradedPoly.variable(total.degrees, i - 1)
            total = total + (s_r_determinant(p, n, n - i) * sigma).scale(sign)
            sign = -sign
        assert total.is_zero()


def _box_partitions_by_size(p, k):
    # independent oracle: enumerate decreasing tuples inside the p x k box
    def rec(rows_left, limit):
        if rows_left == 0:
            yield ()
            return
        for first in range(limit + 1):
            for rest in rec(rows_left - 1, first):
                yield (first,) + rest

    counts = [0] * (p * k + 1)
    for shape in rec(p, k):
        counts[sum(shape)] += 1
    return counts


# every Grassmannian the presentation supports: p(n - p) <= 6
SMALL_GRASSMANNIANS = [(p, n) for n in range(2, 8) for p in range(1, n) if p * (n - p) <= 6]


def _jacobi_trudi_cases():
    for p, n in SMALL_GRASSMANNIANS:
        k = n - p
        alternating = tuple((-1) ** (j + 1) * (j + 2) for j in range(k))
        points = [(1,) * k, tuple(range(2, k + 2)), alternating]
        for r in range(n + 1):
            for x in points:
                yield pytest.param(p, n, r, x, id=f"gr{p}{n}-S{r}-at{x}".replace(" ", ""))


@pytest.mark.parametrize("p, n, r, x", list(_jacobi_trudi_cases()))
def test_s_r_determinant_is_complete_homogeneous(p, n, r, x):
    # Jacobi-Trudi: with sigma_i = e_i(x_1..x_k), det(sigma_{1+j-i}) = h_r(x)
    k = n - p
    det = s_r_determinant(p, n, r)
    assert det.homogeneous_degree() == r and all(mono[k] == 0 for mono in det.coeffs)
    sigma = [sum(prod(c) for c in itertools.combinations(x, i)) for i in range(1, k + 1)]
    value = sum(
        coeff * prod(s ** e for s, e in zip(sigma, mono))
        for mono, coeff in det.coeffs.items()
    )
    assert value == sum(prod(c) for c in itertools.combinations_with_replacement(x, r))


def test_grassmannian_presentation_rank():
    assert len(SMALL_GRASSMANNIANS) == 14
    for p, n in SMALL_GRASSMANNIANS:
        k, total = n - p, comb(n, p)
        ideal = grassmannian_presentation(p, n)
        box = _box_partitions_by_size(p, k)
        assert sum(box) == total
        for degree in range(p * k + n + 1):
            expected = sum(
                box[degree - n * j]
                for j in range(degree // n + 1)
                if degree - n * j <= p * k
            )
            assert ideal.rank(degree) == expected


@pytest.mark.parametrize("p, n", SMALL_GRASSMANNIANS)
def test_grassmannian_checks_pass(p, n):
    checks = _grassmannian_checks(p, n)
    assert [name for name, _, _ in checks] == [
        "gr-presentation-rank",
        "gr-classical-relations",
        "gr-alternating-identity",
        "gr-seed-product",
    ]
    assert all(ok for _, ok, _ in checks), checks


def test_grassmannian_checks_build_each_determinant_once(monkeypatch):
    # the presentation builds S_3, S_4, S_5 of Gr(2, 5) and the checks add S_2
    calls = []

    def counting(p, n, r):
        calls.append(r)
        return s_r_determinant(p, n, r)

    monkeypatch.setattr(qring, "s_r_determinant", counting)
    _grassmannian_checks(2, 5)
    assert sorted(calls) == [2, 3, 4, 5]


def test_grassmannian_checks_multiply_at_most_34_times(monkeypatch):
    # the first-row recurrence builds S_2..S_5 of Gr(2, 5) in 3 + 6 + 9 + 12
    # products; the alternating identity and the seed product add 4
    calls = []
    multiply = GradedPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(GradedPoly, "__mul__", counting)
    _grassmannian_checks(2, 5)
    assert len(calls) <= 34


def test_grassmannian_seed_product():
    ideal = grassmannian_presentation(2, 4)
    s1 = ideal.variable(0)
    s2 = ideal.variable(1)
    q = ideal.variable(2)
    sigma_11 = s1 * s1 - s2
    assert ideal.normal_form(s2 * sigma_11) == ideal.normal_form(q)


def test_grassmannian_point_class_cube():
    # sigma_2^3 reduces to q times the complementary degree-2 class
    ideal = grassmannian_presentation(2, 4)
    s1 = ideal.variable(0)
    s2 = ideal.variable(1)
    q = ideal.variable(2)
    assert ideal.normal_form(s2 * s2 * s2 - q * (s1 * s1 - s2)).is_zero()


def test_grassmannian_classical_relations_at_q0():
    ideal = grassmannian_presentation(2, 4)
    assert ideal.normal_form(s_r_determinant(2, 4, 3)).is_zero()
    top = ideal.normal_form(s_r_determinant(2, 4, 4))
    assert all(mono[2] for mono in top.coeffs)  # no q-free term
    assert top.coeffs == {(0, 0, 1): -1}


def test_grassmannian_scale_guard():
    with pytest.raises(ValueError):
        grassmannian_presentation(3, 7)
