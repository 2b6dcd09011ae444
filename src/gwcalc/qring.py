"""Quantum cohomology as structure-constant algebras, with presentations.

The big ring deforms the cup product by all counts: structure constants are
divided-power series contracted from third partials of the potential, and
its triple products are read off the potential's cached brackets through
<(T_i * T_j) * T_k, T_l> = F(i,j|k,l).  Its associator is the WDVV
residuals with one index raised, so it checks the same equations as the
residual sweep, through the same brackets.  The small ring is the
n = 0 slice of the same products: with every non-divisor coordinate set to
zero only the 3-point counts survive, and the divisor directions remain as
q^beta.  That is a graded deformation over polynomials in one parameter per
divisor class; setting the parameters to zero recovers the cup product.

Presentations are quotient descriptions of the small rings.  Normal forms
are computed degree by degree: the ideal's graded piece is spanned by
monomial multiples of the relations, and exact linear elimination expresses
every monomial in a chosen monomial basis of the quotient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .engine import GWTable, wdvv_canonical_equations
from .model import FanoModel, builtin_model
from .potential import Expansion, PotentialBundle, build_potential, f_bracket, wdvv_residual
from .series import (
    GWSeries, GradedPoly, MultiIndex, accumulate, compositions, index_add, row_reduce
)


# ---------------------------------------------------------------------------
# Big quantum ring
# ---------------------------------------------------------------------------


def big_product(bundle: PotentialBundle, i: int, j: int) -> Expansion:
    """Expansion of T_i * T_j over the basis, with series coefficients.

    Built once per bundle; each call returns a fresh dict.
    """
    return dict(bundle.product(i, j))


def big_associator(bundle: PotentialBundle, i: int, j: int, k: int) -> Expansion:
    """(T_i * T_j) * T_k - T_i * (T_j * T_k), coefficient by coefficient.

    The sides pair with T_l to F(i,j|k,l) and F(j,k|i,l), so the coefficient
    of T_f is the WDVV residual R(i,j,k,l) with its last index raised by
    g^{lf}: the big product is associative exactly where the residuals vanish.
    """
    rank = bundle.model.rank
    return bundle.raise_index([wdvv_residual(bundle, i, j, k, l) for l in range(rank)])


class QuantumRing:
    """Small quantum ring: structure constants over the model's basis.

    Each constant is a polynomial in one deformation parameter per divisor
    class, graded by the model's ``effective_c1``.  Constants are stored for
    i <= j; the product is symmetric.
    """

    def __init__(
        self, model: FanoModel, constants: dict[tuple[int, int], dict[int, GradedPoly]]
    ) -> None:
        self.model, self.constants = model, constants

    def product(self, i: int, j: int) -> dict[int, GradedPoly]:
        return self.constants[(min(i, j), max(i, j))]

    def basis_power(self, i: int, exponent: int) -> dict[int, GradedPoly]:
        """The exponent-fold product T_i * ... * T_i as an expansion."""
        element = {0: GradedPoly.constant(self.model.effective_c1, 1)}
        for _ in range(exponent):
            # right-multiply sum_e a_e T_e by T_i
            out = {f: GradedPoly(self.model.effective_c1) for f in range(self.model.rank)}
            for e, coeff in element.items():
                if coeff.is_zero():
                    continue
                for f, factor in self.product(e, i).items():
                    out[f] = out[f] + coeff * factor
            element = out
        return element


# ---------------------------------------------------------------------------
# Small quantum ring
# ---------------------------------------------------------------------------


def small_ring(table: GWTable) -> QuantumRing:
    """Small quantum ring of the table's model from its 3-point counts.

    The small ring is the n = 0 slice of the big product: the coefficient of
    T_f in T_i * T_j at the key (beta, 0) is sum_e <T_i T_j T_e>_beta g^{ef},
    the constant of q^beta.  The potential is built at c1-degree twice the
    dimension, which bounds every 3-point count, so the table must cover it.
    """
    model = table.model
    bundle = build_potential(table, 2 * model.dimension)
    ring = QuantumRing(model, {})
    no_insertions = (0,) * len(model.nondivisor_indices)
    for i in range(model.rank):
        for j in range(i, model.rank):
            expansion = {}
            for f, series in bundle.product(i, j).items():
                terms = {}
                for (beta, n), coeff in series.coeffs.items():
                    if n != no_insertions:
                        continue
                    if coeff.denominator != 1:
                        raise ArithmeticError(
                            f"non-integral structure constant {coeff} at "
                            f"T_{i} * T_{j} -> T_{f}"
                        )
                    terms[beta] = int(coeff)
                expansion[f] = GradedPoly(model.effective_c1, terms)
            ring.constants[(i, j)] = expansion
    return ring


# ---------------------------------------------------------------------------
# Presentations with per-degree normal forms
# ---------------------------------------------------------------------------


class PresentationIdeal:
    """Graded polynomial relations with exact normal-form reduction.

    The quotient's graded pieces are computed degree by degree: the span of
    monomial multiples of the relations is eliminated over the rationals and
    every monomial is rewritten in the surviving monomial basis.  Reductions
    of integer polynomials are required to stay integral.
    """

    def __init__(self, degrees: tuple[int, ...], relations: tuple[GradedPoly, ...]) -> None:
        for rel in relations:
            if rel.degrees != degrees:
                raise ValueError("relation lives in a different graded ring")
            if rel.homogeneous_degree() is None:
                raise ValueError(f"relation {rel} is not homogeneous")
        self.degrees, self.relations = degrees, relations
        self._cache: dict[
            int, tuple[list[MultiIndex], dict[MultiIndex, dict[MultiIndex, Fraction]]]
        ] = {}

    def variable(self, index: int) -> GradedPoly:
        return GradedPoly.variable(self.degrees, index)

    def _reduction(self, degree: int):
        cached = self._cache.get(degree)
        if cached is not None:
            return cached
        monos = sorted(compositions(self.degrees, degree), reverse=True)
        position = {m: idx for idx, m in enumerate(monos)}
        pivots, _ = row_reduce(
            {position[index_add(term, mono)]: coeff for term, coeff in rel.coeffs.items()}
            for rel in self.relations
            for mono in compositions(self.degrees, degree - rel.homogeneous_degree())
        )
        basis = [m for idx, m in enumerate(monos) if idx not in pivots]
        rewrite: dict[MultiIndex, dict[MultiIndex, Fraction]] = {}
        for lead, row in pivots.items():
            rewrite[monos[lead]] = {
                monos[idx]: -value for idx, value in row.items() if idx != lead
            }
        result = (basis, rewrite)
        self._cache[degree] = result
        return result

    def rank(self, degree: int) -> int:
        """Size of the quotient's monomial basis in one graded degree."""
        return len(self._reduction(degree)[0])

    def normal_form(self, poly: GradedPoly) -> GradedPoly:
        """Reduce a polynomial to the quotient's monomial basis.

        Works per homogeneous component; raises if a reduction coefficient
        fails to be an integer.
        """
        if poly.degrees != self.degrees:
            raise ValueError("polynomial lives in a different graded ring")
        out: dict[MultiIndex, Fraction] = {}
        for mono, coeff in poly.coeffs.items():
            _, rewrite = self._reduction(poly.monomial_degree(mono))
            accumulate(out, rewrite.get(mono, {mono: 1}).items(), coeff)
        for coeff in out.values():
            if coeff.denominator != 1:
                raise ArithmeticError(
                    f"normal form of {poly} has non-integral coefficient {coeff}"
                )
        return GradedPoly(self.degrees, {m: int(c) for m, c in out.items()})


def pr_presentation(r: int) -> PresentationIdeal:
    """Quotient description of the small ring of projective r-space:
    one generator of degree 1, one parameter of degree r+1, one relation."""
    if r < 1:
        raise ValueError("r must be at least 1")
    degrees = (1, r + 1)
    relation = GradedPoly(degrees, {(r + 1, 0): 1, (0, 1): -1})
    return PresentationIdeal(degrees, (relation,))


# ---------------------------------------------------------------------------
# Grassmannians
# ---------------------------------------------------------------------------


def s_r_determinant(p: int, n: int, r: int) -> GradedPoly:
    """The r x r determinant S_r = det(sigma_{1+j-i}) in the presentation ring
    of the Grassmannian of p-planes in n-space, where q of degree n follows
    sigma_1..sigma_{n-p}.

    sigma_0 is 1 and sigma_i vanishes for i < 0 or i > n-p, so the matrix is
    Hessenberg and its first-row minors are triangular: S_r is the sum of
    (-1)^(i-1) sigma_i S_(r-i) over i <= n-p, from S_0 = 1.  The result is
    homogeneous of degree r and free of q.
    """
    k = n - p
    if k < 1:
        raise ValueError("need p < n")
    degrees = tuple(range(1, k + 1)) + (n,)
    s = [GradedPoly.constant(degrees, 1)]
    for m in range(1, r + 1):
        total = GradedPoly(degrees)
        for i in range(1, min(m, k) + 1):
            term = GradedPoly.variable(degrees, i - 1) * s[m - i]
            total = total + (term if i % 2 else term.scale(-1))
        s.append(total)
    return s[r]


def _box_betti(p: int, k: int) -> list[int]:
    """Number of partitions inside a p x k box by size (the graded ranks of
    the classical cohomology); such a partition is a multiset of p parts
    drawn from 0..k."""
    counts = [0] * (p * k + 1)
    for parts in combinations_with_replacement(range(k + 1), p):
        counts[sum(parts)] += 1
    return counts


def grassmannian_presentation(p: int, n: int) -> PresentationIdeal:
    """Small-ring presentation of the Grassmannian of p-planes in n-space.

    Generators sigma_1..sigma_{n-p} (degrees 1..n-p) and q (degree n);
    relations are the determinantal classes in degrees p+1..n-1 together
    with the degree-n one corrected by (-1)^{n-p} q.  The quotient's graded
    ranks are verified against the count of partitions in the p x (n-p) box.
    """
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    k = n - p
    if p * k > 6:
        raise ValueError("presentation supported up to p*(n-p) <= 6")
    relations = [s_r_determinant(p, n, r) for r in range(p + 1, n + 1)]
    degrees = relations[-1].degrees
    relations[-1] = relations[-1] + GradedPoly.variable(degrees, k).scale((-1) ** k)
    ideal = PresentationIdeal(degrees, tuple(relations))

    # The quotient must be free of rank C(n,p) over the parameter, the number
    # of partitions in the box: degree by degree its rank has to equal the
    # box-partition counts, repeated with period deg(q).
    betti = _box_betti(p, k)
    for degree in range(p * k + n + 1):
        expected = sum(
            betti[degree - n * j]
            for j in range(degree // n + 1)
            if degree - n * j <= p * k
        )
        if ideal.rank(degree) != expected:
            raise ArithmeticError(
                f"quotient rank mismatch in degree {degree}: got "
                f"{ideal.rank(degree)}, expected {expected}"
            )
    return ideal


# ---------------------------------------------------------------------------
# Big-ring presentation of the plane
# ---------------------------------------------------------------------------


def presentation_from_big(bundle: PotentialBundle) -> dict[int, GWSeries]:
    """Verify the hyperplane cubic Z^3 = c2 Z^2 + c1 Z + c0 in the plane's
    big ring and return its coefficients {2: c2, 1: c1, 0: c0}.

    Expands the triple star power of T_1, whose pairing with T_l is the
    bracket F(1,1|1,l), and subtracts the cubic with coefficients given by
    the three quantum third partials; the residual must vanish at every key
    of the truncation box in every basis coefficient, else ArithmeticError.
    """
    model = bundle.model
    if (model.dimension, model.top_index, model.divisor_count) != (2, 2, 1):
        raise ValueError("the cubic presentation applies to the plane model")
    g111 = bundle.gamma_partial(1, 1, 1)
    g112 = bundle.gamma_partial(1, 1, 2)
    g122 = bundle.gamma_partial(1, 2, 2)
    pow2 = bundle.product(1, 1)
    pow3 = bundle.raise_index([f_bracket(bundle, 1, 1, 1, l) for l in range(model.rank)])
    residuals: Expansion = {}
    for f in range(model.rank):
        series = pow3[f] - g111 * pow2[f]
        if f == 1:
            series = series - g112.scale(2)
        if f == 0:
            series = series - g122
        residuals[f] = series
    bad = {f: sorted(s.coeffs) for f, s in residuals.items() if not s.is_zero()}
    if bad:
        raise ArithmeticError(f"cubic relation fails at {bad}")
    return {2: g111, 1: g112.scale(2), 0: g122}


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _ring_checks(bundle: PotentialBundle, ring: QuantumRing):
    checks = []
    model = bundle.model
    rank = model.rank
    one = GWSeries.constant(bundle.bounds, 1).coeffs
    unit_ok = True
    for j in range(rank):
        product = big_product(bundle, 0, j)
        unit_ok = unit_ok and all(
            product[f].coeffs == (one if f == j else {}) for f in range(rank)
        )
    checks.append(("big-unit", unit_ok, "T0 is a two-sided unit"))
    comm_ok = True
    for i in range(rank):
        for j in range(i + 1, rank):
            left, right = big_product(bundle, i, j), big_product(bundle, j, i)
            comm_ok = comm_ok and all(left[f].coeffs == right[f].coeffs for f in range(rank))
    checks.append(("big-commutative", comm_ok, "all pairs"))
    # <(T_i*T_j)*T_k - T_i*(T_j*T_k), T_l> is R(i,j,k,l) and g^{-1} is
    # invertible, so the big product is associative iff every canonical
    # residual vanishes: any other R is one of them up to sign, or zero
    failing = [
        quad for quad in wdvv_canonical_equations(model.top_index)
        if not wdvv_residual(bundle, *quad).is_zero()
    ]
    detail = f"nonzero residual {failing[0]}" if failing else "all triples to truncation"
    checks.append(("big-associative", not failing, detail))

    if model == builtin_model("p2"):
        # the cubic holds in any potential; it presents the ring only if the
        # quotient reproduces T2*T2, which is the plane's one WDVV equation
        bad = sorted(wdvv_residual(bundle, 1, 1, 2, 2).coeffs)
        detail = f"T2*T2 not reproduced: nonzero at {bad[:3]}" if bad else "residual zero"
        checks.append(("plane-cubic-presentation", not bad, detail))

    homogeneous, codims = True, model.codims
    for (i, j), expansion in ring.constants.items():
        for f, poly in expansion.items():
            for mono in poly.coeffs:
                if poly.monomial_degree(mono) + codims[f] != codims[i] + codims[j]:
                    homogeneous = False
    checks.append(("small-homogeneous", homogeneous, "structure constants graded"))
    cup_ok = True
    q0 = (0,) * len(model.effective_c1)
    for (i, j), expansion in ring.constants.items():
        for f, poly in expansion.items():
            total = sum(
                model.triple(i, j, e) * model.pairing_inverse[e][f] for e in range(rank)
            )
            if poly.coeffs.get(q0, 0) != total:
                cup_ok = False
    checks.append(("small-q0-is-cup", cup_ok, "classical product recovered"))
    return checks


def _pr_checks(ring: QuantumRing):
    checks = []
    r = ring.model.dimension
    rules_ok = True
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            expansion = {
                f: poly for f, poly in ring.product(i, j).items() if not poly.is_zero()
            }
            # T_i * T_j is T_{i+j} up to the fold and q T_{i+j-r-1} above it
            target, mono = (i + j, (0,)) if i + j <= r else (i + j - r - 1, (1,))
            good = list(expansion) == [target] and expansion[target].coeffs == {mono: 1}
            if not good:
                rules_ok = False
    checks.append((f"pr{r}-product-rules", rules_ok, "cup below the fold, q above"))
    power = ring.basis_power(1, r + 1)
    nonzero = {f: poly for f, poly in power.items() if not poly.is_zero()}
    power_ok = list(nonzero) == [0] and nonzero[0].coeffs == {(1,): 1}
    checks.append((f"pr{r}-hyperplane-power", power_ok, "(r+1)-st power is q"))
    pres = pr_presentation(r)
    high = GradedPoly(pres.degrees, {(r + 2, 0): 1})
    nf_ok = pres.normal_form(high) == pres.normal_form(GradedPoly(pres.degrees, {(1, 1): 1}))
    checks.append((f"pr{r}-normal-form", nf_ok, "T^(r+2) reduces to q*T"))
    return checks


def _grassmannian_checks(p: int, n: int):
    checks = []
    k = n - p
    try:
        ideal = grassmannian_presentation(p, n)
        checks.append(("gr-presentation-rank", True, "graded ranks match, basis count verified"))
    except ArithmeticError as exc:
        return [("gr-presentation-rank", False, str(exc))]

    # the relations are S_(p+1)..S_(n-1), then S_n + (-1)^k q
    q_poly = ideal.variable(k)
    s_r = dict(zip(range(p + 1, n), ideal.relations[:-1]))
    s_r[n] = ideal.relations[-1] - q_poly.scale((-1) ** k)
    s_r[p] = s_r_determinant(p, n, p)
    top = ideal.normal_form(s_r[n])
    classical_ok = top.coeffs == {(0,) * k + (1,): -((-1) ** k)} and all(
        ideal.normal_form(s_r[r]).is_zero() for r in range(p + 1, n)
    )
    checks.append(("gr-classical-relations", classical_ok, "S_i vanish at q=0"))

    identity = s_r[n]
    for i in range(1, k + 1):
        term = s_r[n - i] * ideal.variable(i - 1)
        identity = identity + term.scale((-1) ** i)
    checks.append(("gr-alternating-identity", identity.is_zero(), "formal identity"))

    sigma_k = ideal.variable(k - 1)
    product = ideal.normal_form(sigma_k * s_r[p])
    seed_ok = product == ideal.normal_form(q_poly)
    checks.append(("gr-seed-product", seed_ok, "sigma_k * sigma_(1^p) = q"))
    return checks
