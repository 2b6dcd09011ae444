"""Rational-curve count tables and the associativity-equation machinery.

Counts are stored per model as a :class:`GWTable`: an exact integer for each
pair (curve class beta, insertion multi-index n over the non-divisor basis
classes).  Three producers are implemented:

* ``nd_plane``:   the classical degree-d plane-curve recursion,
* ``fano3_solve``: the six coupled recursions shared by the projective
  3-space and the quadric threefold, each value derived by one recursion and
  then checked against every applicable instance of all six,
* ``wdvv_solve``:  a generic solver that solves each c1-degree level of the
  associativity system as one exact linear system, its columns read off the
  classical triple products (Kontsevich-Manin reconstruction).

``gw_invariant`` evaluates an arbitrary invariant from a table by the three
reduction rules: a zero curve class gives the classical triple product, a
unit insertion kills the count, and a divisor insertion multiplies by its
degree on the curve class.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .model import FanoModel, ModelError, builtin_model
from .potential import PotentialBundle, build_potential, wdvv_residual
from .series import MultiIndex, binomial_row, binomial_z, compositions, row_reduce

TableKey = tuple[MultiIndex, MultiIndex]


class TableDepthError(LookupError):
    """A dimensionally-valid key was requested beyond the table's coverage."""


class SolveError(RuntimeError):
    """The recursion or equation system could not be solved consistently."""


class GWTable:
    """Exact curve-count table for one model.

    ``entries`` holds every dimensionally-valid key whose c1-degree is at
    most ``c1_max`` (values may be zero); immutable by convention once
    returned from a producer.  Entries given to the constructor go through
    ``add``, so every key passes ``FanoModel.key_problem``.
    """

    def __init__(
        self, model: FanoModel, c1_max: int, entries: Mapping[TableKey, int] | None = None
    ) -> None:
        self.model, self.c1_max = model, c1_max
        self.entries: dict[TableKey, int] = {}
        for (beta, n), value in (entries or {}).items():
            self.add(beta, n, value)

    def add(self, beta: MultiIndex, n: MultiIndex, value: int) -> None:
        if problem := self.model.key_problem(beta, n):
            raise ValueError(f"key {(beta, n)} {problem}")
        if value < 0:
            raise ValueError(f"negative count {value} at {(beta, n)}")
        self.entries[(beta, n)] = value

    def get(self, beta: MultiIndex, n: MultiIndex) -> int:
        key = (beta, n)
        if key in self.entries:
            return self.entries[key]
        if self.model.c1_degree(beta) > self.c1_max:
            raise TableDepthError(
                f"table for {self.model.name} covers c1-degree <= {self.c1_max}; "
                f"key {key} needs c1-degree {self.model.c1_degree(beta)}"
            )
        raise TableDepthError(
            f"table for {self.model.name} is missing in-coverage key {key}"
        )


# ---------------------------------------------------------------------------
# Axiom-based reduction of invariants
# ---------------------------------------------------------------------------


def gw_invariant(table: GWTable, beta: MultiIndex, classes: Sequence[int]) -> int:
    """Evaluate the invariant of ``classes`` against ``beta`` on the table's
    model, folding the insertions into a table key by the three rules."""
    model, beta = table.model, tuple(beta)
    p = model.divisor_count
    if len(beta) != p or any(d < 0 for d in beta):
        raise ValueError(f"{beta} is not an effective class for {model.name}")
    for cls in classes:
        if not 0 <= cls <= model.top_index:
            raise ValueError(f"basis index {cls} out of range")
    if not any(beta):
        return model.triple(*classes) if len(classes) == 3 else 0
    if 0 in classes:
        return 0
    mult = 1
    tally = [0] * len(model.nondivisor_indices)
    for cls in classes:
        if cls <= p:
            mult *= beta[cls - 1]  # the divisor's degree on beta
        else:
            tally[cls - p - 1] += 1
    n = tuple(tally)
    if not mult or not model.dimension_matches(beta, n):
        return 0
    return mult * table.get(beta, n)


# ---------------------------------------------------------------------------
# Plane curves
# ---------------------------------------------------------------------------


def nd_plane_numbers(d_max: int) -> dict[int, int]:
    """Counts of degree-d rational plane curves through 3d-1 general points, each
    split d1 + d2 paired with its mirror so every N_{d1} N_{d2} is formed once."""
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    counts = {1: 1}
    for d in range(2, d_max + 1):
        row = binomial_row(3 * d - 4)
        total = 0
        for d1 in range(1, d // 2 + 1):
            d2 = d - d1
            weight = d1 * d1 * d2 * d2 * row[3 * d1 - 2] - d1 ** 3 * d2 * row[3 * d1 - 1]
            if d1 != d2:
                weight += d1 * d1 * d2 * d2 * row[3 * d2 - 2] - d2 ** 3 * d1 * row[3 * d2 - 1]
            total += counts[d1] * counts[d2] * weight
        counts[d] = total
    return counts


def nd_plane(d_max: int) -> GWTable:
    """Plane-curve table: key ((d,), (3d-1,)) holds the degree-d count."""
    entries = {((d,), (3 * d - 1,)): value for d, value in nd_plane_numbers(d_max).items()}
    return GWTable(builtin_model("p2"), 3 * d_max, entries)


# ---------------------------------------------------------------------------
# The two Fano threefolds
# ---------------------------------------------------------------------------

def _fano3_sums(
    a: int, b: int, k: int, known: Mapping[tuple[int, int], int], rows: Mapping[int, list[int]]
) -> tuple[int, int, int, int, int, int]:
    """Right-hand sides of recursions (1)-(6) at (a, b), in one pass.

    Each sums N_{a1,b1} N_{a-a1,b-b1} times a binomial weight over the
    splittings a1 + 2 b1 = k d1 with 0 < d1 < d, so it reads only strictly
    lower degrees, which must already be in ``known``.  ``rows[n]`` is the
    binomial row of n between two zeros in front and three behind: C(n, m),
    zero-extended, is ``rows[n][m + 2]`` for -2 <= m <= n + 3.
    """
    d = (a + 2 * b) // k
    ra3, ra2, ra1 = rows[a - 3], rows[a - 2], rows[a - 1]
    rb2, rb1, rb0 = rows[b - 2], rows[b - 1], rows[b]
    s1 = s2 = s3 = s4 = s5 = s6 = 0
    for d1 in range(1, d):
        d2 = d - d1
        cube, square, square_d2 = d1 ** 3, d1 * d1, d1 * d1 * d2
        weight = k * d1
        for a1 in range(max(weight % 2, weight - 2 * b), min(a, weight) + 1, 2):
            b1 = (weight - a1) // 2
            pair = known[(a1, b1)] * known[(a - a1, b - b1)]
            if pair == 0:
                continue
            # C(a - 3, a1 - m) is ra3[i - m], C(b - 2, b1 - m) is rb2[j - m]
            i, j = a1 + 2, b1 + 2
            s1 += pair * (rb0[j] * (cube * ra3[i] - square_d2 * ra3[i - 1]))
            s2 += pair * (ra2[i] * (cube * rb1[j] - square_d2 * rb1[j - 1]))
            s3 += pair * (
                2 * square_d2 * ra1[i] * rb2[j - 1]
                - square_d2 * ra1[i - 1] * rb2[j]
                - cube * ra1[i] * rb2[j]
            )
            s4 += pair * (square * (ra3[i] * rb1[j - 1] - ra3[i - 1] * rb1[j]))
            s5 += pair * (
                d1 * d2 * (ra2[i - 1] * rb2[j - 1] - ra2[i - 2] * rb2[j])
                + square * (ra2[i] * rb2[j - 1] - ra2[i - 1] * rb2[j])
            )
            s6 += pair * (d1 * (
                ra3[i] * rb2[j - 2] - 2 * ra3[i - 1] * rb2[j - 1] + ra3[i - 2] * rb2[j]
            ))
    return s1, s2, s3, s4, s5, s6


def fano3_numbers(space: str, d_max: int) -> dict[tuple[int, int], int]:
    """All counts N_{a,b} with a + 2b = k*d, d <= d_max, for p3 or q3.

    N_{a,b} counts degree-d rational curves meeting a general lines and b
    general points.  Degree by degree, the six recursion sums are computed
    once for every point of the degree, since they read only lower degrees.
    Each value other than the seed is derived by one route, the first that
    applies of (3), (5) at (a + 2, b - 1), (2) and (1).  Once the degree is
    filled, ``_fano3_check`` checks every applicable instance of all six
    recursions against the same sums, so the finished table satisfies them.
    The recursions read the c1-degree k of a line, the hyperplane cube c and
    the seed (a, b) off the built-in model.
    """
    if space not in ("p3", "q3"):
        raise ValueError(f"space must be one of ['p3', 'q3'], got {space!r}")
    model = builtin_model(space)
    k, c, ((_, seed, _),) = model.effective_c1[0], model.triple(1, 1, 1), model.seeds
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    known: dict[tuple[int, int], int] = {seed: 1}
    rows = {n: [0, 0, *binomial_row(n), 0, 0, 0] for n in range(-3, k * d_max)}

    def record(target: tuple[int, int], num: int, den: int, route: str) -> None:
        value, rem = divmod(num, den)  # den > 0
        if rem:
            raise SolveError(f"{space}: non-integral value {Fraction(num, den)} for {target} "
                             f"via {route}")
        if value < 0:
            raise SolveError(f"{space}: negative value {value} for {target} via {route}")
        known[target] = value

    for d in range(1, d_max + 1):
        # increasing a: the partner (a - 2, b + 1) of (2) and (1) comes first
        targets = [(a, (k * d - a) // 2) for a in range(k * d % 2, k * d + 1, 2)]
        sums = {(a, b): _fano3_sums(a, b, k, known, rows) for a, b in targets}
        for a, b in targets:
            if (a, b) == seed:
                continue
            s1, s2, s3 = sums[(a, b)][:3]
            if a >= 1 and b >= 2:
                record((a, b), s3, c, "(3)")
            elif b >= 3:
                # (5) at (a + 2, b - 1), one point traded for two lines
                record((a, b), sums[(a + 2, b - 1)][4], 1, "(5)")
            elif a >= 2 and b >= 1:
                record((a, b), d * known[(a - 2, b + 1)] - s2, c, "(2)")
            elif a >= 3:
                record((a, b), 2 * d * known[(a - 2, b + 1)] - s1, c, "(1)")
            else:
                raise SolveError(
                    f"{space}: counts {[(a, b)]} at degree {d} are unreachable "
                    "by the recursions"
                )
        _fano3_check(space, d, c, known, sums)
    return known


# the least (a, b) from which each of recursions (1)-(6) holds
_FANO3_LEAST = ((3, 0), (2, 1), (1, 2), (3, 1), (2, 2), (3, 2))


def _fano3_check(
    space: str, d: int, c: int, known: Mapping[tuple[int, int], int], sums: Mapping
) -> int:
    """Check every applicable recursion instance at the filled degree d
    against that degree's sums; returns the number of instances checked.
    Each left side reads only N_{a,b} and up = N_{a-2,b+1}."""
    checked = 0
    for (a, b), rhs in sums.items():
        value, up = known[(a, b)], known.get((a - 2, b + 1), 0)
        lhs = (2 * d * up - c * value, d * up - c * value, c * value, up, up, 0)
        for r, ((least_a, least_b), left, right) in enumerate(zip(_FANO3_LEAST, lhs, rhs), 1):
            if a >= least_a and b >= least_b:
                if left != right:
                    raise SolveError(f"{space}: recursion ({r}) fails at (a,b)=({a},{b}): "
                                     f"{left} != {right}")
                checked += 1
    return checked


def fano3_solve(space: str, d_max: int) -> GWTable:
    """Table for p3 or q3: key ((d,), (a, b)) counts curves meeting a lines
    and b points."""
    numbers = fano3_numbers(space, d_max)
    model = builtin_model(space)
    k = model.effective_c1[0]
    entries = {(((a + 2 * b) // k,), (a, b)): value for (a, b), value in numbers.items()}
    return GWTable(model, k * d_max, entries)


# ---------------------------------------------------------------------------
# Associativity equation bookkeeping
# ---------------------------------------------------------------------------


def wdvv_count(m: int) -> int:
    """Number of essentially distinct associativity equations for a basis
    with m classes of positive codimension."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 3 * binomial_z(m, 4) + m * binomial_z(m - 1, 2) + binomial_z(m, 2)


def wdvv_canonical_equations(m: int) -> list[tuple[int, int, int, int]]:
    """One index quadruple per associativity equation on indices 1..m.

    The eight symmetries of a 4-cycle permute the two pair partitions
    {ij|kl} and {jk|il} of (i, j, k, l), so they fix its equation up to
    sign; each class is represented by its least image.  A quadruple with
    i == k or j == l compares a partition with itself and gives none.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    found = set()
    for quad in itertools.product(range(1, m + 1), repeat=4):
        if quad[0] != quad[2] and quad[1] != quad[3]:
            turns = [quad[t:] + quad[:t] for t in range(4)]
            found.add(min(turns + [turn[::-1] for turn in turns]))
    return sorted(found)


def _wdvv_checks(bundle: PotentialBundle):
    """The residual sweep: the equation count, then each canonical residual."""
    checks = []
    top_index = bundle.model.top_index
    equations = wdvv_canonical_equations(top_index)
    expected = wdvv_count(top_index)
    checks.append(
        (
            "canonical-equation-count",
            len(equations) == expected,
            f"{len(equations)} classes, formula gives {expected}",
        )
    )
    for quad in equations:
        residual = wdvv_residual(bundle, *quad)
        bad = sorted(residual.coeffs)
        checks.append(
            (
                "residual-A" + "".join(map(str, quad)),
                not bad,
                "zero series" if not bad else f"nonzero at {bad[:3]}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Generic solver
# ---------------------------------------------------------------------------


def wdvv_solve(model: FanoModel, seeds: GWTable, c1_max: int) -> GWTable:
    """Solve for every count with c1-degree at most ``c1_max`` from seeds.

    Each c1 level is one exact linear system: the coefficients, at the
    level's keys, of the associativity residual of every canonical quadruple.
    There a count x q^beta y^n/n! of the level enters (i,j,k,l) linearly:

        sum_f C_ij^f d_fkl + C_kl^f d_ijf - C_jk^f d_fil - C_il^f d_jkf,

    C_ab^f = sum_e c_abe g^ef (0 for f = 0).  A derivative d along divisor a
    multiplies by beta_a, one along a non-divisor class lowers that entry of
    n, and a negative entry gives 0; so an unknown's column is read off the
    classical triples.  The constant column is ``wdvv_residual`` of the known
    counts on a potential floored at the level: the level's seeds and pairs
    of lower counts.  Every row stays in, so a solved level is verified.
    """
    if seeds.model != model:
        raise ValueError("seed table belongs to a different model")
    known = GWTable(model, c1_max, {
        key: value for key, value in seeds.entries.items() if model.c1_degree(key[0]) <= c1_max
    })

    quads = wdvv_canonical_equations(model.top_index)
    for level in range(1, c1_max + 1):
        if next(compositions(model.effective_c1, level), None) is None:
            continue  # no curve class has this c1-degree
        unknowns, rows = _level_system(known, level, quads)
        equations = sorted(rows)
        pivots, origin = row_reduce(rows[eq] for eq in equations)
        const = len(unknowns)
        if const in pivots:
            quad, key = equations[origin[const]]
            raise SolveError(
                f"inconsistent system at c1-degree {level} on {model.name}: "
                f"equation {quad} at key {key} cannot vanish"
            )
        free = [
            unknown
            for col, unknown in enumerate(unknowns)
            if col not in pivots or any(c != col and c != const for c in pivots[col])
        ]
        if free:
            raise SolveError(
                f"no unique solution at c1-degree {level} on {model.name}: "
                f"unknowns {free} are not determined"
            )
        for col, unknown in enumerate(unknowns):
            value = -pivots[col].get(const, 0)
            if value.denominator != 1:
                raise SolveError(f"non-integral solution {value} for {unknown}")
            if value < 0:
                raise SolveError(f"negative solution {value} for {unknown}")
            known.add(*unknown, int(value))
    return known


def _level_system(known: GWTable, level: int, quads: Sequence) -> tuple[list, dict]:
    """The unknowns of one c1 level and the rows {(quad, key): {column: value}}
    of its system, the constant column last, as ``wdvv_solve`` describes."""
    model = known.model
    p, pairs = model.divisor_count, model.g_inv_pairs()
    unknowns = [
        (beta, n)
        for beta in compositions(model.effective_c1, level)
        for n in compositions(model.insertion_weights(), model.dimension + level - 3)
        if (beta, n) not in known.entries
    ]
    linear: dict[tuple, list] = {}  # sorted triple t -> [(quad, coefficient of d_t)]
    for quad in quads:
        i, j, k, l = quad
        terms = ((1, i, j, k, l), (1, k, l, i, j), (-1, j, k, i, l), (-1, i, l, j, k))
        for sign, a, b, c, d in terms:
            for e, f, gef in pairs:
                if model.triple(a, b, e):
                    t = tuple(sorted((f, c, d)))
                    linear.setdefault(t, []).append((quad, sign * model.triple(a, b, e) * gef))
    rows: dict[tuple, dict] = {}
    for col, (beta, n) in enumerate(unknowns):
        for t, uses in linear.items():
            shifted = [m - t.count(p + 1 + s) for s, m in enumerate(n)]
            factor = math.prod(beta[x - 1] for x in t if x <= p)
            if factor and min(shifted, default=0) >= 0:
                key = (beta, tuple(shifted))
                for quad, value in uses:
                    row = rows.setdefault((quad, key), {})
                    row[col] = row.get(col, 0) + value * factor

    bundle = build_potential(known, level, level)
    for quad in quads:
        for key, value in wdvv_residual(bundle, *quad).coeffs.items():
            rows.setdefault((quad, key), {})[len(unknowns)] = value
    return unknowns, {q: r for q, row in rows.items() if (r := {c: v for c, v in row.items() if v})}


# ---------------------------------------------------------------------------
# Standard seeds and tables, chosen by model data
# ---------------------------------------------------------------------------


def standard_seeds(model: FanoModel) -> GWTable:
    """The seed counts the model carries, as a table to solve from."""
    if not model.seeds:
        raise ModelError(f"model {model.name!r} carries no seeds")
    return GWTable(model, max(model.effective_c1), {(beta, n): v for beta, n, v in model.seeds})


def standard_table(model: FanoModel, c1_max: int) -> GWTable:
    """Curve-count table via the fastest validated route for the model.

    A model whose data are those of p2, p3 or q3, under any name, gets its
    dedicated recursion; any other model is solved from its own seeds.  The
    table is always returned on the caller's model and covers exactly the
    requested bound: ``c1_max`` is the request, and no entry lies above it.
    """
    for space in ("p2", "p3", "q3"):
        if model == builtin_model(space):
            d_max = max(1, c1_max // model.effective_c1[0])
            table = nd_plane(d_max) if space == "p2" else fano3_solve(space, d_max)
            # the recursion's model equals this one by data, so every key it
            # added already passed this model's key_problem
            result = GWTable(model, c1_max)
            result.entries.update(
                (key, value)
                for key, value in table.entries.items()
                if model.c1_degree(key[0]) <= c1_max
            )
            return result
    return wdvv_solve(model, standard_seeds(model), c1_max)
