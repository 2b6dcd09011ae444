"""Exact arithmetic substrate: zero-extended binomials, divided-power series,
exact Gauss-Jordan elimination, and graded integer polynomials.

Everything here is exact.  Integers are Python ints, rationals are
``fractions.Fraction``; no floats appear anywhere.  Series coefficients are
``int | Fraction``: ints while every input is an int, with a Fraction only
from a non-integral input, such as a non-unimodular model's inverse pairing.

A divided-power series lives in the module

    Q[[q_1..q_p]] [[y_1..y_r]]   with   y^n/n!  as the monomial basis,

sparse-encoded as a map

    (beta, n)  ->  coefficient of  q^beta * prod_i y_i^{n_i} / n_i!

where beta is a vector of curve-class exponents (the "divisor" directions,
which only ever enter through exponentials q_i = e^{y_i}) and n is a
multi-index over the remaining variables.  Storing the divided-power
coefficient means curve counts appear verbatim as coefficients.

Series are truncated: keys are capped by a bound on the c1-degree of beta
(each beta coordinate carries a fixed positive weight) and by a bound on the
total degree of n.  Operations silently drop out-of-bound keys, i.e. we work
modulo the truncation ideal, so every stored coefficient is exact.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping

# A multi-index: one non-negative exponent per variable.
MultiIndex = tuple[int, ...]

# Series key: (curve-class exponent vector, non-divisor multi-index).
Key = tuple[MultiIndex, MultiIndex]

# An exact series coefficient; ints stay ints through every operation.
Coefficient = int | Fraction


def _exact(value: Coefficient) -> Coefficient:
    """The value itself; anything but an int or a Fraction, a float above all, is refused."""
    if type(value) is not int and type(value) is not Fraction:
        raise TypeError(f"series coefficients must be int or Fraction, not {type(value).__name__}")
    return value


def binomial_z(n: int, m: int) -> int:
    """Binomial coefficient C(n, m), defined as 0 if n, m or n-m is negative."""
    if n < 0 or m < 0 or n - m < 0:
        return 0
    return math.comb(n, m)


def binomial_row(n: int) -> list[int]:
    """The row C(n, 0), ..., C(n, n), empty for n < 0.

    Built by C(n, m+1) = C(n, m) * (n - m) / (m + 1), where every division is
    exact, and mirrored by C(n, n-m) = C(n, m); so a kernel that reads many
    binomials with the same n pays for one row instead of one ``math.comb``
    per read.
    """
    row = [1] * (n + 1)
    for m in range(n // 2):
        row[m + 1] = row[n - m - 1] = row[m] * (n - m) // (m + 1)
    return row


def total_degree(n: MultiIndex) -> int:
    """Total degree of a multi-index."""
    return sum(n)


def index_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(add, a, b))


def accumulate(target: dict, items: Iterable[tuple], factor: Coefficient = 1) -> dict:
    """In place: target += factor * items, dropping entries that cancel; returns target."""
    for key, value in items:
        acc = target.get(key, 0) + factor * value
        if acc:
            target[key] = acc
        else:
            target.pop(key, None)
    return target


def class_splits(beta: MultiIndex) -> list[tuple[MultiIndex, MultiIndex]]:
    """Every splitting (beta1, beta - beta1) with 0 <= beta1 <= beta
    componentwise, in lexicographic order of beta1."""
    return [
        (beta1, tuple(x - y for x, y in zip(beta, beta1)))
        for beta1 in itertools.product(*(range(d + 1) for d in beta))
    ]


def compositions(weights: tuple[int, ...], target: int) -> Iterator[MultiIndex]:
    """All multi-indices n with sum(n_i * weights_i) = target.

    All weights must be positive, so the enumeration is finite.
    """
    if target < 0:
        return
    if not weights:
        if target == 0:
            yield ()
        return
    w, rest = weights[0], weights[1:]
    for head in range(target // w + 1):
        for tail in compositions(rest, target - head * w):
            yield (head,) + tail


def refuse_assignment(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable types: ``__init__``
    fills the instance ``__dict__`` once, and nothing changes it after."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


def value_eq(self, other: object) -> bool:
    """``__eq__`` of the value types: the same type with equal attributes."""
    if type(other) is not type(self):
        return NotImplemented
    return vars(self) == vars(other)


def value_hash(self) -> int:
    """``__hash__`` of the hashable value types, read off the attributes."""
    return hash(tuple(vars(self).values()))


class SeriesBounds:
    """Ambient data shared by a family of divided-power series; an immutable,
    hashable value.

    beta_weights: positive c1-weight of each curve-class coordinate.
    max_c1: hard cap on the weighted beta degree of stored keys.
    n_vars: number of non-divisor variables.
    max_total: hard cap on the total degree of non-divisor exponents.
    min_c1: floor on the weighted beta degree of a product's keys; sums
    are not floored.
    """

    __setattr__ = __delattr__ = refuse_assignment
    __eq__, __hash__ = value_eq, value_hash

    def __init__(
        self, beta_weights: tuple[int, ...], max_c1: int, n_vars: int, max_total: int,
        min_c1: int = 0,
    ) -> None:
        if any(w <= 0 for w in beta_weights):
            raise ValueError("beta weights must be positive")
        if max_c1 < 0 or max_total < 0:
            raise ValueError("truncation bounds must be non-negative")
        self.__dict__.update(
            beta_weights=beta_weights, max_c1=max_c1, n_vars=n_vars, max_total=max_total,
            min_c1=min_c1,
        )

    def c1_degree(self, beta: MultiIndex) -> int:
        return sum(map(mul, self.beta_weights, beta))


class GWSeries:
    """Truncated divided-power series with exact ``int | Fraction`` coefficients.

    Immutable after construction, compared by value and unhashable; zero
    coefficients are never stored.  ``GWSeries(bounds, coeffs)`` takes a map
    whose keys are in bounds and whose values are nonzero ints or Fractions,
    and checks none of that; ``constant`` and ``scale`` refuse anything but an
    int or a Fraction.  Every operation keeps an int series int, so a Fraction
    appears only where one was put in.
    """

    __setattr__ = __delattr__ = refuse_assignment
    __eq__ = value_eq

    def __init__(
        self, bounds: SeriesBounds, coeffs: Mapping[Key, Coefficient] | None = None
    ) -> None:
        self.__dict__.update(bounds=bounds, coeffs={} if coeffs is None else coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, bounds: SeriesBounds, value: Coefficient) -> "GWSeries":
        if not _exact(value):
            return cls(bounds)
        key = ((0,) * len(bounds.beta_weights), (0,) * bounds.n_vars)
        return cls(bounds, {key: value})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic -------------------------------------------------------

    def _require_same_bounds(self, other: "GWSeries") -> None:
        if self.bounds != other.bounds:
            raise ValueError("series bounds mismatch")

    def __add__(self, other: "GWSeries") -> "GWSeries":
        self._require_same_bounds(other)
        return GWSeries(self.bounds, accumulate(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other: "GWSeries") -> "GWSeries":
        return self + other.scale(-1)

    def scale(self, value: Coefficient) -> "GWSeries":
        if not _exact(value):
            return GWSeries(self.bounds, {})
        return GWSeries(self.bounds, {k: v * value for k, v in self.coeffs.items()})

    def __mul__(self, other: "GWSeries") -> "GWSeries":
        """Divided-power product, truncated to the shared bounds, at keys of
        c1-degree ``bounds.min_c1`` or more.

        The coefficient at (beta, n) is the convolution over beta = b1 + b2,
        n = n1 + n2 weighted by the per-variable binomials C(n_i, n1_i).
        Both degrees add, so the right factor's terms are sorted by
        (c1-degree, total degree) and each left term meets only the pairs
        that land inside the bounds and the floor.  The weight is 1 when either
        n is zero, and otherwise only coordinates with 0 < n1_i < n_i contribute.
        """
        self._require_same_bounds(other)
        bounds = self.bounds
        c1_degree, c1_floor = bounds.c1_degree, bounds.min_c1
        right = [(c1_degree(b), total_degree(n), b, n, v) for (b, n), v in other.coeffs.items()]
        right.sort(key=itemgetter(0, 1))
        degrees = [term[0] for term in right] if c1_floor else None
        coeffs: dict[Key, Coefficient] = {}
        get = coeffs.get
        for (b1, n1), v1 in self.coeffs.items():
            c1_left = c1_degree(b1)
            c1_budget = bounds.max_c1 - c1_left
            n1_total = total_degree(n1)
            total_budget = bounds.max_total - n1_total
            start = bisect_left(degrees, c1_floor - c1_left) if c1_floor else 0
            for c1, total, b2, n2, v2 in itertools.islice(right, start, None) if start else right:
                if c1 > c1_budget:
                    break
                if total > total_budget:
                    continue
                value = v1 * v2
                if n1_total and total:
                    n = tuple(map(add, n1, n2))
                    for t, part in zip(n, n1):
                        if 0 < part < t:
                            value *= math.comb(t, part)
                else:
                    n = n2 if total else n1
                key = (tuple(map(add, b1, b2)), n)
                acc = get(key, 0) + value
                if acc:
                    coeffs[key] = acc
                else:
                    coeffs.pop(key, None)
        return GWSeries(bounds, coeffs)


def series_partial(a: GWSeries, var: int) -> GWSeries:
    """Partial derivative with respect to variable ``var`` (1-based).

    Variables 1..p are the divisor directions, entering via q_i = e^{y_i}:
    differentiation multiplies the (beta, n) coefficient by beta_{var}.
    Variables p+1..p+n_vars are divided-power directions: the coefficient at
    n is the old coefficient at n + e_var.
    """
    bounds = a.bounds
    p = len(bounds.beta_weights)
    if 1 <= var <= p:
        i = var - 1
        coeffs = {}
        for (beta, n), value in a.coeffs.items():
            if beta[i]:
                coeffs[(beta, n)] = value * beta[i]
        return GWSeries(bounds, coeffs)
    if p < var <= p + bounds.n_vars:
        j = var - p - 1
        coeffs = {}
        for (beta, n), value in a.coeffs.items():
            if n[j]:
                shifted = list(n)
                shifted[j] -= 1
                coeffs[(beta, tuple(shifted))] = value
        return GWSeries(bounds, coeffs)
    raise ValueError(f"unknown variable {var} (expected 1..{p + bounds.n_vars})")


# ---------------------------------------------------------------------------
# Exact linear elimination
# ---------------------------------------------------------------------------

Row = dict[int, Coefficient]


def row_reduce(
    rows: Iterable[Mapping[int, Coefficient]],
) -> tuple[dict[int, Row], dict[int, int]]:
    """Reduced row echelon form of the span of sparse rows, by exact
    Gauss-Jordan elimination.

    A row maps column index -> coefficient; rows are absorbed in order and a
    row's pivot is its smallest nonzero column.  Returns ``(pivots, origin)``:
    ``pivots`` maps each pivot column to its reduced row (1 at the pivot, 0 in
    every other pivot column), and ``origin`` maps each pivot column to the
    position of the input row that introduced it.
    """
    pivots: dict[int, Row] = {}
    origin: dict[int, int] = {}
    for position, entries in enumerate(rows):
        row = {col: value for col, value in entries.items() if value}
        # pivot rows vanish in every other pivot column, so the order of
        # these subtractions does not matter
        for col in [c for c in row if c in pivots]:
            accumulate(row, pivots[col].items(), -row[col])
        if not row:
            continue
        lead = min(row)
        if row[lead] != 1:  # a lead of -1 keeps an integer row integral
            inv = -1 if row[lead] == -1 else Fraction(1, row[lead])
            row = {col: value * inv for col, value in row.items()}
        for other in pivots.values():
            if lead in other:
                accumulate(other, row.items(), -other[lead])
        pivots[lead] = row
        origin[lead] = position
    return pivots, origin


# ---------------------------------------------------------------------------
# Graded integer polynomials
# ---------------------------------------------------------------------------


class GradedPoly:
    """Sparse polynomial over the integers with graded variables; immutable,
    compared by value and unhashable.

    ``degrees`` assigns each variable a positive integer degree; variables
    print as x0, x1, ...  Zero terms are never stored.
    """

    __setattr__ = __delattr__ = refuse_assignment
    __eq__ = value_eq

    def __init__(
        self, degrees: tuple[int, ...], coeffs: Mapping[MultiIndex, int] | None = None
    ) -> None:
        coeffs = {} if coeffs is None else coeffs
        for mono, value in coeffs.items():
            if len(mono) != len(degrees):
                raise ValueError("monomial arity mismatch")
            if value == 0:
                raise ValueError("zero coefficients must not be stored")
        self.__dict__.update(degrees=degrees, coeffs=coeffs)

    @classmethod
    def constant(cls, degrees: tuple[int, ...], value: int) -> "GradedPoly":
        if value == 0:
            return cls(degrees)
        return cls(degrees, {(0,) * len(degrees): value})

    @classmethod
    def variable(cls, degrees: tuple[int, ...], index: int) -> "GradedPoly":
        mono = [0] * len(degrees)
        mono[index] = 1
        return cls(degrees, {tuple(mono): 1})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def monomial_degree(self, mono: MultiIndex) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def homogeneous_degree(self) -> int | None:
        """The common graded degree of all terms, or None if inhomogeneous.

        The zero polynomial reports degree 0.
        """
        found = {self.monomial_degree(m) for m in self.coeffs}
        if not found:
            return 0
        if len(found) > 1:
            return None
        return found.pop()

    # -- arithmetic -------------------------------------------------------

    def _same_ring(self, other: "GradedPoly") -> None:
        if self.degrees != other.degrees:
            raise ValueError("polynomial ring mismatch")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._same_ring(other)
        return GradedPoly(self.degrees, accumulate(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + other.scale(-1)

    def scale(self, value: int) -> "GradedPoly":
        if value == 0:
            return GradedPoly(self.degrees, {})
        return GradedPoly(self.degrees, {m: c * value for m, c in self.coeffs.items()})

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._same_ring(other)
        coeffs: dict[MultiIndex, int] = {}
        for m1, c1 in self.coeffs.items():
            accumulate(coeffs, ((index_add(m1, m2), c2) for m2, c2 in other.coeffs.items()), c1)
        return GradedPoly(self.degrees, coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mono, value in sorted(self.coeffs.items()):
            factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{value}*{body}" if factors else str(value))
        return " + ".join(parts)
