"""Boundary-divisor combinatorics of the space of pointed rational maps.

A boundary divisor is labelled by a datum: a two-sided partition of the
marking set together with an effective splitting of the curve class, subject
to the stability condition that a side carrying the zero class holds at
least two markings.  Data are unordered; we fix the orientation with the
lexicographically least side first.

``intersection_counts`` replays the plane argument: cutting the two sides of
the four-point linear equivalence with a generic curve of incidence
conditions itemizes, datum type by datum type, into products of counts, and
equality of the two sides is exactly the degree-d recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .engine import GWTable
from .series import MultiIndex, binomial_row, class_splits


@dataclass(frozen=True)
class BoundaryDatum:
    """One boundary divisor: marking sides a | b and class parts beta1, beta2."""

    a: frozenset[int]
    b: frozenset[int]
    beta1: MultiIndex
    beta2: MultiIndex

    def is_valid(self, n: int, beta: MultiIndex) -> bool:
        if self.a | self.b != frozenset(range(1, n + 1)) or self.a & self.b:
            return False
        if tuple(x + y for x, y in zip(self.beta1, self.beta2)) != tuple(beta):
            return False
        if any(x < 0 for x in self.beta1 + self.beta2):
            return False
        if not any(self.beta1) and len(self.a) < 2:
            return False
        if not any(self.beta2) and len(self.b) < 2:
            return False
        return True

    def unordered(self) -> frozenset:
        return frozenset(((self.a, self.beta1), (self.b, self.beta2)))


def _complement(beta: MultiIndex, part: MultiIndex) -> MultiIndex:
    return tuple(x - y for x, y in zip(beta, part))


def marking_splits(
    n: int, first: Iterable[int], second: Iterable[int] = ()
) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """Two-sided partitions (side a, side b) of the markings 1..n with
    ``first`` on side a and ``second`` on side b.  The free markings, in
    ascending order, are assigned to side a by the bits of a counter."""
    fixed = set(first) | set(second)
    free = [x for x in range(1, n + 1) if x not in fixed]
    markings = frozenset(range(1, n + 1))
    for mask in range(1 << len(free)):
        side_a = frozenset(first) | {free[x] for x in range(len(free)) if mask >> x & 1}
        yield side_a, markings - side_a


def _split_data(
    n: int, beta: MultiIndex, first: Iterable[int], second: Iterable[int] = ()
) -> list[BoundaryDatum]:
    """The valid data over ``marking_splits`` and every class splitting."""
    data = []
    for side_a, side_b in marking_splits(n, first, second):
        for beta1 in class_splits(beta):
            datum = BoundaryDatum(side_a, side_b, beta1, _complement(beta, beta1))
            if datum.is_valid(n, beta):
                data.append(datum)
    return data


def enumerate_boundary(n: int, beta: MultiIndex) -> list[BoundaryDatum]:
    """All boundary data for n markings and class beta, each exactly once.

    Orientation: for n >= 1 the side containing marking 1 comes first; for
    n = 0 the lexicographically smaller class part comes first.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    beta = tuple(beta)
    if any(x < 0 for x in beta):
        raise ValueError("beta must be effective")
    data: list[BoundaryDatum] = []
    if n == 0:
        empty: frozenset[int] = frozenset()
        for beta1 in class_splits(beta):
            beta2 = _complement(beta, beta1)
            if beta1 > beta2:
                continue  # unordered pair; keep the lexicographically least part
            datum = BoundaryDatum(empty, empty, beta1, beta2)
            if datum.is_valid(0, beta):
                data.append(datum)
        return data
    return _split_data(n, beta, (1,))


def d_sum(
    n: int, beta: MultiIndex, i: int, j: int, k: int, l: int
) -> list[BoundaryDatum]:
    """All boundary data with markings i, j on the first side and k, l on the
    second; the side containing i is reported first."""
    if len({i, j, k, l}) != 4:
        raise ValueError("markings i, j, k, l must be distinct")
    if not all(1 <= x <= n for x in (i, j, k, l)):
        raise ValueError("markings out of range")
    return _split_data(n, tuple(beta), (i, j), (k, l))


# ---------------------------------------------------------------------------
# The geometric derivation of the plane recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountSide:
    """One side of the boundary equivalence cut with the incidence curve.

    ``terms`` holds (d1, d2, partitions, weight, value) per item, with d1 = 0
    for the contracted datum; ``items`` formats the labels only when read.
    """

    label: str
    terms: tuple[tuple[int, int, int, int, int], ...]

    @property
    def total(self) -> int:
        return sum(term[4] for term in self.terms)

    @property
    def items(self) -> tuple[tuple[str, int], ...]:
        return tuple(
            (f"split {d1}+{d2}, {parts} partitions of weight {weight}" if d1
             else "contracted side through the two line markings", value)
            for d1, d2, parts, weight, value in self.terms
        )


@dataclass(frozen=True)
class IntersectionCounts:
    degree: int
    markings: int
    lhs: CountSide
    rhs: CountSide

    @property
    def balanced(self) -> bool:
        return self.lhs.total == self.rhs.total


def intersection_counts(d: int, table: GWTable) -> IntersectionCounts:
    """Evaluate both sides of the plane's boundary equivalence at degree d.

    With 3d markings (two on lines, the rest on points), one side picks up
    the degree-d count from the datum whose line-markings split off with the
    zero class, plus reducible data weighted d1^3 d2; the other side only
    sees reducible data weighted d1^2 d2^2.  The partition counts are the
    binomials C(3d - 4, 3d1 - 1) and C(3d - 4, 3d1 - 2) over the 3d - 4
    interior markings; every item reads them from one binomial row of 3d - 4.
    """
    if d < 2:
        raise ValueError("the equivalence is used for degree at least 2")

    def count_of(degree: int) -> int:
        return table.get((degree,), (3 * degree - 1,))

    n = 3 * d
    row = binomial_row(3 * d - 4)
    lhs_terms = [(0, d, 1, 1, count_of(d))]
    rhs_terms = []
    for d1 in range(1, d):
        d2 = d - d1
        pair = count_of(d1) * count_of(d2)
        lhs_weight, rhs_weight = d1 ** 3 * d2, d1 ** 2 * d2 ** 2
        lhs_partitions, rhs_partitions = row[3 * d1 - 1], row[3 * d1 - 2]
        lhs_terms.append((d1, d2, lhs_partitions, lhs_weight, pair * lhs_weight * lhs_partitions))
        rhs_terms.append((d1, d2, rhs_partitions, rhs_weight, pair * rhs_weight * rhs_partitions))
    return IntersectionCounts(
        degree=d,
        markings=n,
        lhs=CountSide("lines with lines", tuple(lhs_terms)),
        rhs=CountSide("lines split across", tuple(rhs_terms)),
    )
