"""Boundary-divisor combinatorics of the space of pointed rational maps.

A boundary divisor is labelled by a datum: a two-sided partition of the
marking set together with an effective splitting of the curve class, subject
to the stability condition that a side carrying the zero class holds at
least two markings.  Data are unordered; we fix the orientation with the
lexicographically least side first.

``g_bracket`` sums the side invariants of the data with two fixed markings
on each side, pointwise; it is the oracle of the potential's brackets.
``intersection_counts`` replays the plane argument: cutting the two sides of
the four-point linear equivalence with a generic curve of incidence
conditions itemizes, datum type by datum type, into products of counts, and
equality of the two sides is exactly the degree-d recursion.  The totals
pair every class split with its mirror.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .engine import GWTable, gw_invariant, nd_plane
from .series import MultiIndex, binomial_row, class_splits, refuse_assignment, value_eq, value_hash


class BoundaryDatum:
    """One boundary divisor: marking sides a | b and class parts beta1, beta2."""

    __setattr__ = __delattr__ = refuse_assignment
    __eq__, __hash__ = value_eq, value_hash

    def __init__(
        self, a: frozenset[int], b: frozenset[int], beta1: MultiIndex, beta2: MultiIndex
    ) -> None:
        self.__dict__.update(a=a, b=b, beta1=beta1, beta2=beta2)

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


def g_bracket(table: GWTable, beta: MultiIndex, classes: Sequence[int],
              q: int, r: int, s: int, t: int) -> int:
    """Boundary-divisor intersection sum for marked points q,r | s,t.

    Sums, over all two-sided partitions of the markings with q,r on the
    first side and s,t on the second and over all effective splittings of
    beta, the pairing-contracted product of the two side invariants.
    Positions are 1-based into ``classes``.  It is the pointwise oracle of
    the potential's brackets F(i,j|k,l).
    """
    n = len(classes)
    positions = (q, r, s, t)
    if len(set(positions)) != 4 or not all(1 <= x <= n for x in positions):
        raise ValueError("q, r, s, t must be four distinct positions")
    if n < 4:
        raise ValueError("need at least four insertions")
    pairs = table.model.g_inv_pairs()
    total = Fraction(0)
    for side_a, side_b in marking_splits(n, (q, r), (s, t)):
        classes_a = [classes[x - 1] for x in sorted(side_a)]
        classes_b = [classes[x - 1] for x in sorted(side_b)]
        for beta1, beta2 in class_splits(beta):
            for e, f, gef in pairs:
                left = gw_invariant(table, beta1, classes_a + [e])
                if left:
                    total += gef * left * gw_invariant(table, beta2, classes_b + [f])
    if total.denominator != 1:
        raise ArithmeticError(f"boundary sum is not integral: {total}")
    return int(total)


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
    for side_a, side_b in marking_splits(n, (1,) if n else ()):
        for beta1, beta2 in class_splits(beta):
            if not n and beta1 > beta2:
                continue  # unordered pair; keep the lexicographically least part
            datum = BoundaryDatum(side_a, side_b, beta1, beta2)
            if datum.is_valid(n, beta):
                data.append(datum)
    return data


# ---------------------------------------------------------------------------
# The geometric derivation of the plane recursion
# ---------------------------------------------------------------------------


def intersection_counts(d: int, table: GWTable) -> tuple[int, int]:
    """Both sides (lhs, rhs) of the plane's boundary equivalence at degree d.

    With 3d markings (two on lines, the rest on points), one side picks up
    the degree-d count from the datum whose line-markings split off with the
    zero class, plus reducible data weighted d1^3 d2; the other side only
    sees reducible data weighted d1^2 d2^2.  The partition counts are the
    binomials C(3d - 4, 3d1 - 1) and C(3d - 4, 3d1 - 2) over the 3d - 4
    interior markings, read from one binomial row of 3d - 4.  Both totals
    pair each split d1 + d2 with its mirror, so every product N_{d1} N_{d2}
    is formed once.
    """
    if d < 2:
        raise ValueError("the equivalence is used for degree at least 2")
    counts = (0, *(table.get((e,), (3 * e - 1,)) for e in range(1, d + 1)))
    row = binomial_row(3 * d - 4)
    lhs, rhs = counts[d], 0
    for d1 in range(1, d // 2 + 1):
        d2 = d - d1
        lhs_weight = d1 ** 3 * d2 * row[3 * d1 - 1]
        rhs_weight = d1 ** 2 * d2 ** 2 * row[3 * d1 - 2]
        if d1 != d2:
            lhs_weight += d2 ** 3 * d1 * row[3 * d2 - 1]
            rhs_weight += d2 ** 2 * d1 ** 2 * row[3 * d2 - 2]
        pair = counts[d1] * counts[d2]
        lhs, rhs = lhs + pair * lhs_weight, rhs + pair * rhs_weight
    return lhs, rhs


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _boundary_equivalence_checks(table: GWTable, d_max: int):
    """The plane's boundary equivalence at each degree 2..d_max; each side
    is summed once."""
    checks = []
    for d in range(2, d_max + 1):
        lhs, rhs = intersection_counts(d, table)
        checks.append((f"boundary-equivalence-d{d}", lhs == rhs, f"lhs={lhs} rhs={rhs}"))
    return checks


def _boundary_checks(d_max: int):
    top = max(d_max, 2)
    checks = _boundary_equivalence_checks(nd_plane(top), top)
    oracle_ok = True
    for n in range(0, 6):
        for degree in range(0, 3):
            fast = {x.unordered() for x in enumerate_boundary(n, (degree,))}
            slow = _brute_force_boundary(n, (degree,))
            if fast != slow:
                oracle_ok = False
    checks.append(("boundary-enumeration-oracle", oracle_ok, "n<=5, degree<=2 sweep"))
    return checks


def _brute_force_boundary(n, beta):
    found = set()
    splits = [()]
    for entry in beta:
        splits = [prefix + (x,) for prefix in splits for x in range(entry + 1)]
    for mask in range(1 << n):
        side_a = frozenset(x for x in range(1, n + 1) if mask >> (x - 1) & 1)
        side_b = frozenset(range(1, n + 1)) - side_a
        for beta1 in splits:
            beta2 = tuple(x - y for x, y in zip(beta, beta1))
            datum = BoundaryDatum(side_a, side_b, beta1, beta2)
            if datum.is_valid(n, beta):
                found.add(datum.unordered())
    return found
