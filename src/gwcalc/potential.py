"""The quantum potential of a count table and its associativity residuals.

The potential is stored with the divisor directions exponentiated away, so
its divided-power coefficients are exactly the table's counts.  Third
partials are the series

    phi_{ijk} = (classical triple product)  +  d^3(potential)/dy_i dy_j dy_k,

the big product T_i * T_j has the coefficients sum_e phi_{ije} g^{ef}, and
the bracket F(i,j|k,l) = sum_f (T_i * T_j)_f phi_{fkl} = <(T_i * T_j) * T_k, T_l>
is the one contraction behind every triple product of the big ring.  Since
F = sum phi_{ije} g^{ef} phi_{fkl} and g^{ef} is symmetric, F depends only on
the pair partition {{i,j},{k,l}}, and it is built once per partition.  The
residual of an index quadruple compares two partitions,
F(i,j|k,l) - F(j,k|i,l); for a correct table it vanishes identically.

The dimension constraint sum (codim T_i - 1) n_i = dim + c1(beta) - 3 caps
the total degree of every key at dim + c1 - 3, so within a c1 bound the
series are exact on their whole truncation box and a residual is checked at
every stored key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .model import FanoModel
from .series import GWSeries, SeriesBounds, series_partial

if TYPE_CHECKING:
    from .engine import GWTable


# Expansion of a big-ring element over the model's basis: index -> series.
Expansion = dict[int, GWSeries]


class PotentialBundle:
    """A model's truncated potential plus caches of what is derived from it.

    ``_phi`` holds the third partials, keyed by the sorted index triple.
    ``_products`` holds the big-ring products T_i * T_j, keyed by the ordered
    pair, so the two orders are still built separately.  ``_brackets`` holds
    the ``f_bracket`` values F(i,j|k,l), keyed by the pair partition
    {{i,j},{k,l}}: both pairs sorted, the lesser pair first.  Cached values
    are shared; ``qring.big_product`` hands out copies.
    """

    def __init__(self, model: FanoModel, bounds: SeriesBounds, gamma: GWSeries) -> None:
        self.model, self.bounds, self.gamma = model, bounds, gamma
        self._phi: dict[tuple[int, int, int], GWSeries] = {}
        self._products: dict[tuple[int, int], Expansion] = {}
        self._brackets: dict[tuple[int, int, int, int], GWSeries] = {}

    def phi(self, i: int, j: int, k: int) -> GWSeries:
        """Third partial of the full potential, classical part included.

        Symmetric in (i, j, k); an index 0 contributes only the pairing.
        """
        key = tuple(sorted((i, j, k)))
        cached = self._phi.get(key)
        if cached is not None:
            return cached
        constant = GWSeries.constant(self.bounds, self.model.triple(*key))
        if 0 in key:
            series = constant
        else:
            series = self.gamma
            for index in key:
                series = series_partial(series, index)
            series = constant + series
        self._phi[key] = series
        return series

    def product(self, i: int, j: int) -> Expansion:
        """Expansion of T_i * T_j over the basis; the cached dict itself."""
        cached = self._products.get((i, j))
        if cached is None:
            cached = self._products[(i, j)] = self.raise_index(
                [self.phi(i, j, e) for e in range(self.model.rank)]
            )
        return cached

    def raise_index(self, covector: Sequence[GWSeries]) -> Expansion:
        """The element X = sum_f X_f T_f with <X, T_e> = covector[e], that is
        X_f = sum_e covector[e] g^{ef}."""
        out: Expansion = {f: GWSeries(self.bounds) for f in range(self.model.rank)}
        for e, f, gef in self.model.g_inv_pairs():
            out[f] = out[f] + covector[e].scale(gef)
        return out

    def gamma_partial(self, i: int, j: int, k: int) -> GWSeries:
        """Third partial of the quantum part alone."""
        return self.phi(i, j, k) - GWSeries.constant(
            self.bounds, self.model.triple(i, j, k)
        )


def build_potential(table: GWTable, max_c1: int, min_c1: int = 0) -> PotentialBundle:
    """Assemble the potential of a table on its model, truncated at c1-degree
    ``max_c1``, its products floored at c1-degree ``min_c1``.

    The table must cover the requested bound; its int counts appear verbatim
    as coefficients, so the potential is an int series, and its products stay
    ints unless the model's inverse pairing has denominators.  Every table key
    meets the dimension constraint, which caps its total degree at
    dim + max_c1 - 3, the series box's total-degree bound (clipped at 0), so
    the series is exact on its whole box.
    """
    model = table.model
    if max_c1 > table.c1_max:
        raise ValueError(
            f"requested c1-degree {max_c1} exceeds table coverage {table.c1_max}"
        )
    bounds = SeriesBounds(
        model.effective_c1, max_c1, len(model.nondivisor_indices),
        max(model.dimension + max_c1 - 3, 0), min_c1,
    )
    terms = {
        (beta, n): value
        for (beta, n), value in table.entries.items()
        if value and model.c1_degree(beta) <= max_c1
    }
    return PotentialBundle(model, bounds, GWSeries(bounds, terms))


def f_bracket(bundle: PotentialBundle, i: int, j: int, k: int, l: int) -> GWSeries:
    """F(i,j|k,l) = sum_f (T_i * T_j)_f phi_{fkl} = <(T_i * T_j) * T_k, T_l>,
    built once per bundle and pair partition {{i,j},{k,l}}; a term with a zero
    factor is skipped, not multiplied."""
    first, second = sorted(((min(i, j), max(i, j)), (min(k, l), max(k, l))))
    key = first + second
    cached = bundle._brackets.get(key)
    if cached is None:
        cached = GWSeries(bundle.bounds)
        for f, coeff in bundle.product(*first).items():
            if not coeff.is_zero() and not (phi := bundle.phi(f, *second)).is_zero():
                cached = cached + coeff * phi
        bundle._brackets[key] = cached
    return cached


def wdvv_residual(bundle: PotentialBundle, i: int, j: int, k: int, l: int) -> GWSeries:
    """R(i,j,k,l) = F(i,j|k,l) - F(j,k|i,l); the zero series for a correct
    table.

    It is zero on any table, and built from no bracket, when an index is 0
    (both brackets are then phi of the other three) or an outer index repeats
    (i == k or j == l, so both pair partitions are the same).
    """
    if 0 in (i, j, k, l) or i == k or j == l:
        return GWSeries(bundle.bounds)
    return f_bracket(bundle, i, j, k, l) - f_bracket(bundle, j, k, i, l)
