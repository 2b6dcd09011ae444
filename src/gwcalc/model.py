"""Cohomological models of small homogeneous spaces.

A :class:`FanoModel` packages the static intersection data every other module
consumes: a graded basis T_0..T_m (T_0 the unit, T_1..T_p the divisor
classes), the Poincare pairing and its exact inverse, the classical triple
products, and the lattice of effective curve classes.  Effective classes are
non-negative integer vectors in the basis dual to T_1..T_p; each generator
carries its anticanonical degree, which is at least 1.

Models carry only their seeds, the few counts the associativity equations
start from; every other count lives in tables produced by the engine.  A
model is valid by construction, and ``FanoModel.key_problem`` is the one
check of a count's key, for seeds and tables alike.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .series import MultiIndex, refuse_assignment, row_reduce


class ModelError(ValueError):
    """A model file or constructor violated a structural invariant."""


def _invert_exact(matrix: list[list[int]]) -> list[list[int | Fraction]]:
    """Exact inverse of a square integer matrix: row-reducing [M | I] gives
    [I | M^-1] exactly when M is nonsingular.  Integral entries come back as
    ints, so a unimodular pairing keeps every series product integral."""
    size = len(matrix)
    pivots, _ = row_reduce(
        {**dict(enumerate(row)), size + i: 1} for i, row in enumerate(matrix)
    )
    if sorted(pivots) != list(range(size)):
        raise ModelError("pairing matrix is singular")
    inverse = [[pivots[i].get(size + j, 0) for j in range(size)] for i in range(size)]
    return [[int(v) if v.denominator == 1 else v for v in row] for row in inverse]


# The constructor's parameters, in order; ``FanoModel.replace`` reads them back.
_FIELDS = (
    "name", "dimension", "basis_names", "codims", "pairing", "triples", "effective_c1", "seeds"
)


class FanoModel:
    """Intersection-theoretic data of a space: an immutable, hashable value
    whose ``triples`` is a read-only view, left out of the hash.  The name is
    only a label: equality and hash read the data alone.

    Every construction, ``replace`` included, checks every structural
    invariant and raises :class:`ModelError` naming the first one broken.
    ``triples`` may key a product by its indices in any order; it is stored
    by the sorted index triple, zeros dropped.  Generator i of
    ``effective_c1`` is dual to the divisor T_{i+1}; each entry is the
    generator's anticanonical degree.  ``seeds`` lists (beta, n, value)
    counts in the table-key convention and is stored sorted.  The exact
    inverse pairing is derived, never given.
    """

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(
        self,
        name: str,
        dimension: int,
        basis_names: tuple[str, ...],
        codims: tuple[int, ...],
        pairing: tuple[tuple[int, ...], ...],
        triples: Mapping[tuple[int, int, int], int],
        effective_c1: tuple[int, ...],
        seeds: tuple[tuple[MultiIndex, MultiIndex, int], ...] = (),
    ) -> None:
        # lists are stored as tuples, so equality, hash and slices read one type
        basis_names, codims, effective_c1 = tuple(basis_names), tuple(codims), tuple(effective_c1)
        pairing = tuple(map(tuple, pairing))
        seeds = tuple((tuple(beta), tuple(n), value) for beta, n, value in seeds)
        given = (name, dimension, basis_names, codims, pairing, triples, effective_c1, seeds)
        self.__dict__.update(zip(_FIELDS, given))
        rank = self.rank
        if len(basis_names) != rank:
            raise ModelError(
                f"basis needs one name per class: {len(basis_names)} names for {rank} classes"
            )
        if not isinstance(name, str):
            raise ModelError(f"model name {name!r} is not a string")
        for index, label in enumerate(basis_names):
            if not isinstance(label, str):
                raise ModelError(f"basis class {index} has name {label!r}, not a string")
        if rank == 0 or codims[0] != 0:
            raise ModelError("basis must start with the unit class of codimension 0")
        if codims.count(0) != 1:
            raise ModelError("exactly one basis class may have codimension 0")
        p = self.divisor_count
        if codims[1 : p + 1] != (1,) * p or any(c < 2 for c in codims[p + 1 :]):
            raise ModelError("basis must be ordered unit, divisors, higher codimension")
        if any(c > dimension for c in codims):
            raise ModelError("basis codimension exceeds the dimension")
        for k in range(dimension + 1):
            low, high = codims.count(k), codims.count(dimension - k)
            if low != high:
                raise ModelError(
                    f"basis counts violate duality: {low} classes in codimension {k} "
                    f"but {high} in codimension {dimension - k}"
                )

        if len(pairing) != rank or any(len(row) != rank for row in pairing):
            raise ModelError("pairing matrix has the wrong shape")
        for i in range(rank):
            for j in range(rank):
                if pairing[i][j] != pairing[j][i]:
                    raise ModelError("pairing matrix is not symmetric")
                if pairing[i][j] and codims[i] + codims[j] != dimension:
                    raise ModelError("pairing must vanish off complementary codimension")
        inverse = tuple(map(tuple, _invert_exact(pairing)))

        stored: dict[tuple[int, int, int], int] = {}
        for (i, j, k), value in triples.items():
            if not all(0 <= x < rank for x in (i, j, k)):
                raise ModelError(f"triple {(i, j, k)} has an index outside 0..{rank - 1}")
            if value == 0:
                continue
            key = tuple(sorted((i, j, k)))
            if stored.setdefault(key, value) != value:
                raise ModelError(f"conflicting triple product at {key}")
            if codims[i] + codims[j] + codims[k] != dimension:
                raise ModelError(f"triple {key} violates the codimension constraint")
        for j in range(rank):
            for k in range(rank):
                if stored.get(tuple(sorted((0, j, k))), 0) != pairing[j][k]:
                    raise ModelError(
                        f"unit law fails: triple (0,{j},{k}) must equal the pairing"
                    )

        if len(effective_c1) != p:
            raise ModelError("need exactly one effective generator per divisor class")
        for dual, c1 in enumerate(effective_c1, 1):
            if c1 < 1:
                raise ModelError(
                    f"effective generator dual to T_{dual} has anticanonical degree "
                    f"{c1}; the anticanonical class is ample, so every curve has at least 1"
                )

        keys = [(beta, n) for beta, n, _ in seeds]
        for beta, n, value in seeds:
            key = (beta, n)
            if problem := self.key_problem(*key):
                raise ModelError(f"seed {key} {problem}")
            if type(value) is not int or value < 0:
                raise ModelError(f"seed {key} has value {value!r}, not a non-negative integer")
            if keys.count(key) > 1:
                raise ModelError(f"seed {key} appears twice")

        pairs = tuple((e, f, v) for e, row in enumerate(inverse) for f, v in enumerate(row) if v)
        self.__dict__.update(
            triples=MappingProxyType(stored), seeds=tuple(sorted(seeds)),
            pairing_inverse=inverse, _g_inv_pairs=pairs,
        )

    def replace(self, **changes: object) -> FanoModel:
        """A copy with the given constructor arguments changed, validated as
        any construction is."""
        return FanoModel(**{**{attr: getattr(self, attr) for attr in _FIELDS}, **changes})

    def _data(self) -> tuple:
        """What the hash reads: everything but the name, the triples and the
        derived inverse pairing.  Equality reads the triples too."""
        return (
            self.dimension, self.basis_names, self.codims, self.pairing, self.effective_c1,
            self.seeds,
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not FanoModel:
            return NotImplemented
        return self._data() == other._data() and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self._data())

    # -- basic structure ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.codims)

    @property
    def top_index(self) -> int:
        """m, the largest basis index."""
        return len(self.codims) - 1

    @property
    def divisor_count(self) -> int:
        return sum(1 for c in self.codims if c == 1)

    @property
    def nondivisor_indices(self) -> tuple[int, ...]:
        p = self.divisor_count
        return tuple(range(p + 1, self.rank))

    def g_inv_pairs(self) -> tuple[tuple[int, int, int | Fraction], ...]:
        """Nonzero entries (e, f, g^{ef}) of the inverse pairing."""
        return self._g_inv_pairs

    def triple(self, i: int, j: int, k: int) -> int:
        return self.triples.get(tuple(sorted((i, j, k))), 0)

    # -- curve classes -------------------------------------------------------

    def c1_degree(self, beta: MultiIndex) -> int:
        return sum(c * d for c, d in zip(self.effective_c1, beta))

    def insertion_weights(self) -> tuple[int, ...]:
        """codim(T_i) - 1 for the non-divisor classes, the degree weights of
        insertion multi-indices."""
        return tuple(self.codims[i] - 1 for i in self.nondivisor_indices)

    def dimension_matches(self, beta: MultiIndex, n: MultiIndex) -> bool:
        """Whether insertions n against class beta can give a nonzero count."""
        weights = self.insertion_weights()
        return sum(w * e for w, e in zip(weights, n)) == (
            self.dimension + self.c1_degree(beta) - 3
        )

    def key_problem(self, beta: MultiIndex, n: MultiIndex) -> str | None:
        """Why (beta, n) cannot key a count, or None if it can: a key has one
        entry per divisor and per non-divisor class, none negative, a
        non-zero class (the zero class gives the classical triples) and
        meets the dimension constraint.  Seeds and tables both read it."""
        p, q = self.divisor_count, len(self.nondivisor_indices)
        if len(beta) != p or len(n) != q:
            return f"needs {p} class and {q} insertion entries"
        if not any(beta) or min((*beta, *n)) < 0:
            return "needs a non-zero class and non-negative entries"
        if not self.dimension_matches(beta, n):
            return "violates the dimension constraint"
        return None

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "basis": [
                {"name": name, "codim": codim}
                for name, codim in zip(self.basis_names, self.codims)
            ],
            "pairing": [list(row) for row in self.pairing],
            "triples": [
                {"i": i, "j": j, "k": k, "value": value}
                for (i, j, k), value in sorted(self.triples.items())
            ],
            "effective": [
                {"dual_divisor_index": i + 1, "c1_degree": c1}
                for i, c1 in enumerate(self.effective_c1)
            ],
            "seeds": [
                {"class": list(b), "insertions": list(n), "value": v} for b, n, v in self.seeds
            ],
        }


# ---------------------------------------------------------------------------
# Built-in spaces
# ---------------------------------------------------------------------------

_ANTIDIAGONAL = tuple(tuple(int(i + j == 3) for j in range(4)) for i in range(4))


@functools.cache
def _projective_space(r: int) -> FanoModel:
    point = (0,) * (r - 2) + (2,) if r > 1 else ()  # one line through two points
    return FanoModel(
        name=f"p{r}" if r <= 9 else f"pr({r})",
        dimension=r,
        basis_names=tuple(f"T{i}" for i in range(r + 1)),
        codims=tuple(range(r + 1)),
        pairing=tuple(tuple(int(i + j == r) for j in range(r + 1)) for i in range(r + 1)),
        triples={(i, j, r - i - j): 1 for i in range(r + 1) for j in range(r + 1 - i)},
        effective_c1=(r + 1,),
        seeds=(((1,), point, 1),),
    )


@functools.cache
def _quadric_threefold() -> FanoModel:
    # T1 cup T1 = 2 T2 on the quadric, so the hyperplane cube is 2.
    return FanoModel(
        name="q3",
        dimension=3,
        basis_names=("T0", "T1", "T2", "T3"),
        codims=(0, 1, 2, 3),
        pairing=_ANTIDIAGONAL,
        triples={(0, 0, 3): 1, (0, 1, 2): 1, (1, 1, 1): 2},
        effective_c1=(3,),
        seeds=(((1,), (1, 1), 1),),  # one line meets a line and a point
    )


@functools.cache
def _product_of_lines() -> FanoModel:
    return FanoModel(
        name="p1xp1",
        dimension=2,
        basis_names=("T0", "T1", "T2", "T3"),
        codims=(0, 1, 1, 2),
        pairing=_ANTIDIAGONAL,
        triples={(0, 0, 3): 1, (0, 1, 2): 1},
        effective_c1=(2, 2),
        seeds=(((1, 0), (1,), 1), ((0, 1), (1,), 1)),  # one ruling line per point
    )


def builtin_model(name: str, r: int | None = None) -> FanoModel:
    """A built-in model: p1, p2, p3, p4, q3, pr (with r), or p1xp1.  Each
    space is built and validated once per process, so ``builtin_model("p3")``
    and ``builtin_model("pr", 3)`` are one object."""
    if name == "pr":
        if r is None or r < 1:
            raise ModelError("model 'pr' needs a projective dimension r >= 1")
        return _projective_space(r)
    if name in {"p1", "p2", "p3", "p4"}:
        return _projective_space(int(name[1:]))
    if name == "q3":
        return _quadric_threefold()
    if name == "p1xp1":
        return _product_of_lines()
    raise ModelError(f"unknown model name {name!r}")


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------


def _integer(value: object, field: str) -> int:
    """A JSON integer; a float, a bool or anything else is refused."""
    if type(value) is not int:
        raise ModelError(f"{field} must be an integer, got {value!r}")
    return value


def _listed(value: object) -> object:
    """A JSON list; an object is refused rather than read as its keys."""
    if isinstance(value, dict):
        raise TypeError("expected a list, got an object")
    return value


def model_from_dict(data: object) -> FanoModel:
    """Build a validated model from the documented JSON structure.

    The effective generators are put in divisor order when their dual
    indices are 1..k in some order, and otherwise kept in file order.  The
    indices are checked once the model is built, against its divisor count,
    so a basis fault that changes that count is reported as a basis fault.
    """
    if not isinstance(data, dict):
        raise ModelError(f"malformed model data: expected an object, got {type(data).__name__}")
    field = None
    try:
        field = "basis"
        basis = [
            (entry["name"], _integer(entry["codim"], "codim")) for entry in _listed(data["basis"])
        ]
        field = "pairing"
        pairing = [[_integer(v, "pairing entry") for v in row] for row in _listed(data["pairing"])]
        field = "triples"
        triples = {
            tuple(_integer(t[x], f"triple {x}") for x in "ijk"):
                _integer(t["value"], "triple value")
            for t in _listed(data.get("triples", []))
        }
        field = "effective"
        effective = [
            (_integer(e["dual_divisor_index"], "dual_divisor_index"),
             _integer(e["c1_degree"], "c1_degree"))
            for e in _listed(data["effective"])
        ]
        field = "seeds"
        seeds = [
            (tuple(_integer(x, "seed class entry") for x in _listed(s["class"])),
             tuple(_integer(x, "seed insertions entry") for x in _listed(s["insertions"])),
             s["value"])
            for s in _listed(data.get("seeds", []))
        ]
        name = data.get("name", "user")
        field = "dimension"
        dimension = _integer(data["dimension"], "dimension")
    except (KeyError, TypeError) as exc:
        # a missing top-level key is named by the KeyError alone
        where = f" in {field}" if field in data else ""
        raise ModelError(f"malformed model data{where}: {exc}") from exc
    duals = [dual for dual, _ in effective]
    if sorted(duals) == list(range(1, len(duals) + 1)):
        effective.sort()
    model = FanoModel(
        name=name,
        dimension=dimension,
        basis_names=tuple(n for n, _ in basis),
        codims=tuple(c for _, c in basis),
        pairing=pairing,
        triples=triples,
        effective_c1=tuple(c1 for _, c1 in effective),
        seeds=seeds,
    )
    for position, dual in enumerate(duals):
        if not 1 <= dual <= model.divisor_count:
            raise ModelError(f"dual divisor index {dual} out of range")
        if dual in duals[:position]:
            raise ModelError(f"duplicate effective generator for divisor {dual}")
    return model


def load_model(path: str | Path) -> FanoModel:
    """Load and validate a model file (JSON, exact integers only)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, or an int past the digit cap
        raise ModelError(f"cannot parse model file {path}: {exc}") from exc
    return model_from_dict(data)


def save_model(model: FanoModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2), encoding="utf-8")
