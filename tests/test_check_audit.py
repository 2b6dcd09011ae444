"""Every check a verification command reports can fail.

Each check name that these commands emit is paired with one perturbation
under which the command reports that check as FAIL:

- ``verify --suite all`` on p2 (``--dmax 3``), p3, q3, p1xp1 and p5;
- ``verify --suite rings --model gr24``;
- ``nd --check``.

A perturbation is either a raised count, which gains 1 at one key of every
table the command builds, or a code change, which replaces one function for
the run.  These checks fail only under a code change:
``canonical-equation-count``, ``big-unit``, ``big-commutative``,
``small-homogeneous``, ``small-q0-is-cup``, ``pr{r}-normal-form`` and
``boundary-enumeration-oracle`` pass under every raised count the audit
makes, and the four ``gr-*`` checks read no count at all.  The failing
branches of ``small-homogeneous``, ``small-q0-is-cup``,
``pr{r}-product-rules``, ``boundary-enumeration-oracle`` and
``gr-presentation-rank`` are reached by no other test.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from gwcalc import boundary, cli, engine, qring
from gwcalc.qring import PresentationIdeal
from gwcalc.series import GradedPoly

P2 = ("verify", "--suite", "all", "--model", "p2", "--dmax", "3")
P3 = ("verify", "--suite", "all", "--model", "p3")
PR5 = ("verify", "--suite", "all", "--model", "p5")
GR24 = ("verify", "--suite", "rings", "--model", "gr24")
ND = ("nd", "--dmax", "3", "--check")
COMMANDS = (
    P2, P3, ("verify", "--suite", "all", "--model", "q3"),
    ("verify", "--suite", "all", "--model", "p1xp1"), PR5, GR24, ND,
)


def _raised(key):
    """Every table the wrapped producer returns gains 1 at ``key``."""
    def wrap(produce):
        def raised(*args):
            table = produce(*args)
            table.entries[key] += 1
            return table
        return raised
    return wrap


def _doubled_products(picks):
    """``big_product`` doubles every coefficient of the pairs ``picks`` selects."""
    def wrap(big_product):
        def product(bundle, i, j):
            expansion = big_product(bundle, i, j)
            return {f: s.scale(2) for f, s in expansion.items()} if picks(i, j) else expansion
        return product
    return wrap


def _unit_product_gains(term):
    """``small_ring``'s T0 * T1 gains ``term(effective_c1)`` in its T1 coefficient."""
    def wrap(small_ring):
        def ring(table):
            result = small_ring(table)
            expansion = result.constants[(0, 1)]
            expansion[1] = expansion[1] + term(result.model.effective_c1)
            return result
        return ring
    return wrap


def _relations_edited(edit):
    """A presentation builder whose ideal has ``edit(relations, q)`` as relations."""
    def wrap(presentation):
        def edited(*args):
            ideal = presentation(*args)
            q = ideal.variable(len(ideal.degrees) - 1)
            return PresentationIdeal(ideal.degrees, edit(ideal.relations, q))
        return edited
    return wrap


# (kind, module, attribute, wrap): wrap(original) replaces module.attribute
TABLE = ("count", cli, "standard_table")
P2_LINE = (*TABLE, _raised(((1,), (2,))))
P3_LINE = (*TABLE, _raised(((1,), (0, 2))))
PR5_LINE = (*TABLE, _raised(((1,), (0, 0, 0, 2))))
# one conic count that every canonical residual of P^5 reads at --dmax 3
PR5_CONIC = (*TABLE, _raised(((2,), (1, 1, 1, 2))))
ND_CONIC = ("count", cli, "nd_plane", _raised(((2,), (5,))))

FORMULA_OFF = ("code", engine, "wdvv_count", lambda count: lambda m: count(m) + 1)
UNIT_DOUBLED = ("code", qring, "big_product", _doubled_products(lambda i, j: i == 0))
ONE_ORDER_DOUBLED = ("code", qring, "big_product", _doubled_products(lambda i, j: i > j))
Q_IN_UNIT_PRODUCT = (
    "code", qring, "small_ring", _unit_product_gains(lambda d: GradedPoly.variable(d, 0))
)
CUP_DOUBLED = (
    "code", qring, "small_ring", _unit_product_gains(lambda d: GradedPoly.constant(d, 1))
)
# T^(r+1) - q becomes T^(r+1) - 2q
PR_Q_DOUBLED = (
    "code", qring, "pr_presentation", _relations_edited(lambda rels, q: (rels[0] - q,))
)
DATUM_DROPPED = ("code", boundary, "enumerate_boundary", lambda enum: lambda n, b: enum(n, b)[:-1])
BOX_RAISED = ("code", qring, "_box_betti", lambda betti: lambda p, k: [c + 1 for c in betti(p, k)])
Q_IN_IDEAL = (
    "code", qring, "grassmannian_presentation", _relations_edited(lambda rels, q: rels + (q,))
)
# on Gr(2,4) the top relation is S_4 + q; this makes it S_4 - q
Q_SIGN_FLIPPED = (
    "code", qring, "grassmannian_presentation",
    _relations_edited(lambda rels, q: rels[:-1] + (rels[-1] - q.scale(2),)),
)

AUDIT = {
    "canonical-equation-count": (P2, FORMULA_OFF),
    **{
        "residual-A" + "".join(map(str, quad)): (PR5, PR5_CONIC)
        for quad in engine.wdvv_canonical_equations(5)
    },
    "big-unit": (P2, UNIT_DOUBLED),
    "big-commutative": (P2, ONE_ORDER_DOUBLED),
    "big-associative": (PR5, PR5_CONIC),
    "plane-cubic-presentation": (P2, P2_LINE),
    "small-homogeneous": (P2, Q_IN_UNIT_PRODUCT),
    "small-q0-is-cup": (P2, CUP_DOUBLED),
    **{
        name: (command, perturbation)
        for r, command, line in ((2, P2, P2_LINE), (3, P3, P3_LINE), (5, PR5, PR5_LINE))
        for name, perturbation in (
            (f"pr{r}-product-rules", line),
            (f"pr{r}-hyperplane-power", line),
            (f"pr{r}-normal-form", PR_Q_DOUBLED),
        )
    },
    "boundary-equivalence-d2": (ND, ND_CONIC),
    "boundary-equivalence-d3": (ND, ND_CONIC),
    "boundary-enumeration-oracle": (P2, DATUM_DROPPED),
    "gr-presentation-rank": (GR24, BOX_RAISED),
    "gr-classical-relations": (GR24, Q_IN_IDEAL),
    "gr-alternating-identity": (GR24, Q_SIGN_FLIPPED),
    "gr-seed-product": (GR24, Q_SIGN_FLIPPED),
}
CODE_ONLY = {name for name, (_, (kind, *_)) in AUDIT.items() if kind == "code"}


def _verdicts(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main([*argv, "--format", "json"])
    verdicts = {check["name"]: check["pass"] for check in json.loads(buffer.getvalue())["checks"]}
    assert code == (0 if all(verdicts.values()) else 1)
    return verdicts


@pytest.fixture(scope="module")
def emitted():
    """The unperturbed verdicts of every command; it names exactly the audited checks."""
    verdicts = {}
    for argv in COMMANDS:
        for name, ok in _verdicts(argv).items():
            verdicts[name] = verdicts.get(name, True) and ok
    assert set(verdicts) == set(AUDIT)
    return verdicts


@pytest.fixture(scope="module")
def perturbed_runs():
    """Verdicts by (command, perturbation): checks that share both share one run."""
    return {}


@pytest.mark.parametrize("name", sorted(AUDIT))
def test_check_fails_under_its_perturbation(name, emitted, monkeypatch, perturbed_runs):
    assert emitted[name] is True
    argv, perturbation = AUDIT[name]
    kind, module, attribute, wrap = perturbation
    if (argv, perturbation) not in perturbed_runs:
        monkeypatch.setattr(module, attribute, wrap(getattr(module, attribute)))
        perturbed_runs[argv, perturbation] = _verdicts(argv)
    verdicts = perturbed_runs[argv, perturbation]
    assert verdicts[name] is False
    if kind == "count":
        # a raised count leaves every check that only code can fail passing
        assert all(ok for check, ok in verdicts.items() if check in CODE_ONLY)
