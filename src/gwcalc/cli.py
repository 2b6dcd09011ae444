"""Command-line surface: compute tables, run verification suites, emit
machine-readable results.

Subcommands: ``nd``, ``fano3``, ``wdvv-count``, ``solve``, ``qring``,
``verify``.  Output formats: text (default), json, csv.  Big integers are
serialized as decimal strings in JSON, and rows are emitted in sorted key
order, so output is stable and safe to diff.

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import TYPE_CHECKING

from .engine import (
    GWTable,
    SolveError,
    TableDepthError,
    fano3_solve,
    nd_plane,
    standard_seeds,
    standard_table,
    wdvv_canonical_equations,
    wdvv_count,
    wdvv_solve,
)
from .model import FanoModel, builtin_model, load_model
from .potential import PotentialBundle, build_potential, wdvv_residual
from .series import GradedPoly

# qring and boundary are imported by the handlers that use them, so a process
# that only solves or recurses never loads them
if TYPE_CHECKING:
    from .qring import QuantumRing


class Report:
    """Uniform result structure rendered by every output format."""

    def __init__(
        self,
        model: str,
        command: str,
        bounds: dict,
        key_names: list[str],
        rows: list[tuple[tuple[int, ...], int]] | None = None,
        checks: list[tuple[str, bool, str]] | None = None,
    ) -> None:
        self.model, self.command, self.bounds, self.key_names = model, command, bounds, key_names
        self.rows = [] if rows is None else rows
        self.checks = [] if checks is None else checks

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "command": self.command,
            "bounds": self.bounds,
            "rows": [
                {"key": list(key), "value": str(value)}
                for key, value in sorted(self.rows)
            ],
            "checks": [
                {"name": name, "pass": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([*self.key_names, "value"])
        for key, value in sorted(self.rows):
            writer.writerow([*key, value])
        for name, ok, detail in self.checks:
            writer.writerow([f"check:{name}", "pass" if ok else "FAIL", detail])
        return buffer.getvalue()

    def to_text(self) -> str:
        lines = [f"{self.command} on {self.model}  bounds={self.bounds}"]
        if self.rows:
            lines.append("  ".join(self.key_names + ["value"]))
            for key, value in sorted(self.rows):
                lines.append("  ".join(str(x) for x in (*key, value)))
        for name, ok, detail in self.checks:
            status = "PASS" if ok else "FAIL"
            lines.append(f"{status} {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_text()


class ConfigError(ValueError):
    """Invalid flag combination or bound; maps to exit code 2."""


def _resolve_model(args: argparse.Namespace) -> FanoModel:
    if args.r is not None and args.model != "pr":
        raise ConfigError("--r applies only to --model pr")
    if args.model_file:
        return load_model(args.model_file)
    if args.model is None:
        raise ConfigError("a model is required (--model or --model-file)")
    if args.model == "pr" and args.r is None:
        raise ConfigError("--model pr needs --r")
    return builtin_model(args.model, r=args.r)


def _require_dmax(args: argparse.Namespace) -> int:
    if args.dmax < 1:
        raise ConfigError("--dmax must be at least 1")
    return args.dmax


def _table_rows(table: GWTable) -> list[tuple[tuple[int, ...], int]]:
    return [
        (tuple(beta) + tuple(n), value)
        for (beta, n), value in table.sorted_items()
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_nd(args: argparse.Namespace) -> Report:
    d_max = _require_dmax(args)
    table = nd_plane(d_max)
    rows = [((d,), table.get((d,), (3 * d - 1,))) for d in range(1, d_max + 1)]
    report = Report("p2", "nd", {"dmax": d_max}, ["d"], rows)
    if args.check:
        report.checks.extend(_boundary_equivalence_checks(table, d_max))
    return report


def _cmd_fano3(args: argparse.Namespace) -> Report:
    d_max = _require_dmax(args)
    table = fano3_solve(args.space, d_max)
    rows = [(n, value) for (_, n), value in table.sorted_items()]
    report = Report(args.space, "fano3", {"dmax": d_max}, ["a", "b"], rows)
    if args.check:
        # the associativity residuals are a second route to the same numbers
        bundle = build_potential(table, table.c1_max)
        report.checks.extend(_wdvv_checks(bundle))
    return report


def _cmd_wdvv_count(args: argparse.Namespace) -> Report:
    if args.m is None or args.m < 2:
        raise ConfigError("wdvv-count needs --m of at least 2")
    rows = [((m,), wdvv_count(m)) for m in range(2, args.m + 1)]
    report = Report("-", "wdvv-count", {"m": args.m}, ["m"], rows)
    for m in range(2, min(args.m, 7) + 1):
        classes = len(wdvv_canonical_equations(m))
        report.checks.append(
            (
                f"canonical-classes-m{m}",
                classes == wdvv_count(m),
                f"{classes} canonical representatives",
            )
        )
    return report


def _solve_c1_max(model: FanoModel, d_max: int) -> int:
    # One "degree" step is the largest generator weight, so single-generator
    # models get exactly degrees 1..d_max.
    return d_max * max(model.effective_c1)


def _cmd_solve(args: argparse.Namespace) -> Report:
    model = _resolve_model(args)
    d_max = _require_dmax(args)
    c1_max = _solve_c1_max(model, d_max)
    table = wdvv_solve(model, standard_seeds(model), c1_max)
    p = model.divisor_count
    q = len(model.nondivisor_indices)
    names = [f"b{i+1}" for i in range(p)] + [f"n{i+1}" for i in range(q)]
    report = Report(
        model.name, "solve", {"dmax": d_max, "c1max": c1_max}, names, _table_rows(table)
    )
    if args.check:
        bundle = build_potential(table, table.c1_max)
        report.checks.extend(_wdvv_checks(bundle))
    return report


def _cmd_qring(args: argparse.Namespace) -> Report:
    from .qring import small_ring

    model = _resolve_model(args)
    c1_max = 2 * model.dimension
    table = standard_table(model, c1_max)
    ring = small_ring(table)
    rows = []
    p = len(ring.q_degrees)
    for (i, j), expansion in sorted(ring.constants.items()):
        for f, poly in sorted(expansion.items()):
            for mono, coeff in poly.terms():
                rows.append(((i, j, f) + mono, coeff))
    names = ["i", "j", "f"] + [f"q{t+1}" for t in range(p)]
    return Report(model.name, "qring", {"c1max": c1_max}, names, rows)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _wdvv_checks(bundle: PotentialBundle):
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


def _ring_checks(bundle: PotentialBundle, ring: QuantumRing):
    from .qring import big_product

    checks = []
    model = bundle.model
    rank = model.rank
    one = {((0,) * model.divisor_count, (0,) * len(model.nondivisor_indices)): 1}
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

    homogeneous = True
    for (i, j), expansion in ring.constants.items():
        for f, poly in expansion.items():
            for mono, _ in poly.terms():
                degree = sum(e * d for e, d in zip(mono, ring.q_degrees))
                if degree + model.codim(f) != model.codim(i) + model.codim(j):
                    homogeneous = False
    checks.append(("small-homogeneous", homogeneous, "structure constants graded"))
    cup_ok = True
    classical = ring.specialize_q0()
    for (i, j), expansion in classical.items():
        for f in range(rank):
            total = sum(
                model.triple(i, j, e) * model.g_inv(e, f) for e in range(rank)
            )
            if expansion.get(f, 0) != total:
                cup_ok = False
    checks.append(("small-q0-is-cup", cup_ok, "classical product recovered"))
    return checks


def _pr_checks(ring: QuantumRing):
    from .qring import pr_presentation

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
    t_var = pres.variable(0)
    q_var = pres.variable(1)
    high = GradedPoly.constant(pres.degrees, 1)
    for _ in range(r + 2):
        high = high * t_var
    nf_ok = pres.normal_form(high) == pres.normal_form(q_var * t_var)
    checks.append((f"pr{r}-normal-form", nf_ok, "T^(r+2) reduces to q*T"))
    return checks


def _grassmannian_checks(p: int, n: int):
    from .qring import grassmannian_lift, grassmannian_presentation, s_r_determinant

    checks = []
    k = n - p
    try:
        ideal = grassmannian_presentation(p, n)
        checks.append(("gr-presentation-rank", True, f"graded ranks match, basis count verified"))
    except ArithmeticError as exc:
        return [("gr-presentation-rank", False, str(exc))]

    classical_ok = True
    for i in range(p + 1, n):
        reduced = ideal.normal_form(grassmannian_lift(s_r_determinant(p, n, i), n))
        if not reduced.is_zero():
            classical_ok = False
    top = ideal.normal_form(grassmannian_lift(s_r_determinant(p, n, n), n))
    q_mono = (0,) * k + (1,)
    if top.coeffs != {q_mono: -((-1) ** k)}:
        classical_ok = False
    checks.append(("gr-classical-relations", classical_ok, "S_i vanish at q=0"))

    identity = s_r_determinant(p, n, n)
    sign = -1
    for i in range(1, k + 1):
        term = s_r_determinant(p, n, n - i) * GradedPoly.variable(identity.degrees, i - 1)
        identity = identity + term.scale(sign)
        sign = -sign
    checks.append(("gr-alternating-identity", identity.is_zero(), "formal identity"))

    sigma_k = ideal.variable(k - 1)
    dual = grassmannian_lift(s_r_determinant(p, n, p), n)
    product = ideal.normal_form(sigma_k * dual)
    q_poly = ideal.variable(k)
    seed_ok = product == ideal.normal_form(q_poly)
    checks.append(("gr-seed-product", seed_ok, "sigma_k * sigma_(1^p) = q"))
    return checks


def _boundary_equivalence_checks(table: GWTable, d_max: int):
    """The plane's boundary equivalence at each degree 2..d_max; each side
    is summed once."""
    from .boundary import intersection_counts

    checks = []
    for d in range(2, d_max + 1):
        counts = intersection_counts(d, table)
        lhs, rhs = counts.lhs.total, counts.rhs.total
        checks.append((f"boundary-equivalence-d{d}", lhs == rhs, f"lhs={lhs} rhs={rhs}"))
    return checks


def _boundary_checks(d_max: int):
    from .boundary import enumerate_boundary

    top = max(d_max, 2)
    checks = _boundary_equivalence_checks(nd_plane(top), top)
    p2 = builtin_model("p2")
    oracle_ok = True
    for n in range(0, 6):
        for degree in range(0, 3):
            fast = {x.unordered() for x in enumerate_boundary(n, (degree,))}
            slow = _brute_force_boundary(p2, n, (degree,))
            if fast != slow:
                oracle_ok = False
    checks.append(("boundary-enumeration-oracle", oracle_ok, "n<=5, degree<=2 sweep"))
    return checks


def _brute_force_boundary(model, n, beta):
    from .boundary import BoundaryDatum

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


def _cmd_verify(args: argparse.Namespace) -> Report:
    if args.suite not in {"wdvv", "rings", "boundary", "all"}:
        raise ConfigError("--suite must be wdvv, rings, boundary, or all")
    d_max = _require_dmax(args)
    bounds = {"suite": args.suite, "dmax": d_max}

    name = args.model
    grass = name.startswith("gr") and name[2:].isdigit() and len(name) == 4
    if grass and args.r is None:  # with --r, _resolve_model refuses it
        if args.suite not in {"rings", "all"}:
            raise ConfigError(f"model {name} supports only the rings suite")
        report = Report(name, "verify", bounds, [])
        report.checks.extend(_grassmannian_checks(int(name[2]), int(name[3])))
        return report

    model = _resolve_model(args)
    report = Report(model.name, "verify", bounds, [])
    rings = args.suite in {"rings", "all"}
    if args.suite != "boundary":
        # one table: the sweeps read it to the --dmax bound, the small ring to 2 * dim
        c1_max = _solve_c1_max(model, d_max)
        table = standard_table(model, max(c1_max, 2 * model.dimension) if rings else c1_max)
        bundle = build_potential(table, c1_max)
    if args.suite in {"wdvv", "all"}:
        report.checks.extend(_wdvv_checks(bundle))
    if rings:
        from .qring import small_ring

        ring = small_ring(table)
        report.checks.extend(_ring_checks(bundle, ring))
        if 1 <= model.dimension <= 4 and model == builtin_model("pr", r=model.dimension):
            report.checks.extend(_pr_checks(ring))
    plane = model == builtin_model("p2")
    if args.suite == "boundary" or (args.suite == "all" and plane):
        if not plane:
            raise ConfigError("the boundary suite replays the plane argument; use --model p2")
        report.checks.extend(_boundary_checks(d_max))
    return report


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwcalc",
        description="Exact rational-curve counts and quantum cohomology checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, model: bool = True) -> None:
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")
        if model:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--model", help="built-in model name (p1, p2, p3, q3, pr, p1xp1)")
            source.add_argument("--model-file", help="path to a model description file")
            p.add_argument("--r", type=int, help="projective dimension for --model pr")

    p_nd = sub.add_parser("nd", help="plane-curve counts through d_max")
    p_nd.add_argument("--dmax", type=int, required=True)
    p_nd.add_argument("--check", action="store_true", help="re-derive via boundary counts")
    add_common(p_nd, model=False)

    p_f3 = sub.add_parser("fano3", help="line/point incidence counts on p3 or q3")
    p_f3.add_argument("--space", required=True)
    p_f3.add_argument("--dmax", type=int, required=True)
    p_f3.add_argument("--check", action="store_true")
    add_common(p_f3, model=False)

    p_wc = sub.add_parser("wdvv-count", help="number of independent associativity equations")
    p_wc.add_argument("--m", type=int, required=True)
    add_common(p_wc, model=False)

    p_solve = sub.add_parser("solve", help="solve the associativity system from seeds")
    p_solve.add_argument("--dmax", type=int, required=True)
    p_solve.add_argument("--check", action="store_true", help="run the residual sweep")
    add_common(p_solve)

    p_qr = sub.add_parser("qring", help="small quantum ring structure constants")
    add_common(p_qr)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--dmax", type=int, default=3)
    add_common(p_ver)
    p_ver.set_defaults(model="p2")
    return parser


_HANDLERS = {
    "nd": _cmd_nd,
    "fano3": _cmd_fano3,
    "wdvv-count": _cmd_wdvv_count,
    "solve": _cmd_solve,
    "qring": _cmd_qring,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    # Exact counts can pass the 4300-digit cap that Python 3.10.7+ puts on
    # int -> str conversion.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _HANDLERS[args.command](args)
    except (SolveError, TableDepthError, ArithmeticError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
