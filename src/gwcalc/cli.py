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

from .engine import (
    SolveError,
    TableDepthError,
    _wdvv_checks,
    fano3_solve,
    nd_plane,
    standard_seeds,
    standard_table,
    wdvv_canonical_equations,
    wdvv_count,
    wdvv_solve,
)
from .model import FanoModel, builtin_model, load_model
from .potential import build_potential

# qring and boundary are imported by the handlers that use them, so a process
# that only solves or recurses never loads them


class Report:
    """Uniform result structure rendered by every output format; each format
    emits the rows in sorted key order, whatever order they were added in."""

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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_nd(args: argparse.Namespace) -> Report:
    d_max = _require_dmax(args)
    table = nd_plane(d_max)
    rows = [(beta, value) for (beta, _), value in table.entries.items()]
    report = Report("p2", "nd", {"dmax": d_max}, ["d"], rows)
    if args.check:
        from .boundary import _boundary_equivalence_checks

        report.checks.extend(_boundary_equivalence_checks(table, d_max))
    return report


def _cmd_fano3(args: argparse.Namespace) -> Report:
    d_max = _require_dmax(args)
    table = fano3_solve(args.space, d_max)
    rows = [(n, value) for (_, n), value in table.entries.items()]
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
    rows = [(beta + n, value) for (beta, n), value in table.entries.items()]
    report = Report(model.name, "solve", {"dmax": d_max, "c1max": c1_max}, names, rows)
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
    p = len(model.effective_c1)
    for (i, j), expansion in ring.constants.items():
        for f, poly in expansion.items():
            for mono, coeff in poly.coeffs.items():
                rows.append(((i, j, f) + mono, coeff))
    names = ["i", "j", "f"] + [f"q{t+1}" for t in range(p)]
    return Report(model.name, "qring", {"c1max": c1_max}, names, rows)


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
        from .qring import _grassmannian_checks

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
        from .qring import _pr_checks, _ring_checks, small_ring

        ring = small_ring(table)
        report.checks.extend(_ring_checks(bundle, ring))
        if model.dimension >= 1 and model == builtin_model("pr", r=model.dimension):
            report.checks.extend(_pr_checks(ring))
    plane = model == builtin_model("p2")
    if args.suite == "boundary" or (args.suite == "all" and plane):
        if not plane:
            raise ConfigError("the boundary suite replays the plane argument; use --model p2")
        from .boundary import _boundary_checks

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
            source.add_argument(
                "--model", help="built-in model name (p1, p2, p3, p4, q3, pr, p1xp1)"
            )
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
    return 0 if all(ok for _, ok, _ in report.checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
