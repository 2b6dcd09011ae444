"""Traced mode: ``gwcalc.cli.main`` in-process, with spans around each layer.

The benchmark installs wrappers around the public functions of every
``gwcalc`` module; the program itself is not changed.  A span records its
name, start, end, parent span and invocation id, and spans are kept in
memory until the run ends.  High-frequency accessors are counted without
timing.  Work the tracer does for itself (the pair statistics of series
products) is cut out of the clock, so it is in no span.

Each invocation runs untraced and then traced, back to back; the difference
of their times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

from .reference import output_problems
from .workloads import (
    EXACT_COUNTS,
    LEVELS,
    Checkout,
    Workload,
    invocation_key,
    level_metric,
)

MIN_TRACED_PASSES = 2

# Span fields: name, start_ns, end_ns, parent index, invocation id, and
# whether no enclosing span has the same name.
NAME, START, END, PARENT, INVOCATION, OUTERMOST = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.invocation = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._excluded_ns = 0

    def now(self) -> int:
        return time.perf_counter_ns() - self._excluded_ns

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, result)`` runs outside
        every span's time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            record = [name, 0, 0, stack[-1] if stack else -1, self.invocation, not self._active[name]]
            stack.append(len(self.spans))
            self.spans.append(record)
            self._active[name] += 1
            record[START] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = self.now()
                self._active[name] -= 1
                stack.pop()
            if after is not None:
                begin = time.perf_counter_ns()
                after(self, args, result)
                self._excluded_ns += time.perf_counter_ns() - begin
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _count_table(tracer: Tracer, args, table) -> None:
    tracer.counts["engine.table_entries"] += len(table.entries)


def _count_output(tracer: Tracer, args, text: str) -> None:
    tracer.counts["cli.output_bytes"] += len(text.encode("utf-8"))


def _count_pairs(tracer: Tracer, args, product) -> None:
    """Attempted term pairs of a series product, and how many of them land
    inside the truncation bounds.  Both key degrees add under the product, so
    a histogram of (c1-degree, total degree) per factor counts the in-bound
    pairs without forming them."""
    from gwcalc.series import total_degree

    left, right = args
    bounds = left.bounds

    def histogram(series) -> Counter:
        return Counter(
            (bounds.c1_degree(beta), total_degree(n)) for beta, n in series.coeffs
        )

    hist_right = histogram(right)
    useful = 0
    for (c1_a, tot_a), count_a in histogram(left).items():
        for (c1_b, tot_b), count_b in hist_right.items():
            if c1_a + c1_b <= bounds.max_c1 and tot_a + tot_b <= bounds.max_total:
                useful += count_a * count_b
    tracer.counts["series.mul_pairs"] += len(left.coeffs) * len(right.coeffs)
    tracer.counts["series.mul_useful_pairs"] += useful


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the layer functions; returns what ``uninstall`` needs to undo it.

    A module-level function is replaced in every ``gwcalc`` module that
    imported it by name, so calls between modules are traced too.
    """
    from gwcalc import boundary, cli, engine, model, potential, qring, series

    modules = [m for name, m in sys.modules.items() if name == "gwcalc" or name.startswith("gwcalc.")]
    undo: list[tuple[object, str, object]] = []

    def patch_function(module, attr: str, span_name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = tracer.span(span_name, original, after)
        for owner in modules:
            if owner.__dict__.get(attr) is original:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def patch_method(cls, attr: str, span_name: str, after=None) -> None:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.span(span_name, original, after))

    def count_member(cls, attr: str, count_name: str) -> None:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        if isinstance(original, property):
            setattr(cls, attr, property(tracer.counter(count_name, original.fget)))
        else:
            setattr(cls, attr, tracer.counter(count_name, original))

    for attr in ("builtin_model", "load_model"):
        patch_function(model, attr, "model.load")
    for attr in ("divisor_count", "nondivisor_indices", "insertion_weights", "g_inv_pairs"):
        count_member(model.FanoModel, attr, "model.derived_calls")

    patch_function(engine, "wdvv_solve", "engine.wdvv_solve", _count_table)
    patch_function(engine, "nd_plane", "engine.recursion", _count_table)
    patch_function(engine, "fano3_solve", "engine.recursion", _count_table)
    patch_function(engine, "standard_table", "engine.standard_table")

    patch_method(series.GWSeries, "__mul__", "series.mul", _count_pairs)
    patch_method(series.GWSeries, "__add__", "series.add")
    patch_function(series, "series_partial", "series.partial")
    count_member(series.GradedPoly, "__mul__", "series.poly_mul_calls")

    patch_function(potential, "build_potential", "potential.build")
    patch_function(potential, "wdvv_residual", "potential.residual")

    patch_function(qring, "big_product", "qring.big_product")
    patch_function(qring, "big_associator", "qring.associator")
    patch_function(qring, "small_ring", "qring.small_ring")
    patch_method(qring.QuantumRing, "basis_power", "qring.small_ring")
    for attr in ("grassmannian_presentation", "pr_presentation", "s_r_determinant", "presentation_from_big"):
        patch_function(qring, attr, "qring.presentation")
    patch_method(qring.PresentationIdeal, "normal_form", "qring.presentation")

    patch_function(boundary, "intersection_counts", "boundary.intersection_counts")
    patch_function(boundary, "enumerate_boundary", "boundary.enumerate")

    patch_method(cli.Report, "render", "cli.render", _count_output)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A ``_s`` metric is the time of the outermost spans of that name, except
    ``engine.recursion_s``, which is self time: span time minus child spans.
    """
    inclusive: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    child_ns = [0] * len(spans)
    for record in spans:
        duration = record[END] - record[START]
        calls[record[NAME]] += 1
        if record[OUTERMOST]:
            inclusive[record[NAME]] += duration
        if record[PARENT] >= 0:
            child_ns[record[PARENT]] += duration
    recursion_self = sum(
        r[END] - r[START] - child_ns[i] for i, r in enumerate(spans) if r[NAME] == "engine.recursion"
    )
    main_ns = inclusive["cli.main"]
    covered_ns = sum(child_ns[i] for i, r in enumerate(spans) if r[NAME] == "cli.main")

    def seconds(name: str) -> float:
        return inclusive[name] / 1e9

    pairs = counts["series.mul_pairs"]
    return {
        "model.load_s": seconds("model.load"),
        "model.derived_calls": counts["model.derived_calls"],
        "engine.wdvv_solve_s": seconds("engine.wdvv_solve"),
        "engine.recursion_s": recursion_self / 1e9,
        "engine.table_entries": counts["engine.table_entries"],
        "series.mul_s": seconds("series.mul"),
        "series.mul_calls": calls["series.mul"],
        "series.mul_pairs": pairs,
        "series.mul_useful_ratio": counts["series.mul_useful_pairs"] / pairs if pairs else 0.0,
        "series.add_s": seconds("series.add"),
        "series.partial_s": seconds("series.partial"),
        "series.poly_mul_calls": counts["series.poly_mul_calls"],
        "potential.build_s": seconds("potential.build"),
        "potential.residual_s": seconds("potential.residual"),
        "potential.residual_calls": calls["potential.residual"],
        "qring.big_product_calls": calls["qring.big_product"],
        "qring.associator_s": seconds("qring.associator"),
        "qring.small_ring_s": seconds("qring.small_ring"),
        "qring.presentation_s": seconds("qring.presentation"),
        "boundary.intersection_counts_s": seconds("boundary.intersection_counts"),
        "boundary.enumerate_s": seconds("boundary.enumerate"),
        "cli.render_s": seconds("cli.render"),
        "cli.output_bytes": counts["cli.output_bytes"],
        "cli.main_s": main_ns / 1e9,
        "trace.covered_frac": covered_ns / main_ns if main_ns else 0.0,
    }


def count_mismatches(passes: list[dict]) -> list[str]:
    """The exact counts that differ between traced passes."""
    return [name for name in EXACT_COUNTS if len({p["metrics"][name] for p in passes}) != 1]


def _run_invocation(checkout: Checkout, argv, reference: dict, call) -> tuple[float, list[str]]:
    """Run one invocation in-process; returns its wall time and the output
    problems found."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = call(checkout.expand(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the invocation, as a traceback does end to end
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    found = output_problems(reference[invocation_key(argv)], code, stdout.getvalue().encode("utf-8"))
    if found and stderr.getvalue():
        found.append(f"stderr: {stderr.getvalue()[-500:]}")
    return wall, found


def _run_pass(checkout: Checkout, order, reference: dict, main) -> tuple[dict, list[list], list]:
    """Run each invocation untraced and then traced, back to back, so both
    see nearly the same host speed."""
    tracer = Tracer()
    untraced = traced = 0.0
    problems = []
    for index, argv in enumerate(order):
        tracer.invocation = index
        for call in (main, tracer.span("cli.main", main)):
            undo = install(tracer) if call is not main else []
            try:
                wall, found = _run_invocation(checkout, argv, reference, call)
            finally:
                uninstall(undo)
            if call is main:
                untraced += wall
            else:
                traced += wall
            if found:
                problems.append({"invocation": invocation_key(argv), "problems": found})
    record = {
        "untraced_s": untraced,
        "traced_s": traced,
        "metrics": layer_metrics(tracer.spans, tracer.counts),
    }
    return record, tracer.spans, problems


def _level_times(workload: Workload) -> dict[str, float]:
    """Untraced wdvv_solve time per c1 level: the difference between solves
    bounded at successive levels.  Levels of models this workload does not
    solve read 0."""
    from gwcalc.engine import standard_seeds, wdvv_solve
    from gwcalc.model import builtin_model

    out = {level_metric(name, c1): 0.0 for name, levels in LEVELS.items() for c1 in levels}
    for name in workload.level_probes:
        model = builtin_model(name)
        previous = 0.0
        for level in LEVELS[name]:
            seeds = standard_seeds(model)
            start = time.perf_counter()
            wdvv_solve(model, seeds, level)
            elapsed = time.perf_counter() - start
            out[level_metric(name, level)] = elapsed - previous
            previous = elapsed
    return out


def run(checkout: Checkout, workload: Workload, reference: dict, seed: int, seconds: float) -> dict:
    from gwcalc import cli

    order = list(workload.invocations)
    random.Random(seed).shuffle(order)
    passes: list[dict] = []
    problems: list = []
    spans: list[list] = []
    start = time.perf_counter()
    while len(passes) < MIN_TRACED_PASSES or (
        # stop before a pass that would overrun the measuring time
        time.perf_counter() - start + (time.perf_counter() - start) / len(passes) <= seconds
    ):
        record, pass_spans, found = _run_pass(checkout, order, reference, cli.main)
        passes.append(record)
        spans.append(pass_spans)
        problems += found

    mismatched = count_mismatches(passes)
    metrics = {
        name: passes[0]["metrics"][name] if name in EXACT_COUNTS
        else statistics.median(p["metrics"][name] for p in passes)
        for name in passes[0]["metrics"]
    }
    metrics["trace.overhead_s"] = statistics.median(p["traced_s"] - p["untraced_s"] for p in passes)
    metrics.update(_level_times(workload))
    return {
        "metrics": metrics,
        "attempted": len(order) * 2 * len(passes),
        "failed": len(problems),
        "counts_repeat": not mismatched,
        "detail": {
            "order": [invocation_key(argv) for argv in order],
            "passes": passes,
            "count_mismatches": mismatched,
            "problems": problems,
        },
        "spans": spans,
    }
