"""Workloads, metric names and the per-checkout set-up shared by both run modes.

Each workload is a fixed list of ``gwcalc`` invocations.  ``{p1xp1}`` in an
invocation stands for a model file that set-up writes with the program's own
``save_model``, so the solve workload also exercises file ingestion.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

MODEL_FILE_TOKEN = "{p1xp1}"


@dataclass(frozen=True)
class Workload:
    """A fixed list of invocations; BENCHMARK.json says why each workload exists."""

    name: str
    invocations: tuple[tuple[str, ...], ...]
    # models whose wdvv_solve levels the traced run times one by one
    level_probes: tuple[str, ...] = ()


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split()) + ("--format", "json")


WORKLOADS: dict[str, Workload] = {
    "solve": Workload(
        "solve",
        (
            _argv("solve --model p3 --dmax 5"),
            _argv("solve --model-file {p1xp1} --dmax 5"),
        ),
        level_probes=("p3", "p1xp1"),
    ),
    "sweep": Workload(
        "sweep",
        (
            _argv("verify --suite all --model p3 --dmax 6"),
            _argv("verify --suite all --model q3 --dmax 6"),
        ),
    ),
    "recursions": Workload(
        "recursions",
        (
            _argv("nd --dmax 200 --check"),
            _argv("fano3 --space q3 --dmax 24"),
            _argv("fano3 --space p3 --dmax 16"),
            _argv("qring --model p4"),
            _argv("verify --suite rings --model gr25"),
            _argv("verify --suite all --model p2 --dmax 10"),
        ),
    ),
}

# The c1 levels the solve workload reaches with --dmax 5 on each model.
LEVELS: dict[str, tuple[int, ...]] = {"p3": (4, 8, 12, 16, 20), "p1xp1": (2, 4, 6, 8, 10)}


def level_metric(model_name: str, c1: int) -> str:
    return f"engine.wdvv_level_s.{model_name}.c1_{c1}"


END_TO_END_UNITS: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS: dict[str, str] = {
    "model.load_s": "s",
    "model.derived_calls": "count",
    "engine.wdvv_solve_s": "s",
    **{level_metric(name, c1): "s" for name, levels in LEVELS.items() for c1 in levels},
    "engine.recursion_s": "s",
    "engine.table_entries": "count",
    "series.mul_s": "s",
    "series.mul_calls": "count",
    "series.mul_pairs": "count",
    "series.mul_useful_ratio": "ratio",
    "series.add_s": "s",
    "series.partial_s": "s",
    "series.poly_mul_calls": "count",
    "potential.build_s": "s",
    "potential.residual_s": "s",
    "potential.residual_calls": "count",
    "qring.big_product_calls": "count",
    "qring.associator_s": "s",
    "qring.small_ring_s": "s",
    "qring.presentation_s": "s",
    "boundary.intersection_counts_s": "s",
    "boundary.enumerate_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_frac": "ratio",
}

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = (
    "model.derived_calls",
    "engine.table_entries",
    "series.mul_calls",
    "series.mul_pairs",
    "series.poly_mul_calls",
    "potential.residual_calls",
    "qring.big_product_calls",
    "cli.output_bytes",
)

ENTRY_CODE = "import sys; from gwcalc.cli import main; sys.exit(main())"
IMPORT_CODE = "import gwcalc.cli"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no gwcalc sources, say)."""


@dataclass(frozen=True)
class Checkout:
    """Paths of the checkout the benchmark runs in; everything it writes
    goes under ``results``."""

    root: Path
    src: Path
    results: Path
    model_file: Path

    def child_env(self) -> dict[str, str]:
        env = dict(os.environ)
        previous = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + previous if previous else "")
        return env

    def expand(self, argv: tuple[str, ...]) -> list[str]:
        return [str(self.model_file) if a == MODEL_FILE_TOKEN else a for a in argv]


def prepare_checkout(root: Path) -> Checkout:
    """Check that the sources are present, import them and write the model file."""
    src = root / "src"
    if not (src / "gwcalc" / "cli.py").is_file():
        raise SetupError(f"no gwcalc sources under {src}")
    results = root / "bench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        from gwcalc.model import builtin_model, save_model
    except ImportError as exc:
        raise SetupError(f"cannot import gwcalc from {src}: {exc}") from exc
    model_file = results / "p1xp1.json"
    save_model(builtin_model("p1xp1"), model_file)
    return Checkout(root, src, results, model_file)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    "unknown" in an export that has no ``.git``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def invocation_key(argv: tuple[str, ...]) -> str:
    """Stable name of an invocation, used to key the reference outputs."""
    return " ".join(argv)
