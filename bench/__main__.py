"""Command line of the benchmark.

    python3 -m bench --workload {solve,sweep,recursions} --seed N --seconds S --trace {0,1}

Prints a summary, writes the full record to ``bench/results/`` and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 1 when an output is wrong, 2 when the checkout cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from . import endtoend, tracing
from .reference import load_reference
from .workloads import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORKLOADS,
    SetupError,
    git_sha,
    prepare_checkout,
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="shuffles the invocation order")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path(os.getcwd())
    try:
        checkout = prepare_checkout(root)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    mode = tracing if args.trace else endtoend
    result = mode.run(checkout, workload, reference, args.seed, args.seconds)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = result["failed"] == 0 and result.get("counts_repeat", True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "detail": result["detail"],
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record_path = checkout.results / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(checkout.results / f"{stem}.spans.jsonl", "w") as out:
            for number, spans in enumerate(result["spans"]):
                for span in spans:
                    out.write(json.dumps([number, *span]) + "\n")

    for name, value in result["metrics"].items():
        print(f"{name:<40} {value:>16.6f} {units[name]}")
    if not args.trace:
        print(f"{'fail_rate':<40} {result['detail']['fail_rate']:>16.6f} ratio")
    print(f"record: {record_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
