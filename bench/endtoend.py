"""End-to-end mode: one fresh ``gwcalc`` process per invocation.

One closed-loop client runs a single child at a time, which suits a small
machine.  Each child is timed from spawn to reap, and its peak RSS is read
from the ``wait4`` resource usage.  Stdout goes to a file rather than a
pipe, so a large report cannot block the child while it is being reaped.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from .reference import output_problems
from .workloads import ENTRY_CODE, IMPORT_CODE, Checkout, Workload, invocation_key

MIN_ROUNDS = 3


@dataclass
class ChildResult:
    wall_s: float
    exit_code: int
    max_rss_kb: int
    stdout: bytes


def run_child(checkout: Checkout, args: list[str]) -> ChildResult:
    """Spawn ``python3 <args>``, wait for it and return its measurements."""
    out_path = checkout.results / "child.stdout"
    err_path = checkout.results / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=checkout.root, env=checkout.child_env(),
            stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so that it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, proc.returncode, usage.ru_maxrss, out_path.read_bytes())


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def setup_once(checkout: Checkout, workload: Workload) -> float:
    """Set-up cost of one round: a fresh ``import gwcalc.cli`` per invocation,
    summed."""
    total = 0.0
    for _ in workload.invocations:
        child = run_child(checkout, ["-c", IMPORT_CODE])
        if child.exit_code != 0:
            err = (checkout.results / "child.stderr").read_text(errors="replace")
            raise RuntimeError(f"importing gwcalc failed:\n{err}")
        total += child.wall_s
    return total


def run(checkout: Checkout, workload: Workload, reference: dict, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    run_child(checkout, ["-c", IMPORT_CODE])  # untimed: fills the bytecode cache

    setup: list[float] = []
    rounds: list[float] = []
    orders: list[list[str]] = []
    invocations: list[dict] = []
    peak_kb = 0
    failed = 0
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        # stop before a round that would overrun the measuring time
        time.perf_counter() - start + (time.perf_counter() - start) / len(rounds) <= seconds
    ):
        # Set-up is sampled in every round, so that it sees the same drift in
        # host speed as the invocations it is compared with.
        setup.append(setup_once(checkout, workload))
        order = list(workload.invocations)
        rng.shuffle(order)
        orders.append([invocation_key(argv) for argv in order])
        total = 0.0
        for argv in order:
            child = run_child(checkout, ["-c", ENTRY_CODE, *checkout.expand(argv)])
            problems = output_problems(reference[invocation_key(argv)], child.exit_code, child.stdout)
            failed += bool(problems)
            total += child.wall_s
            peak_kb = max(peak_kb, child.max_rss_kb)
            invocations.append({
                "round": len(rounds),
                "invocation": invocation_key(argv),
                "wall_s": child.wall_s,
                "max_rss_kb": child.max_rss_kb,
                "exit_code": child.exit_code,
                "problems": problems,
            })
        rounds.append(total)

    return {
        "metrics": {
            "wall_s": statistics.median(rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024,
        },
        "attempted": len(invocations),
        "failed": failed,
        "detail": {
            "wall_s": quartiles(rounds),
            "setup_s": quartiles(setup),
            "fail_rate": failed / len(invocations),
            "rounds": rounds,
            "setup_samples": setup,
            "orders": orders,
            "invocations": invocations,
        },
    }
