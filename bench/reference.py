"""Exact-output guard: each invocation's exit code and stdout hash.

``reference.json`` holds, per invocation, the exit code, the byte length and
the sha256 of the JSON report the program printed at the commit the
reference was recorded from.  A run whose output differs in any byte fails,
so a speed-up that changes a number cannot pass.

Re-record (only when a change is meant to alter the output) with::

    python3 -m bench.reference
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from .workloads import ENTRY_CODE, WORKLOADS, git_sha, invocation_key, prepare_checkout

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference() -> dict[str, dict]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["invocations"]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def output_problems(expected: dict, exit_code: int, stdout: bytes) -> list[str]:
    """Reasons an invocation's result differs from its reference; empty when
    it matches.  Besides the hash, every JSON check must report a pass."""
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit_code']}")
    if digest(stdout) != expected["sha256"]:
        problems.append(
            f"stdout sha256 {digest(stdout)[:16]}.. ({len(stdout)} bytes), expected "
            f"{expected['sha256'][:16]}.. ({expected['bytes']} bytes)"
        )
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        problems.append("stdout is not a JSON report")
    else:
        failed = [c.get("name") for c in report.get("checks", []) if c.get("pass") is not True]
        if failed:
            problems.append(f"checks not passed: {failed[:5]}")
    return problems


def _run(checkout, argv, hash_seed: str) -> tuple[int, bytes]:
    env = checkout.child_env()
    env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run(
        [sys.executable, "-c", ENTRY_CODE, *checkout.expand(argv)],
        cwd=checkout.root,
        env=env,
        stdout=subprocess.PIPE,
        check=False,
    )
    return done.returncode, done.stdout


def record(root: Path) -> dict:
    """Run every invocation twice, under two hash seeds, and return the
    reference; raises if the two runs disagree."""
    checkout = prepare_checkout(root)
    invocations = {}
    for workload in WORKLOADS.values():
        for argv in workload.invocations:
            first = _run(checkout, argv, "1")
            second = _run(checkout, argv, "2")
            if first != second:
                raise RuntimeError(f"output of {invocation_key(argv)!r} is not deterministic")
            code, stdout = first
            invocations[invocation_key(argv)] = {
                "exit_code": code,
                "bytes": len(stdout),
                "sha256": digest(stdout),
            }
            print(f"{code} {digest(stdout)[:16]} {len(stdout):>8} {invocation_key(argv)}")
    return {"recorded_from": git_sha(root), "invocations": invocations}


if __name__ == "__main__":
    data = record(Path(os.getcwd()))
    REFERENCE_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
