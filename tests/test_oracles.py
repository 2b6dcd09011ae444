"""Models that are not built in, written out as model data and run through
the generic solver; their counts are checked against independent values."""

import io
import json
from contextlib import redirect_stdout

import pytest

from gwcalc import model_from_dict, nd_plane_numbers
from gwcalc.cli import main

# P^1 x P^2 in the basis 1, h1, h2, h1*h2, h2^2, pt.  The seeds: one line of
# the P^1 ruling through a point, one line of a P^2 fiber through a point and
# a curve of class h2^2.
P1XP2 = {
    "name": "p1xp2",
    "dimension": 3,
    "basis": [
        {"name": name, "codim": codim}
        for name, codim in [("1", 0), ("h1", 1), ("h2", 1), ("h1h2", 2), ("h2^2", 2), ("pt", 3)]
    ],
    "pairing": [[int(i + j == 5) for j in range(6)] for i in range(6)],
    "triples": [
        {"i": 0, "j": 0, "k": 5, "value": 1},
        {"i": 0, "j": 1, "k": 4, "value": 1},
        {"i": 0, "j": 2, "k": 3, "value": 1},
        {"i": 1, "j": 2, "k": 2, "value": 1},
    ],
    "effective": [
        {"dual_divisor_index": 1, "c1_degree": 2},
        {"dual_divisor_index": 2, "c1_degree": 3},
    ],
    "seeds": [
        {"class": [1, 0], "insertions": [0, 0, 1], "value": 1},
        {"class": [0, 1], "insertions": [0, 1, 1], "value": 1},
    ],
}


@pytest.fixture(scope="module")
def p1xp2_report(tmp_path_factory):
    """One checked solve through c1-degree 9, as exit code and JSON report."""
    path = tmp_path_factory.mktemp("oracles") / "p1xp2.json"
    path.write_text(json.dumps(P1XP2), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["solve", "--model-file", str(path), "--dmax", "3", "--check", "--format", "json"])
    return code, json.loads(out.getvalue())


def test_p1xp2_loads():
    model = model_from_dict(P1XP2)
    assert model.effective_c1 == (2, 3)
    assert model.insertion_weights() == (1, 1, 2)


def test_p1xp2_solve_passes_every_check(p1xp2_report):
    code, report = p1xp2_report
    assert code == 0
    assert report["model"] == "p1xp2"
    assert report["bounds"] == {"dmax": 3, "c1max": 9}
    assert len(report["checks"]) == 56
    assert all(check["pass"] for check in report["checks"])
    assert len(report["rows"]) == 193


def test_p1xp2_fiber_counts_are_plane_counts(p1xp2_report):
    # a curve of class (0, d) lies in a P^2 fiber; the point fixes the fiber
    # and every h2^2 insertion meets it in one point, so these are N_d
    _, report = p1xp2_report
    values = {tuple(row["key"]): int(row["value"]) for row in report["rows"]}
    fiber = {d: values[(0, d, 0, 3 * d - 2, 1)] for d in (1, 2, 3)}
    assert fiber == nd_plane_numbers(3)


def test_p1xp2_ruling_lines(p1xp2_report):
    # P^1-ruling classes (d, 0) with d > 1 are multiple covers and meet no
    # general point
    _, report = p1xp2_report
    values = {tuple(row["key"]): int(row["value"]) for row in report["rows"]}
    assert values[(1, 0, 0, 0, 1)] == 1
    assert values[(2, 0, 0, 0, 2)] == 0
