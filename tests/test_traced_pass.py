"""The benchmark's traced pass, run as a command from the checkout.

perfbench/run.py --trace 1 calls the library's layers in-process by name
(CheckMode, StepRecord.core, emit_lrat, Delete.kind, HintBlock's parts,
parse_dimacs's 3-tuple, the Engine.rup and Engine.rat spans), so a rename
that the rest of the suite does not see breaks it.  One traced pass on
cook-rat must verify and report the deterministic counters below.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

COUNTERS = {
    "pipeline.adds": 2505,
    "pipeline.core_adds": 2503,
    "pipeline.core_originals": 415,
    "pipeline.lrat_hints": 8429,
    "pipeline.er_steps": 1800,
    "pipeline.er_extensions": 238,
    "propagate.rup_calls": 1,
    "propagate.rat_calls": 2504,
    "checkers.rat_steps": 940,
    "checkers.visited_clauses": 80502,
    "checkers.visited_clauses_lrat": 7489,
    "formats.proof_steps": 5403,
}


def test_traced_pass_on_cook_rat_reports_its_counters():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cook-rat",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), p.stderr
    got = {k: result["metrics"][k]["value"] for k in COUNTERS}
    assert got == COUNTERS
