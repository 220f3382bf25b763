"""Tests of the benchmark's own parts: the Cook proof generator, the seeded
relabelling, the output checks (each must catch a corrupted output), the
span arithmetic, and the agreement of run.py with BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
from _oracles import naive_check_drat  # noqa: E402
from cook import cook_proof, write_drat_text  # noqa: E402
from dratkit.formats import write_dimacs, write_er, write_lrat  # noqa: E402
from dratkit.pipeline import backward_check, emit_lrat, to_er  # noqa: E402
from dratkit.testkit import cdcl_solve, gen_php  # noqa: E402
from inputs import WORKLOADS, make_inputs, relabel  # noqa: E402
from spans import Profile, Tracer  # noqa: E402


def php_clauses(n):
    return [list(c.lits) for _, c in gen_php(n).items()]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------- cook-rat

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cook_refutes_gen_php_under_the_naive_checker(n):
    steps = cook_proof(n)
    for mode in ("specified", "operational"):
        assert naive_check_drat(php_clauses(n), steps, mode=mode) == (
            "verified", len(steps))


def test_cook_definitions_are_pivot_first_on_fresh_variables():
    n = 3
    seen = n * (n + 1)
    for kind, lits in cook_proof(n):
        if kind == "a" and lits and abs(lits[0]) > seen:
            assert abs(lits[0]) == seen + 1 and lits[0] > 0
            seen += 1


def test_cook_check_drat_counts_rat_steps(tmp_path):
    n = 4
    (tmp_path / "f.cnf").write_bytes(write_dimacs(gen_php(n)))
    (tmp_path / "p.drat").write_bytes(write_drat_text(cook_proof(n)))
    out = subprocess.run(
        [sys.executable, "-m", "dratkit.cli", "check", "drat", "f.cnf", "p.drat",
         "--counters"], cwd=tmp_path, env=_env(), capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip().endswith("s VERIFIED")
    assert checks.counters(out.stdout)["rat_steps"] > 0
    assert checks.rat_steps(out.stdout, expect_rat=True) is None


# ------------------------------------------------------------------ php-rup

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelled_solver_proof_still_refutes_php(seed):
    n = 4
    f = gen_php(n)
    proof = cdcl_solve(f, seed=0).proof
    lit = relabel(n, seed)
    steps = [("a" if s.kind == "add" else "d", [lit(l) for l in s.clause.lits])
             for s in proof]
    assert naive_check_drat(php_clauses(n), steps)[0] == "verified"
    assert sorted(abs(lit(v)) for v in range(1, n * (n + 1) + 1)) == list(
        range(1, n * (n + 1) + 1))


def test_php_inputs_depend_on_the_seed_only():
    assert make_inputs("php-rup", 3) == make_inputs("php-rup", 3)
    assert make_inputs("php-rup", 3)[1] != make_inputs("php-rup", 4)[1]
    assert make_inputs("php-rup", 3)[0] == make_inputs("php-rup", 4)[0]


# ------------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def php3_docs():
    f = gen_php(3)
    cp = backward_check(f, cdcl_solve(f, seed=0).proof)
    return php_clauses(3), write_lrat(emit_lrat(cp)), write_er(to_er(f, cp))


def test_oracles_accept_the_emitted_documents(php3_docs):
    cnf, lrat, er = php3_docs
    oracles = checks.Oracles(cnf)
    assert oracles.lrat(lrat) is None
    assert oracles.er(er) is None


def test_lrat_check_catches_one_flipped_literal(php3_docs):
    cnf, lrat, _ = php3_docs
    lines = lrat.decode().splitlines()
    k = next(i for i, line in enumerate(lines)
             if " d " not in line and line.split()[1] != "0")
    parts = lines[k].split()
    parts[1] = str(-int(parts[1]))
    lines[k] = " ".join(parts)
    bad = ("\n".join(lines) + "\n").encode()
    assert checks.Oracles(cnf).lrat(bad) is not None


def test_er_check_catches_one_dropped_antecedent(php3_docs):
    cnf, _, er = php3_docs
    lines = er.decode().splitlines()
    k = next(i for i, line in enumerate(lines)
             if " e " not in line and " d " not in line
             and len(line.split(" 0 ")[-1].split()) > 2)
    head, ants = lines[k].rsplit(" 0 ", 1)
    ants = ants.split()
    lines[k] = head + " 0 " + " ".join(ants[1:])
    bad = ("\n".join(lines) + "\n").encode()
    assert checks.Oracles(cnf).er(bad) is not None


def test_core_check_catches_a_foreign_or_repeated_clause():
    cnf = [[1, 2], [-1, 2], [-2]]
    assert checks.core_in_input(b"p cnf 2 2\n2 1 0\n-2 0\n", cnf) is None
    assert checks.core_in_input(b"p cnf 2 1\n1 0\n", cnf) is not None
    assert checks.core_in_input(b"p cnf 2 2\n-2 0\n-2 0\n", cnf) is not None


def test_verdict_rat_and_determinism_checks_catch_faults():
    assert checks.verified(0, "c x 1\ns VERIFIED\n") is None
    assert checks.verified(1, "s NOT VERIFIED\n") is not None
    assert checks.verified(0, "s NOT VERIFIED\n") is not None
    assert checks.rat_steps("c rat_steps 0\ns VERIFIED\n", expect_rat=True) is not None
    assert checks.rat_steps("c rat_steps 3\ns VERIFIED\n", expect_rat=False) is not None
    assert checks.rat_steps("s VERIFIED\n", expect_rat=False) is not None
    assert checks.same_bytes(b"1 0\n", b"1 0\n", "x") is None
    assert checks.same_bytes(b"1 0\n", b"-1 0\n", "x") is not None


def test_read_dimacs_is_independent_of_the_program():
    assert checks.read_dimacs(b"c hi\np cnf 3 2\n1 -2\n 0 3 0\n") == [[1, -2], [3]]


# -------------------------------------------------------------------- spans

def test_self_time_subtracts_direct_children():
    spans = [("cmd", 0, 100, -1), ("a", 10, 60, 0), ("b", 20, 50, 1),
             ("b", 70, 80, 0)]
    p = Profile(spans, 0)
    assert p.total["a"] == 50 and p.self_ns["a"] == 20
    assert p.total["b"] == 40 and p.calls["b"] == 2
    assert p.under[("cmd", "b")] == 10 and p.under[("a", "b")] == 30


def test_tracer_catches_calls_between_layers_and_restores_them():
    from dratkit import pipeline, propagate
    f = gen_php(3)
    proof = cdcl_solve(f, seed=0).proof
    before = (pipeline.to_er, pipeline.emit_trimmed, propagate.Engine.rup)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cmd"):
            pipeline.to_er(f, pipeline.backward_check(f, proof))
    finally:
        tracer.uninstall()
    assert (pipeline.to_er, pipeline.emit_trimmed, propagate.Engine.rup) == before
    spans = tracer.spans
    parent_of = {s[0]: spans[s[3]][0] for s in spans if s[3] >= 0}
    assert parent_of["pipeline.to_er"] == "cmd"
    assert parent_of["pipeline.emit_trimmed"] == "pipeline.to_er"
    assert parent_of["checkers.check_er"] == "pipeline.to_er"
    names = {s[0] for s in spans}
    assert "Engine.rup" in names and "Engine.lit_value" not in names
    assert all(s[1] <= s[2] for s in spans)


# ------------------------------------------------------------ BENCHMARK.json

def test_run_reports_what_benchmark_json_declares():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "php-rup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
