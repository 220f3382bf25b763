"""Command-line interface tests: exit codes, result lines, artifact files."""

import gc
import json
import os
import random
import subprocess
import sys

import pytest

import dratkit
from dratkit import pipeline
from dratkit.cli import main
from dratkit.core import formula_from_clauses
from dratkit.formats import (
    add_step,
    delete_step,
    parse_dimacs,
    write_dimacs,
    write_drat_binary,
    write_drat_text,
)
from dratkit.testkit import cdcl_solve, gen_php, gen_random

from test_pipeline import _cook_steps

FULL2 = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
FULL2_PROOF = [add_step([1, 2]), add_step([1]), add_step([])]


def _cnf_file(tmp_path, clauses, name="f.cnf"):
    path = tmp_path / name
    path.write_bytes(write_dimacs(formula_from_clauses(clauses)))
    return str(path)


def _proof_file(tmp_path, steps, name="p.drat", binary=False):
    path = tmp_path / name
    writer = write_drat_binary if binary else write_drat_text
    path.write_bytes(writer(steps))
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_drat_verified(tmp_path, capsys):
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, FULL2_PROOF)
    rc, out, _ = _run(capsys, ["check", "drat", cnf, proof])
    assert rc == 0
    assert out == "s VERIFIED\n"


def test_check_drat_rejected(tmp_path, capsys):
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, [add_step([1])])  # no empty clause
    rc, out, _ = _run(capsys, ["check", "drat", cnf, proof])
    assert rc == 1
    assert out == "s NOT VERIFIED\n"


def test_check_drat_counters_are_stable(tmp_path, capsys):
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, FULL2_PROOF)
    argv = ["check", "drat", cnf, proof, "--counters"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[-1] == "s VERIFIED"
    assert all(l.startswith("c ") for l in lines[:-1])
    names = [l.split()[1] for l in lines[:-1]]
    assert "steps_checked" in names and "visited_clauses" in names
    for l in lines[:-1]:
        int(l.split()[2])


def _counter_runs(tmp_path, capsys, f, proof, modes=("specified", "operational")):
    cnf = tmp_path / "f.cnf"
    cnf.write_bytes(write_dimacs(f))
    path = _proof_file(tmp_path, proof)
    return [_run(capsys, ["check", "drat", str(cnf), path, "--counters",
                          "--mode", mode]) for mode in modes]


def test_check_drat_operational_counters_equal_specified(tmp_path, capsys):
    # php(5) is the smallest pigeonhole proof of the solver with deletions;
    # the second formula has a top-level trail (1, 2) for the shield to
    # read, which satisfies one deleted clause and falsifies a literal of
    # the other, and its top level never conflicts at a deletion
    f = gen_php(5)
    cases = [(f, cdcl_solve(f, seed=0).proof),
             (formula_from_clauses([[1], [-1, 2], [2, 7], [-2, 5, 6], [3, 4],
                                    [-3, 4], [3, -4], [-3, -4]]),
              [delete_step([2, 7]), delete_step([-2, 5, 6]), add_step([3]),
               add_step([])])]
    for f, proof in cases:
        assert any(s.kind == "delete" for s in proof)
        spec, op = _counter_runs(tmp_path, capsys, f, proof)
        assert spec == op
        assert spec[0] == 0 and "c skipped_deletions 0" in spec[1].splitlines()


def test_check_drat_operational_counts_skipped_unit_deletion(tmp_path, capsys):
    # each deletion comes under a conflicting top level: 1 and -1; 1, {-1, 2}
    # and {-2}; 3 with {-3, 4} and {-3, -4}
    cases = [([[1], [-1]], [delete_step([1]), add_step([])]),
             ([[1], [-1, 2], [-2], [3, 4]], [delete_step([-2]), add_step([])]),
             ([[1], [-1, 2], [5, 6], [3, 4], [-3, 4], [3, -4], [-3, -4]],
              [delete_step([5, 6]), add_step([3]), delete_step([3, 4]),
               add_step([])])]
    for clauses, proof in cases:
        (rc, out, _), = _counter_runs(tmp_path, capsys, formula_from_clauses(clauses),
                                      proof, modes=("operational",))
        assert rc == 0 and "c skipped_deletions 1" in out.splitlines()


def test_check_drat_mode_flag_switches_deletion_semantics(tmp_path, capsys):
    cnf = _cnf_file(tmp_path, [[1], [-1]])
    proof = _proof_file(tmp_path, [delete_step([1]), add_step([])])
    rc, out, _ = _run(capsys, ["check", "drat", cnf, proof,
                               "--mode", "operational"])
    assert (rc, out) == (0, "s VERIFIED\n")
    rc, out, _ = _run(capsys, ["check", "drat", cnf, proof,
                               "--mode", "specified"])
    assert (rc, out) == (1, "s NOT VERIFIED\n")


def test_check_drat_binary_autodetect_and_override(tmp_path, capsys):
    cnf = _cnf_file(tmp_path, FULL2)
    bproof = _proof_file(tmp_path, FULL2_PROOF, name="p.bdrat", binary=True)
    rc, out, _ = _run(capsys, ["check", "drat", cnf, bproof])
    assert (rc, out) == (0, "s VERIFIED\n")
    # a text proof opening with a deletion line starts with 'd' like a
    # binary one, but holds no NUL, so it is detected as text
    tproof = tmp_path / "d.drat"
    tproof.write_bytes(b"d 5 6 0\n1 0\n0\n")
    rc, out, _ = _run(capsys, ["check", "drat", cnf, str(tproof)])
    assert (rc, out) == (0, "s VERIFIED\n")
    # no option forces a parser
    for flag in ("--binary", "--text"):
        with pytest.raises(SystemExit):
            main(["check", "drat", cnf, str(tproof), flag])


def test_check_drat_reads_a_comment_to_the_newline(tmp_path, capsys):
    # DRAT-trim and MiniSat end a comment at \n only: this formula is the
    # satisfiable {(1)}, so the proof 0 fails at its one step
    cnf = tmp_path / "f.cnf"
    cnf.write_bytes(b"p cnf 1 1\nc x\f-1 0\n1 0\n")
    proof = tmp_path / "p.drat"
    proof.write_bytes(b"0\n")
    rc, out, err = _run(capsys, ["check", "drat", str(cnf), str(proof)])
    assert (rc, out) == (1, "s NOT VERIFIED\n")
    assert err == "error: step 0 rejected: not_rat\n"


def test_trim_writes_all_artifacts_that_reverify(tmp_path, capsys):
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, FULL2_PROOF)
    out_lrat = tmp_path / "p.lrat"
    out_drat = tmp_path / "t.drat"
    out_core = tmp_path / "core.cnf"
    rc, out, _ = _run(capsys, ["trim", cnf, proof,
                               "--out-lrat", str(out_lrat),
                               "--out-drat", str(out_drat),
                               "--out-core", str(out_core)])
    assert (rc, out) == (0, "s VERIFIED\n")
    assert out_lrat.read_bytes() == b"5 1 0 1 3 0\n6 0 5 2 4 0\n"
    assert out_drat.read_bytes() == b"1 0\n0\n"
    rc, out, _ = _run(capsys, ["check", "lrat", cnf, str(out_lrat)])
    assert (rc, out) == (0, "s VERIFIED\n")
    rc, out, _ = _run(capsys, ["check", "drat", str(out_core), str(out_drat)])
    assert (rc, out) == (0, "s VERIFIED\n")


def test_trim_builds_the_trimmed_proof_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = pipeline.emit_trimmed

    def counted(cp):
        calls.append(cp)
        return build(cp)

    monkeypatch.setattr(pipeline, "emit_trimmed", counted)
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, FULL2_PROOF)
    out_lrat = tmp_path / "p.lrat"
    rc, out, _ = _run(capsys, ["trim", cnf, proof, "--out-lrat", str(out_lrat)])
    assert (rc, out) == (0, "s VERIFIED\n")
    assert len(calls) == 1
    assert out_lrat.read_bytes() == b"5 1 0 1 3 0\n6 0 5 2 4 0\n"


def test_trim_refuses_output_on_rejected_proof(tmp_path, capsys):
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, [add_step([1])])
    out_lrat = tmp_path / "p.lrat"
    rc, out, err = _run(capsys, ["trim", cnf, proof, "--out-lrat", str(out_lrat)])
    assert rc == 1
    assert out == "s NOT VERIFIED\n"
    assert "step" in err
    assert not out_lrat.exists()


def test_to_er_output_reverifies(tmp_path, capsys):
    split8 = [[1, 2], [-1, 2], [-1, -2, 3], [-2, 3],
              [-3, 4, 5], [-3, -4, 5], [-3, 4, -5], [-3, -4, -5]]
    cnf = _cnf_file(tmp_path, split8)
    proof = _proof_file(tmp_path, [
        add_step([1, -2]), delete_step([-2, 3]), add_step([-2, 3]),
        add_step([3]), add_step([-3, 4]), add_step([-3]), add_step([])])
    out_er = tmp_path / "p.er"
    rc, out, _ = _run(capsys, ["to-er", cnf, proof, "--out", str(out_er)])
    assert (rc, out) == (0, "s VERIFIED\n")
    rc, out, _ = _run(capsys, ["check", "er", cnf, str(out_er)])
    assert (rc, out) == (0, "s VERIFIED\n")
    rc, out, _ = _run(capsys, ["check", "er", cnf, str(out_er), "--counters"])
    assert rc == 0
    assert out.splitlines()[-1] == "s VERIFIED"


def test_check_er_rejects_an_extension_mentioning_its_own_variable(tmp_path, capsys):
    # the satisfiable {-1}, refuted through x <-> (-x or 1)
    cnf = _cnf_file(tmp_path, [[-1]])
    er = tmp_path / "p.er"
    er.write_bytes(b"2 e 2 -2 1 0\n5 1 0 4 2 0\n6 0 5 1 0\n")
    rc, out, _ = _run(capsys, ["check", "er", cnf, str(er)])
    assert (rc, out) == (1, "s NOT VERIFIED\n")
    # {-1}, {2}, refuted through x <-> (1 or (-x and 2))
    cnf = _cnf_file(tmp_path, [[-1], [2]])
    er.write_bytes(b"3 e 3 1 -3 2 0\n7 3 0 4 2 0\n8 1 0 5 7 0\n9 0 8 1 0\n")
    rc, out, _ = _run(capsys, ["check", "er", cnf, str(er), "--counters"])
    assert rc == 1
    assert out.splitlines()[-2:] == ["c reject_step 0", "s NOT VERIFIED"]


# one rejected document per format, with the line that names its rejection
REJECTED = {
    "drat": ([[1, 2], [-1, -2]], b"1 0\n",
             "error: step 0 rejected: not_rat (2)\n"),
    "lrat": (FULL2 + [[-3, 4]], b"6 d 2 0\n7 5 -3 0 5 2 0\n",
             "error: step 1 rejected: unknown_id (2)\n"),
    "er": ([[1, 2], [3, 4], [-1, -2]], b"4 0 1 3 0\n",
           "error: step 0 rejected: no_pivot (1)\n"),
}


@pytest.mark.parametrize("fmt", sorted(REJECTED))
def test_check_names_the_rejection_on_stderr(fmt, tmp_path, capsys):
    clauses, doc, line = REJECTED[fmt]
    cnf = _cnf_file(tmp_path, clauses)
    proof = tmp_path / ("p." + fmt)
    proof.write_bytes(doc)
    rc, out, err = _run(capsys, ["check", fmt, cnf, str(proof)])
    assert (rc, out, err) == (1, "s NOT VERIFIED\n", line)
    # the counter lines stay on stdout, as before, and the error stays off it
    rc, out, err = _run(capsys, ["check", fmt, cnf, str(proof), "--counters"])
    assert (rc, err) == (1, line)
    step = int(line.split()[2])
    assert out.splitlines()[-2:] == ["c reject_step %d" % step, "s NOT VERIFIED"]
    assert all(l.startswith("c ") for l in out.splitlines()[:-1])


# every command with a rejected input: the cnf, the proof and the command's
# output flags (none for the checks)
REJECTED_COMMANDS = {
    "check drat": (FULL2, b"1 0\n", []),
    "check lrat": REJECTED["lrat"][:2] + ([],),
    "check er": REJECTED["er"][:2] + ([],),
    "trim": (FULL2, b"1 0\n", ["--out-lrat", "o.lrat", "--out-drat", "o.drat",
                               "--out-core", "o.cnf"]),
    "to-er": (FULL2, b"1 0\n", ["--out", "o.er"]),
}


@pytest.mark.parametrize("command, counters", [
    (c, counters) for c in sorted(REJECTED_COMMANDS)
    for counters in ((False, True) if c.startswith("check") else (False,))])
def test_every_command_reports_a_rejection_one_way(command, counters, tmp_path,
                                                   capsys, monkeypatch):
    clauses, doc, outputs = REJECTED_COMMANDS[command]
    monkeypatch.chdir(tmp_path)
    cnf = _cnf_file(tmp_path, clauses)
    proof = tmp_path / "p.doc"
    proof.write_bytes(doc)
    before = sorted(os.listdir(tmp_path))
    argv = command.split() + [cnf, str(proof)] + outputs
    rc, out, err = _run(capsys, argv + ["--counters"] * counters)
    assert rc == 1
    assert out.splitlines()[-1] == "s NOT VERIFIED"
    assert all(l.startswith("c ") for l in out.splitlines()[:-1])
    assert len(err.splitlines()) == 1
    assert err.startswith("error: step ") and " rejected: " in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command, what", [("trim", "LRAT"), ("to-er", "ER")])
def test_a_failed_self_check_writes_nothing(command, what, tmp_path, capsys,
                                            monkeypatch):
    from dratkit.checkers import CheckReport

    def reject(f, steps):
        return CheckReport(False, 2, "bad_hint", 1)

    monkeypatch.setattr(pipeline, "check_lrat", reject)
    monkeypatch.setattr(pipeline, "check_er", reject)
    monkeypatch.chdir(tmp_path)
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, FULL2_PROOF)
    outputs = REJECTED_COMMANDS[command][2]
    rc, out, err = _run(capsys, [command, cnf, proof] + outputs)
    assert (rc, out) == (1, "s NOT VERIFIED\n")
    assert err == ("error: translation self-check failed: emitted %s document "
                   "rejected at step 2: bad_hint (1)\n" % what)
    assert sorted(os.listdir(tmp_path)) == ["f.cnf", "p.drat"]


def test_a_forged_engine_is_caught_on_an_input_holding_the_empty_clause(
        tmp_path, capsys, monkeypatch):
    # the record of an input that refutes itself comes from the search and
    # passes the hint walk like any other: an engine that leaves the empty
    # original out of its chain is caught before anything is written
    from dratkit.formats import HintBlock
    from dratkit.propagate import Engine

    real = Engine.rup

    def forged(self, c):
        chain = real(self, c)
        empty = {cid for cid, cl in self.f.clauses.items() if cl.is_empty}
        return HintBlock(a for a in chain if a not in empty)

    monkeypatch.setattr(Engine, "rup", forged)
    monkeypatch.chdir(tmp_path)
    cnf = _cnf_file(tmp_path, [[1], []])
    proof = _proof_file(tmp_path, [])
    for command in ("trim", "to-er"):
        outputs = REJECTED_COMMANDS[command][2]
        rc, out, err = _run(capsys, [command, cnf, proof] + outputs)
        assert (rc, out) == (1, "s NOT VERIFIED\n")
        assert err == ("error: the search's hint block for step 0 failed the "
                       "hint walk: bad_hint (0)\n")
        assert sorted(os.listdir(tmp_path)) == ["f.cnf", "p.drat"]
    # check drat verifies such an input with no step read
    rc, out, _ = _run(capsys, ["check", "drat", cnf, proof, "--counters"])
    assert rc == 0
    assert out.splitlines()[0] == "c steps_checked 0"
    assert out.splitlines()[2:] == ["c visited_clauses 0", "c skipped_deletions 0",
                                    "c missing_deletions 0", "s VERIFIED"]


def test_solve_reports_status_and_writes_proof(tmp_path, capsys):
    sat_cnf = _cnf_file(tmp_path, [[1, 2]], name="sat.cnf")
    rc, out, _ = _run(capsys, ["solve", sat_cnf])
    assert (rc, out) == (0, "s SATISFIABLE\n")
    unsat_cnf = _cnf_file(tmp_path, FULL2, name="unsat.cnf")
    proof = tmp_path / "solved.drat"
    rc, out, _ = _run(capsys, ["solve", unsat_cnf, "--proof", str(proof),
                               "--seed", "3"])
    assert (rc, out) == (0, "s UNSATISFIABLE\n")
    rc, out, _ = _run(capsys, ["check", "drat", unsat_cnf, str(proof)])
    assert (rc, out) == (0, "s VERIFIED\n")


def test_gen_php_matches_library_output(tmp_path, capsys):
    rc, out, _ = _run(capsys, ["gen", "php", "2"])
    assert rc == 0
    assert out.encode() == write_dimacs(gen_php(2))
    assert out.startswith("p cnf 6 9\n")
    path = tmp_path / "php.cnf"
    rc, _, _ = _run(capsys, ["gen", "php", "3", "--out", str(path)])
    assert rc == 0
    assert parse_dimacs(path.read_bytes())[0].max_var == 12


def test_gen_random_is_seed_deterministic(tmp_path, capsys):
    argv = ["gen", "random", "--vars", "5", "--clauses", "12", "--width", "3",
            "--seed", "9"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.encode() == write_dimacs(gen_random(5, 12, 3, 9))


def test_usage_and_parse_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "nonsense"])
    assert e.value.code == 2
    rc, _, err = _run(capsys, ["check", "drat", str(tmp_path / "missing.cnf"),
                               str(tmp_path / "missing.drat")])
    assert rc == 2
    assert "error:" in err
    bad = tmp_path / "bad.cnf"
    bad.write_bytes(b"p cnf zz\n")
    proof = _proof_file(tmp_path, FULL2_PROOF)
    rc, _, err = _run(capsys, ["check", "drat", str(bad), proof])
    assert rc == 2
    assert "error:" in err
    rc, _, err = _run(capsys, ["gen", "php", "0"])
    assert rc == 2
    out = tmp_path / "f.cnf"
    for clauses, width, word in (("2", "0", "width"), ("2", "-1", "width"),
                                 ("-2", "2", "clauses")):
        rc, _, err = _run(capsys, ["gen", "random", "--vars", "3",
                                   "--clauses", clauses, "--width", width,
                                   "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert err.startswith("error: ") and word in err
        assert not out.exists()


def test_digit_separator_in_the_cnf_exits_two(tmp_path, capsys):
    # int() would read 1_0 as 10 and check the proof against clause [10]
    cnf = tmp_path / "f.cnf"
    cnf.write_bytes(b"p cnf 10 1\n1_0 0\n")
    proof = _proof_file(tmp_path, [add_step([-10]), add_step([])])
    rc, out, err = _run(capsys, ["check", "drat", str(cnf), proof])
    assert rc == 2
    assert out == ""
    assert err == "error: line 2: underscore in token '1_0'\n"


# Run in a fresh interpreter: which modules `import dratkit.cli`, a check
# command, trim, and then solve and gen load.  The facts are printed as one
# JSON object.
STARTUP_PROBE = """
import json, sys
before = set(sys.modules)
import dratkit.cli
imported = set(sys.modules) - before
rc = dratkit.cli.main(["check", "lrat", sys.argv[1], sys.argv[2]])
after_check = set(sys.modules)
dratkit.cli.main(["trim", sys.argv[1], sys.argv[3], "--out-lrat", sys.argv[4]])
trim_dataclasses = "dataclasses" in set(sys.modules) - before
dratkit.cli.main(["gen", "php", "3", "--out", sys.argv[5]])
dratkit.cli.main(["solve", sys.argv[5], "--proof", sys.argv[6]])
print(json.dumps({
    "rc": rc,
    "import": sorted(imported & {"dataclasses", "dratkit.pipeline"}),
    "check": sorted(after_check & {"dataclasses", "dratkit.pipeline"}),
    "trim_dataclasses": trim_dataclasses,
    "solve_gen": sorted((set(sys.modules) - before)
                        & {"dataclasses", "numpy"}),
}))
"""


def _src_env():
    """The environment of a fresh interpreter that imports this dratkit."""
    src = os.path.dirname(os.path.dirname(dratkit.__file__))
    return dict(os.environ, PYTHONPATH=src)


def test_check_commands_load_neither_dataclasses_nor_the_pipeline(tmp_path):
    # start-up is most of a small check's cost: keep the pipeline (which
    # only trim and to-er need) and dataclasses off the check path, and
    # numpy and dataclasses out of solve and gen
    cnf = _cnf_file(tmp_path, FULL2)
    lrat = tmp_path / "p.lrat"
    lrat.write_bytes(b"5 1 0 1 3 0\n6 0 5 2 4 0\n")
    drat = _proof_file(tmp_path, FULL2_PROOF)
    php, proof = tmp_path / "php.cnf", tmp_path / "php.drat"
    run = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, cnf, str(lrat), drat,
         str(tmp_path / "out.lrat"), str(php), str(proof)],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    facts = json.loads(run.stdout.splitlines()[-1])
    assert facts == {"rc": 0, "import": [], "check": [],
                     "trim_dataclasses": False, "solve_gen": []}
    assert run.stdout.splitlines()[-2] == "s UNSATISFIABLE"
    assert proof.read_bytes().endswith(b"\n0\n")


# Run with numpy blocked: every dratkit module imports, the oracles (from
# the tests' _truth_table) and the solver run, and so do `gen php 3` and `solve`.
NO_NUMPY_PROBE = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
import dratkit
for m in pkgutil.iter_modules(dratkit.__path__):
    importlib.import_module("dratkit." + m.name)
from dratkit.cli import main
from dratkit.core import Clause, formula_from_clauses
from dratkit.testkit import cdcl_solve, gen_php
from _truth_table import brute_force, entails
f = formula_from_clauses([[1, 2], [-1, 2]])
assert brute_force(f) == {1: False, 2: True}
assert entails(f, Clause([2])) and not entails(f, Clause([1]))
assert cdcl_solve(gen_php(2), seed=0).status == "unsat"
assert main(["gen", "php", "3", "--out", sys.argv[1]]) == 0
assert main(["solve", sys.argv[1], "--proof", sys.argv[2]]) == 0
"""


def test_dratkit_runs_with_numpy_blocked(tmp_path):
    # dratkit needs nothing outside the standard library
    php, proof = tmp_path / "php.cnf", tmp_path / "php.drat"
    run = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, str(php), str(proof)],
        env=_src_env(), capture_output=True, text=True, timeout=60,
        cwd=os.path.dirname(os.path.abspath(__file__)))  # for _truth_table
    assert run.returncode == 0, run.stderr
    assert run.stdout == "s UNSATISFIABLE\n"
    assert proof.read_bytes().endswith(b"\n0\n")


def test_cli_round_trip_on_solver_corpus(tmp_path, capsys):
    rng = random.Random(47)
    done = 0
    trial = 0
    while done < 6:
        trial += 1
        maxv = rng.randint(3, 6)
        f = gen_random(maxv, rng.randint(2 * maxv, 4 * maxv), 3,
                       seed=rng.randrange(10 ** 6))
        if cdcl_solve(f, seed=trial).status != "unsat":
            continue
        done += 1
        cnf = tmp_path / ("f%d.cnf" % trial)
        cnf.write_bytes(write_dimacs(f))
        proof = tmp_path / ("f%d.drat" % trial)
        rc, out, _ = _run(capsys, ["solve", str(cnf), "--proof", str(proof),
                                   "--seed", str(trial)])
        assert (rc, out) == (0, "s UNSATISFIABLE\n")
        lrat = tmp_path / ("f%d.lrat" % trial)
        er = tmp_path / ("f%d.er" % trial)
        rc, _, _ = _run(capsys, ["trim", str(cnf), str(proof),
                                 "--out-lrat", str(lrat)])
        assert rc == 0
        rc, _, _ = _run(capsys, ["to-er", str(cnf), str(proof),
                                 "--out", str(er)])
        assert rc == 0
        for argv in (["check", "lrat", str(cnf), str(lrat)],
                     ["check", "er", str(cnf), str(er)]):
            rc, out, _ = _run(capsys, argv)
            assert (rc, out) == (0, "s VERIFIED\n")


def _cyclic_garbage(capsys, argv):
    """main(argv)'s exit code, and what gc.collect() finds after main ran
    with the collector off, as the process entry point runs it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        rc = main(argv)
        capsys.readouterr()
        return rc, gc.collect()
    finally:
        if enabled:
            gc.enable()


# family -> (formula, DRAT steps) of the smaller and the larger input
GARBAGE_INPUTS = {
    "php": lambda n: (gen_php(n), cdcl_solve(gen_php(n), seed=0).proof),
    "cook": lambda n: (gen_php(n), _cook_steps(n)),
}


@pytest.mark.parametrize("family, sizes", [("php", (4, 5)), ("cook", (3, 5))])
def test_a_commands_cyclic_garbage_does_not_grow_with_its_proof(
        family, sizes, tmp_path, capsys):
    # the process entry point runs a command with no cyclic collection and
    # freezes what is left: that is only safe while the garbage a command
    # leaves for the collector is the same on a larger proof, accepted,
    # rejected or malformed
    found = []
    for n in sizes:
        f, proof = GARBAGE_INPUTS[family](n)
        d = tmp_path / str(n)
        d.mkdir()
        cnf, drat = str(d / "f.cnf"), str(d / "p.drat")
        (d / "f.cnf").write_bytes(write_dimacs(f))
        (d / "p.drat").write_bytes(write_drat_text(proof))
        (d / "open.drat").write_bytes(write_drat_text(proof[:-1]))
        (d / "bad.drat").write_bytes(write_drat_text(proof) + b"1 x 0\n")
        lrat, er = str(d / "p.lrat"), str(d / "p.er")
        commands = [
            (["check", "drat", cnf, drat, "--counters"], 0),
            (["check", "drat", cnf, drat, "--mode", "operational"], 0),
            (["trim", cnf, drat, "--out-lrat", lrat, "--out-drat",
              str(d / "t.drat"), "--out-core", str(d / "core.cnf")], 0),
            (["to-er", cnf, drat, "--out", er], 0),
            (["check", "lrat", cnf, lrat], 0),
            (["check", "er", cnf, er], 0),
            (["check", "drat", cnf, str(d / "open.drat")], 1),
            (["check", "drat", cnf, str(d / "bad.drat")], 2),
        ]
        runs = [_cyclic_garbage(capsys, argv) for argv, _ in commands]
        assert [rc for rc, _ in runs] == [rc for _, rc in commands]
        found.append([garbage for _, garbage in runs])
    assert found[0] == found[1]


def test_the_module_entry_point_runs_a_command_as_main_does(tmp_path, capsys):
    f = gen_php(3)
    proof = cdcl_solve(f, seed=0).proof
    cnf = _cnf_file(tmp_path, [list(c.lits) for _, c in f.items()])
    drat = _proof_file(tmp_path, proof)
    open_drat = _proof_file(tmp_path, proof[:-1], name="open.drat")
    bad = tmp_path / "bad.drat"
    bad.write_bytes(b"1 x 0\n")

    def entry(*argv):
        return subprocess.run([sys.executable, "-m", "dratkit.cli", *argv],
                              env=_src_env(), capture_output=True, text=True,
                              timeout=60, cwd=tmp_path)

    run = entry("check", "drat", cnf, drat, "--counters")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "s VERIFIED" and len(lines) > 1
    assert all(l.startswith("c ") for l in lines[:-1])
    assert run.stdout == _run(capsys, ["check", "drat", cnf, drat,
                                       "--counters"])[1]
    run = entry("check", "drat", cnf, open_drat)
    assert (run.returncode, run.stdout) == (1, "s NOT VERIFIED\n")
    assert run.stderr.startswith("error: step ")
    assert entry("check", "drat", cnf, str(bad)).returncode == 2
    outputs = ["--out-lrat", "p.lrat", "--out-drat", "t.drat",
               "--out-core", "core.cnf"]
    assert entry("trim", cnf, drat, *outputs).returncode == 0
    by_process = {name: (tmp_path / name).read_bytes()
                  for name in ("p.lrat", "t.drat", "core.cnf")}
    here = tmp_path / "main"
    here.mkdir()
    assert main(["trim", cnf, drat] + [o if o.startswith("--") else str(here / o)
                                       for o in outputs]) == 0
    capsys.readouterr()
    assert {name: (here / name).read_bytes() for name in by_process} == by_process


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, tmp_path, capsys):
    # only the process entry point turns the collector off and freezes the
    # heap; a caller of main in a long-lived process keeps its collector
    cnf = _cnf_file(tmp_path, FULL2)
    proof = _proof_file(tmp_path, FULL2_PROOF)
    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _run(capsys, ["check", "drat", cnf, proof])[0] == 0
        assert _run(capsys, ["check", "drat", cnf, str(tmp_path / "no")])[0] == 2
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()
