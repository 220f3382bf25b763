"""Benchmark inputs: a pigeonhole CNF and a DRAT proof refuting it.

php-rup   gen_php(PHP_RUP_HOLES) refuted by the built-in CDCL solver
          (solver seed 0), written as binary DRAT.  The run seed picks a
          permutation of the pigeons and one of the holes and relabels the
          proof's variables with it; the formula is invariant under that
          relabelling, so every seed gets a valid refutation of the same
          length and shape, reached through different clause ids.
cook-rat  Cook's extended-resolution refutation of gen_php(COOK_RAT_HOLES),
          written as text DRAT (see cook.py).  It is the same proof for every
          seed: its `check lrat` step is rejected on every run (see the
          README), and an operation that fails must see the same inputs
          whatever the seed.

Run as a script this writes formula.cnf and proof.drat into --out; the
benchmark times that process as its set-up.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from dratkit.formats import add_step, delete_step, write_dimacs, write_drat_binary
from dratkit.testkit import cdcl_solve, gen_php

from cook import cook_proof, write_drat_text

PHP_RUP_HOLES = 6
COOK_RAT_HOLES = 9
WORKLOADS = ("php-rup", "cook-rat")


def relabel(n: int, seed: int):
    """Literal map of a seeded pigeon and hole permutation of PHP(n)."""
    rng = random.Random(seed)
    pigeons = list(range(1, n + 2))
    holes = list(range(1, n + 1))
    rng.shuffle(pigeons)
    rng.shuffle(holes)
    image = {}
    for i in range(1, n + 2):
        for j in range(1, n + 1):
            image[(i - 1) * n + j] = (pigeons[i - 1] - 1) * n + holes[j - 1]
    return lambda l: image[l] if l > 0 else -image[-l]


def make_inputs(workload: str, seed: int):
    """(cnf_bytes, drat_bytes, solver_conflicts) of a workload; deterministic
    in the seed.  solver_conflicts is 0 where no solver runs."""
    if workload == "php-rup":
        f = gen_php(PHP_RUP_HOLES)
        res = cdcl_solve(f, seed=0)
        if res.status != "unsat":
            raise RuntimeError("the solver found PHP(%d) satisfiable" % PHP_RUP_HOLES)
        lit = relabel(PHP_RUP_HOLES, seed)
        steps = [(add_step if s.kind == "add" else delete_step)(
                    [lit(l) for l in s.clause.lits]) for s in res.proof]
        return write_dimacs(f), write_drat_binary(steps), res.conflicts
    if workload == "cook-rat":
        return (write_dimacs(gen_php(COOK_RAT_HOLES)),
                write_drat_text(cook_proof(COOK_RAT_HOLES)), 0)
    raise ValueError("unknown workload %r" % (workload,))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args(argv)
    cnf, drat, _ = make_inputs(args.workload, args.seed)
    for name, data in (("formula.cnf", cnf), ("proof.drat", drat)):
        with open(os.path.join(args.out, name), "wb") as fh:
            fh.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
