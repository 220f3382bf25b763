"""Alternating-pair benchmark of a parent commit against the working tree.

    python3 tools/ab.py --parent REV --seeds 61-70 --seconds 40 \\
        --claimed to_er_s:php-rup --change "what the change does" \\
        --out BENCH_22.json

The parent commit and the working tree (tracked and untracked files that
.gitignore does not exclude) are exported with git archive into fresh
directories under a temporary directory, so neither side carries compiled
bytecode or benchmark output from the checkout.  For each workload and
seed, perfbench/run.py --trace 0 runs once from each export, one after the
other; the side that runs first alternates with the seed.  The environment
passes through unchanged, and the output's method records whether
PYTHONDONTWRITEBYTECODE was set.

The output has one entry per workload: its seeds, the operations each side
attempted and failed, each end-to-end metric of BENCHMARK.json as medians
and quartiles (statistics.quantiles, n=4) over the runs per side, with
change_wins and change_losses counting the pairs the change reads better
and worse, and every run's value.  A metric reads "worse": true, and is
named on stderr, when the change's median is worse than the parent's by
more than the metric's bound in BENCHMARK.json.  With --claimed
METRIC:WORKLOAD the claim is tested: the change must win at least nine
tenths of the pairs, and the medians must differ by more than the parent's
quartile distance.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(tree: str, dest: Path) -> None:
    """Extract the tree-ish into dest with git archive."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", tree], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % tree)


def working_tree(tmp: Path) -> str:
    """A tree object of the working tree, built in a scratch index so that
    the checkout's own index is left alone."""
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp / "index"))
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One trace-0 benchmark run from an export: its final JSON line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = quartiles(parent)
    relative = (cm - pm) / pm if pm else 0.0
    return {"parent_median": round(pm, 4),
            "parent_quartiles": [round(v, 4) for v in pq],
            "change_median": round(cm, 4),
            "change_quartiles": [round(v, 4) for v in quartiles(change)],
            "change_wins": wins, "change_losses": losses,
            "relative_change": round(relative, 4),
            "bound": bound,
            "worse": sign * relative > bound,
            "parent_spread": round((pq[1] - pq[0]) / pm, 4) if pm else 0.0}


def seed_range(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--seeds", required=True, help="LO-HI or a comma list")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--claimed", help="METRIC:WORKLOAD the change claims")
    ap.add_argument("--change", default="", help="one line on the change")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = seed_range(args.seeds)
    parent_rev = git("rev-parse", "--short", args.parent)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        export(parent_rev, sides["parent"])
        export(working_tree(tmp), sides["change"])
        for w in workloads:
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run(sides[side], w, seed, args.seconds)
                    runs[w][side].append(result)
                    values = result["metrics"]
                    print("%s seed %d %s: %s" % (w, seed, side, " ".join(
                        "%s=%.4g" % (m["name"], values[m["name"]]["value"])
                        for m in metrics)), file=sys.stderr)

    out_workloads = {}
    for w in workloads:
        entry = {"seeds": seeds, "operations_attempted_failed": {
            side: [sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)]
            for side, rs in runs[w].items()}, "metrics": {}, "runs": {}}
        for m in metrics:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                      for side, rs in runs[w].items()}
            got = compare(values["parent"], values["change"], m["better"], m["bound"])
            if got["worse"]:
                print("worse: %s on %s, median %.4g -> %.4g (%+.1f %%, bound %g %%)"
                      % (m["name"], w, got["parent_median"], got["change_median"],
                         100 * got["relative_change"], 100 * m["bound"]),
                      file=sys.stderr)
            entry["metrics"][m["name"]] = got
            entry["runs"][m["name"]] = values
        entry["incorrect_runs"] = {side: sum(not r["correct"] for r in rs)
                                   for side, rs in runs[w].items()}
        out_workloads[w] = entry

    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    bytecode = "unset" if bytecode is None else "=%r" % bytecode
    record = {
        "change": args.change,
        "method": "python3 perfbench/run.py --workload W --seed N --seconds %g "
                  "--trace 0, N = %s, parent (%s) and change exported with "
                  "git archive and run alternately, the side running first "
                  "alternating with the seed (tools/ab.py); environment "
                  "passed through, PYTHONDONTWRITEBYTECODE%s; medians and "
                  "quartiles (statistics.quantiles, n=4) over the runs per "
                  "side; change_wins counts pairs where the change reads "
                  "better; parent_spread is the parent's quartile distance "
                  "over its median"
                  % (args.seconds, args.seeds, parent_rev, bytecode),
    }
    if args.claimed:
        metric, workload = args.claimed.split(":")
        got = out_workloads[workload]["metrics"][metric]
        sign = 1 if next(m["better"] for m in metrics
                         if m["name"] == metric) == "lower" else -1
        gain = sign * (got["parent_median"] - got["change_median"])
        quartile_gap = got["parent_quartiles"][1] - got["parent_quartiles"][0]
        record["claimed"] = {
            "metric": metric, "workload": workload,
            "met": got["change_wins"] * 10 >= len(seeds) * 9 and gain > quartile_gap}
    record["workloads"] = out_workloads
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if args.claimed:
        print("claim %s on %s: %s" % (metric, workload,
              "met" if record["claimed"]["met"] else "not met"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
