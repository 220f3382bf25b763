"""Run the benchmark on sets of seeds and compare the sets' figures.

    python3 perfbench/summarize.py --workload php-rup --seeds 1-10 11-20 --seconds 40

Each seed range is one set (A, B, ...).  For every end-to-end metric and set
it prints a Markdown row: the median over the set's runs, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as a
share of the median.  For the `*_s` metrics the row adds the same for each
run's median raw CPU time (before the reference-loop scaling) and median
wall time, from the result files in perfbench/out/.  Then, per metric, it
prints the bound in BENCHMARK.json, the largest spread of any set and the
change of each later set's median from set A's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / ("result-%s-%d-trace0.json"
                                         % (workload, seed))).read_text())
    raw = {name: {"cpu": statistics.median(cols["cpu"]),
                  "wall": statistics.median(cols["wall"])}
           for name, cols in record["samples"].items() if name != "reference"}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "values": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": raw}


def cell(values, fmt):
    med, q1, q3, rel = spread(values)
    return ("%s [%s, %s] | %.3f" % (fmt % med, fmt % q1, fmt % q3, rel)), rel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, nargs="+", required=True,
                    help="one range per set, e.g. 1-10 11-20")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    labels = [chr(ord("A") + k) for k in range(len(args.seeds))]
    sets = {}
    for label, group in zip(labels, args.seeds):
        sets[label] = []
        for seed in group:
            r = one_run(args.workload, seed, args.seconds)
            sets[label].append(r)
            print("set %s seed %d: attempted %d failed %d" % (
                label, seed, r["attempted"], r["failed"]), file=sys.stderr, flush=True)

    print("| metric | set | reported: median [q1, q3] | spread "
          "| raw CPU: median [q1, q3] | spread | wall: median [q1, q3] | spread |")
    print("|---|---|---|---|---|---|---|---|")
    widest = {}
    for name in bounds:
        fmt = "%.3f" if name.endswith("_s") else "%.1f" if name.endswith("mb") else "%.0f"
        for label, runs in sets.items():
            text, rel = cell([r["values"][name] for r in runs], fmt)
            widest[name] = max(widest.get(name, 0.0), rel)
            row = "| `%s` | %s | %s |" % (name, label, text)
            if name.endswith("_s"):
                cmd = "setup" if name == "setup_s" else name[:-2]
                for col in ("cpu", "wall"):
                    row += " %s |" % cell([r["raw"][cmd][col] for r in runs], "%.3f")[0]
            else:
                row += " | | | |"
            print(row)

    print()
    print("%-26s %6s %14s  %s" % ("metric", "bound", "widest spread",
                                  "median change from set A"))
    for name, bound in bounds.items():
        base = statistics.median(r["values"][name] for r in sets["A"])
        changes = ["%s %+.4f" % (label, statistics.median(
                        r["values"][name] for r in runs) / base - 1)
                   for label, runs in sets.items() if label != "A"]
        print("%-26s %6.2f %14.3f  %s" % (name, bound, widest[name], ", ".join(changes)))
    shares = {r["failed"] / r["attempted"] for runs in sets.values() for r in runs}
    print("failed share of attempted: %s" % ", ".join("%.6f" % s for s in sorted(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
