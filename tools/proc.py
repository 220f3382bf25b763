"""Where a dratkit command's own CPU time and memory go, process and all.

    python3 tools/proc.py check lrat f.cnf p.lrat
    python3 tools/proc.py --src ../parent/src --runs 9 trim f.cnf p.drat \\
        --out-lrat p.lrat

Runs `python -m dratkit.cli ARGS` (through runpy, so the module's own
`__main__` block is the entry point) as the child of this small process,
with PYTHONPATH set to --src (default: this checkout's src), and prints
for that child:

  cpu_s         its total CPU time, user and system (os.wait4)
  gc_s          the CPU time spent inside cyclic collections while it ran,
                as gc.callbacks see them, and how many ran per generation
  after_main_s  the CPU time left after the command returned: the child's
                total less the process time an atexit handler stamps, so
                the interpreter's shutdown and its final collection
  peak_rss_mb   its peak RSS (ru_maxrss from os.wait4)

ru_maxrss is at least the RSS of the process that forked the child, so the
launcher's own peak is printed too: while it stays below the child's, the
child's figure is its own.  With --runs N each figure is the median of N
runs.  The command's stdout is discarded and its stderr passes through;
the exit code of every run is printed.  A child that ends before its
atexit handlers run (a signal, os._exit) writes no stamp, and the tool
stops with an error rather than report that run.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: the stamp file, then the command's arguments
CHILD = """
import atexit, gc, json, runpy, sys, time
stamp_path = sys.argv[1]
clock = time.process_time
spent = [0.0, 0.0]  # CPU inside collections; the start of the current one
counts = [0, 0, 0]

def on_gc(phase, info):
    if phase == "start":
        spent[1] = clock()
    else:
        spent[0] += clock() - spent[1]
        counts[info["generation"]] += 1

def stamp():
    at_exit = clock()
    with open(stamp_path, "w") as fh:
        json.dump({"at_exit_s": at_exit, "gc_s": spent[0],
                   "collections": counts}, fh)

gc.callbacks.append(on_gc)
atexit.register(stamp)
sys.argv = ["dratkit"] + sys.argv[2:]
runpy.run_module("dratkit.cli", run_name="__main__", alter_sys=True)
"""


def measure(src: str, args: list, stamp: str) -> dict:
    """One child run of the command: its figures and exit code."""
    env = dict(os.environ, PYTHONPATH=src)
    # a stamp left by an earlier run must not stand in for this one's
    Path(stamp).unlink(missing_ok=True)
    p = subprocess.Popen([sys.executable, "-c", CHILD, stamp, *args], env=env,
                         stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(p.pid, 0)
    # wait4 reaped the child, so Popen must be told its status
    p.returncode = os.waitstatus_to_exitcode(status)
    if not os.path.exists(stamp):
        raise RuntimeError("the child (exit %d) ended before its atexit "
                           "handlers ran, so its run is unmeasured"
                           % p.returncode)
    with open(stamp) as fh:
        inside = json.load(fh)
    cpu = ru.ru_utime + ru.ru_stime
    return {"exit": p.returncode, "cpu_s": cpu, "gc_s": inside["gc_s"],
            "collections": inside["collections"],
            "after_main_s": cpu - inside["at_exit_s"],
            "peak_rss_mb": ru.ru_maxrss / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(SRC),
                    help="the src directory whose dratkit runs")
    ap.add_argument("--runs", type=int, default=1, help="runs; medians printed")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the dratkit command and its arguments")
    args = ap.parse_args(argv)
    if not args.command:
        ap.error("no dratkit command given")

    with tempfile.TemporaryDirectory(prefix="proc-") as tmp:
        stamp = os.path.join(tmp, "stamp.json")
        runs = [measure(os.path.abspath(args.src), args.command, stamp)
                for _ in range(args.runs)]
    med = {k: statistics.median(r[k] for r in runs)
           for k in ("cpu_s", "gc_s", "after_main_s", "peak_rss_mb")}
    collections = [statistics.median(r["collections"][g] for r in runs)
                   for g in range(3)]
    print("runs %d, exit %s" % (len(runs), " ".join(str(r["exit"]) for r in runs)))
    print("cpu_s %.4f" % med["cpu_s"])
    print("gc_s %.4f (collections per generation %s)"
          % (med["gc_s"], "/".join("%g" % c for c in collections)))
    print("after_main_s %.4f" % med["after_main_s"])
    print("peak_rss_mb %.1f (launcher %.1f)" % (
        med["peak_rss_mb"],
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    return 0


if __name__ == "__main__":
    sys.exit(main())
