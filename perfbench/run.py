"""Benchmark of dratkit's proof pipeline: production, checking, translation.

    python3 perfbench/run.py --workload php-rup --seed 1 --seconds 40 --trace 0

Set-up writes the workload's CNF and DRAT proof (inputs.py, run SETUPS times
in child processes).  Then rounds of the paper's pipeline run through the
command line, each command in its own process, until --seconds have passed
and at least MIN_ROUNDS rounds ran:

    check drat, check drat --mode operational, trim, to-er,
    check lrat (on trim's LRAT), check er (on to-er's ER)

Every command is an operation; it fails when it does not verify or when its
output fails a check made apart from the program (checks.py).

Each `*_s` metric is the median over the run's repetitions of one child's
CPU time (user + system, from its rusage), scaled to the host's usual
speed.  CPU time leaves out the time the host takes the vCPU away, but not
the phases, seconds long, in which the host runs the vCPU up to half again
slower.  So every child runs between two runs of a reference (a fresh
interpreter running a fixed loop), all pinned to one CPU, and its CPU time
is multiplied by REFERENCE_S over the mean CPU time of those two.

With --trace 1 the run instead makes one round of commands (for their peak
RSS), times the import of dratkit.cli, and calls the same layers in-process
under spans.py, reporting the per-layer metrics (medians over as many
traced passes as --seconds allows; in-process times are not scaled).

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Full samples go to perfbench/out/, spans of the first
traced pass to perfbench/out/trace-<workload>-<seed>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = HERE / "out"

SETUPS = 11
MIN_ROUNDS = 2
IMPORT_SAMPLES = 5
# The reference: a fresh interpreter running a fixed loop.  It takes about
# REFERENCE_S CPU seconds on the machine the README's figures come from, at
# that machine's usual speed.
REFERENCE_CODE = "d = {}\nfor i in range(100000):\n    d[i & 1023] = d.get((i * 7) & 1023, 0) + 1\n"
REFERENCE_S = 0.1

# (metric name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("check_drat_s", "s"),
    ("check_drat_operational_s", "s"),
    ("trim_s", "s"),
    ("to_er_s", "s"),
    ("check_lrat_s", "s"),
    ("check_er_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_peak_rss_mb", "MB"),
    ("lrat_bytes", "bytes"),
    ("er_bytes", "bytes"),
)

COMMANDS = (
    ("check_drat", ["check", "drat", "formula.cnf", "proof.drat", "--counters"]),
    ("check_drat_operational", ["check", "drat", "formula.cnf", "proof.drat",
                                "--mode", "operational", "--counters"]),
    ("trim", ["trim", "formula.cnf", "proof.drat", "--out-lrat", "proof.lrat",
              "--out-drat", "trimmed.drat", "--out-core", "core.cnf"]),
    ("to_er", ["to-er", "formula.cnf", "proof.drat", "--out", "proof.er"]),
    ("check_lrat", ["check", "lrat", "formula.cnf", "proof.lrat", "--counters"]),
    ("check_er", ["check", "er", "formula.cnf", "proof.er", "--counters"]),
)
# documents each command writes, by key
OUTPUTS = {"trim": {"lrat": "proof.lrat", "trimmed": "trimmed.drat", "core": "core.cnf"},
           "to_er": {"er": "proof.er"}}
CHECK_COMMANDS = ("check_drat", "check_drat_operational", "check_lrat", "check_er")

PER_LAYER_NAMES = (
    "cli.import_s", *("cli.%s.rss_mb" % name for name, _ in COMMANDS),
    "formats.parse_dimacs_s", "formats.parse_drat_s", "formats.parse_lrat_s",
    "formats.parse_er_s", "formats.write_lrat_s", "formats.write_er_s",
    "formats.proof_steps", "formats.drat_bytes",
    "propagate.rup_s", "propagate.rup_calls", "propagate.propagate_self_s",
    "propagate.rollback_s", "propagate.rollback_calls", "propagate.rat_s",
    "propagate.rat_calls", "propagate.consume_chain_s",
    "checkers.check_drat_s", "checkers.check_lrat_s", "checkers.check_er_s",
    "checkers.toplevel_closure_s", "checkers.toplevel_closure_calls",
    "checkers.visited_clauses", "checkers.visited_clauses_lrat",
    "checkers.rat_steps", "checkers.skipped_deletions",
    "pipeline.backward_check_s", "pipeline.emit_trimmed_s",
    "pipeline.emit_lrat_s", "pipeline.to_er_self_s", "pipeline.to_er_check_s",
    "pipeline.adds", "pipeline.core_adds", "pipeline.core_originals",
    "pipeline.lrat_hints", "pipeline.er_steps", "pipeline.er_extensions",
    "testkit.cdcl_solve_s", "testkit.conflicts",
    "trace.untraced_s", "trace.overhead_s",
)
PER_LAYER = tuple(
    (name, "s" if name.endswith("_s") else "MB" if name.endswith("_mb")
     else "bytes" if name.endswith("_bytes") else "count")
    for name in PER_LAYER_NAMES)


class Child:
    """One finished child process: its CPU, wall time, peak RSS and output."""

    def __init__(self, argv, cwd, env):
        start = time.perf_counter()
        with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                 stderr=err)
            out = p.stdout.read()
            p.stdout.close()
            _, status, ru = os.wait4(p.pid, 0)
        # wait4 reaped the child, so Popen must be told its status
        self.code = p.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - start
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024
        self.stdout = out.decode("ascii", "replace")
        with open(os.path.join(cwd, "stderr.txt"), "rb") as err:
            self.stderr = err.read().decode("ascii", "replace").strip()


class Bench:
    """One run: its children's samples, operation counts and outputs."""

    def __init__(self, workload, seed, seconds, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.samples = {name: [] for name, _ in COMMANDS}
        self.setup_samples = []
        self.reference = []     # CPU seconds of each reference run
        self.attempted = self.failed = 0
        self.problems = []      # harness-level faults: make `correct` false
        self.first = {}         # output bytes of the first round
        self.docs = {}

    def child(self, argv):
        """Run argv between two reference runs; its scale is REFERENCE_S over
        their mean CPU time."""
        if not self.reference:
            self.reference.append(self.reference_cpu())
        c = Child(argv, str(self.work), self.env)
        self.reference.append(self.reference_cpu())
        c.scale = REFERENCE_S / statistics.mean(self.reference[-2:])
        return c

    def reference_cpu(self):
        return Child([sys.executable, "-c", REFERENCE_CODE], str(self.work), self.env).cpu

    def cli(self, args):
        return self.child([sys.executable, "-m", "dratkit.cli"] + args)

    def setup(self, times):
        first = None
        for k in range(times):
            d = self.work / ("setup%d" % k)
            d.mkdir()
            c = self.child([sys.executable, str(HERE / "inputs.py"), "--workload",
                            self.workload, "--seed", str(self.seed), "--out", str(d)])
            if c.code != 0:
                raise RuntimeError("set-up failed: %s" % c.stderr)
            self.setup_samples.append(c)
            files = [(d / n).read_bytes() for n in ("formula.cnf", "proof.drat")]
            if first is None:
                first = files
                for n, data in zip(("formula.cnf", "proof.drat"), files):
                    (self.work / n).write_bytes(data)
            elif files != first:
                self.problems.append("set-up %d wrote other inputs than set-up 0" % k)
            shutil.rmtree(d)
        self.cnf_bytes, self.drat_bytes = first

    def round(self, oracles):
        """One pass of every command, each checked; counts operations."""
        import checks as ck
        for name, args in COMMANDS:
            for path in OUTPUTS.get(name, {}).values():
                (self.work / path).unlink(missing_ok=True)
            c = self.cli(args)
            self.samples[name].append(c)
            self.attempted += 1
            for key, path in OUTPUTS.get(name, {}).items():
                f = self.work / path
                self.docs[key] = f.read_bytes() if f.exists() else b""
                self.first.setdefault(key, self.docs[key])
            fault = ck.verified(c.code, c.stdout) or self.output_fault(name, c, oracles)
            if fault is not None:
                self.failed += 1
                print("failed: %s: %s%s" % (name, fault,
                      (" (%s)" % c.stderr.splitlines()[-1]) if c.stderr else ""),
                      file=sys.stderr)

    def output_fault(self, name, c, oracles):
        import checks as ck
        if name.startswith("check_drat"):
            return ck.rat_steps(c.stdout, self.workload == "cook-rat")
        if name == "trim":
            faults = [ck.core_in_input(self.docs["core"], oracles.cnf)]
            faults += [ck.same_bytes(self.docs[k], self.first[k], "trim's " + k)
                       for k in OUTPUTS["trim"]]
            return next(filter(None, faults), None)
        if name == "to_er":
            return ck.same_bytes(self.docs["er"], self.first["er"], "to-er's ER")
        if name == "check_lrat":
            return oracles.lrat(self.docs["lrat"])
        return oracles.er(self.docs["er"])

    def end_to_end(self):
        def seconds(cs):
            return statistics.median(c.cpu * c.scale for c in cs)
        m = {"setup_s": seconds(self.setup_samples)}
        for name, _ in COMMANDS:
            m[name + "_s"] = seconds(self.samples[name])
        m["peak_rss_mb"] = max(c.rss_mb for s in self.samples.values() for c in s)
        m["check_peak_rss_mb"] = max(c.rss_mb for n in CHECK_COMMANDS
                                     for c in self.samples[n])
        m["lrat_bytes"] = len(self.docs["lrat"])
        m["er_bytes"] = len(self.docs["er"])
        return m

    def record(self):
        def cols(cs):
            return {"cpu": [c.cpu for c in cs], "scale": [c.scale for c in cs],
                    "wall": [c.wall for c in cs], "rss_mb": [c.rss_mb for c in cs]}
        out = {name: cols(cs) for name, cs in self.samples.items()}
        out["setup"] = cols(self.setup_samples)
        out["reference"] = {"cpu": self.reference}
        return out


def import_seconds(bench):
    code = ("import time; t = time.process_time(); import dratkit.cli; "
            "print(time.process_time() - t)")
    vals = []
    for _ in range(IMPORT_SAMPLES):
        c = Child([sys.executable, "-c", code], str(bench.work), bench.env)
        if c.code != 0:
            raise RuntimeError("importing dratkit.cli failed: %s" % c.stderr)
        vals.append(float(c.stdout))
    return statistics.median(vals)


def traced_pass(bench, tracer, layers=True):
    """The CLI's steps as library calls, each under a span, and with layers
    also every layer entry point.

    Returns the per-layer metrics and the CPU seconds of the six commands.
    """
    import inputs
    from dratkit import checkers, formats, pipeline
    from dratkit.checkers import OPERATIONAL, SPECIFIED, CheckMode
    from spans import Profile, command_spans

    cnf, drat = bench.cnf_bytes, bench.drat_bytes
    if layers:
        tracer.install(extra_modules=[inputs])
    try:
        with tracer.span("setup"):
            _, _, conflicts = inputs.make_inputs(bench.workload, bench.seed)
        reports = {}
        for name, flavor in (("check_drat", SPECIFIED),
                             ("check_drat_operational", OPERATIONAL)):
            with tracer.span(name):
                f, _, _ = formats.parse_dimacs(cnf)
                steps = formats.parse_drat(drat)
                reports[name] = checkers.check_drat(f, steps, CheckMode(flavor))
        with tracer.span("trim"):
            f, _, _ = formats.parse_dimacs(cnf)
            cp = pipeline.backward_check(f, formats.parse_drat(drat), CheckMode(SPECIFIED))
            trimmed, core = pipeline.emit_trimmed(cp)
            lrat = pipeline.emit_lrat(cp)
            docs = {"lrat": formats.write_lrat(lrat),
                    "trimmed": formats.write_drat_text(trimmed),
                    "core": formats.write_dimacs(core)}
        with tracer.span("to_er"):
            f, _, _ = formats.parse_dimacs(cnf)
            cp_er = pipeline.backward_check(f, formats.parse_drat(drat),
                                            CheckMode(SPECIFIED))
            er = pipeline.to_er(f, cp_er)
            docs["er"] = formats.write_er(er)
        with tracer.span("check_lrat"):
            f, _, _ = formats.parse_dimacs(cnf)
            reports["check_lrat"] = checkers.check_lrat(f, formats.parse_lrat(docs["lrat"]))
        with tracer.span("check_er"):
            f, _, _ = formats.parse_dimacs(cnf)
            reports["check_er"] = checkers.check_er(f, formats.parse_er(docs["er"]))
    finally:
        tracer.uninstall()

    # the in-process pass must reproduce the command line's results
    for key, data in docs.items():
        if data != bench.docs[key]:
            bench.problems.append("in-process %s differs from the CLI's" % key)
    for name, rep in reports.items():
        cli_ok = bench.samples[name][0].stdout.strip().endswith("s VERIFIED")
        if rep.verified != cli_ok:
            bench.problems.append("in-process %s verdict differs from the CLI's" % name)

    spans = tracer.spans
    prof = {name: Profile(spans, i) for name, i in command_spans(spans).items()}
    drat_p, lrat_p = prof["check_drat"], prof["check_lrat"]
    m = {
        "formats.parse_dimacs_s": drat_p.seconds("formats.parse_dimacs"),
        "formats.parse_drat_s": drat_p.seconds("formats.parse_drat"),
        "formats.parse_lrat_s": lrat_p.seconds("formats.parse_lrat"),
        "formats.parse_er_s": prof["check_er"].seconds("formats.parse_er"),
        "formats.write_lrat_s": prof["trim"].seconds("formats.write_lrat"),
        "formats.write_er_s": prof["to_er"].seconds("formats.write_er"),
        "formats.proof_steps": len(steps),
        "formats.drat_bytes": len(drat),
        "propagate.rup_s": drat_p.seconds("Engine.rup"),
        "propagate.rup_calls": drat_p.calls["Engine.rup"],
        "propagate.propagate_self_s": drat_p.seconds("Engine.propagate", "self"),
        "propagate.rollback_s": drat_p.seconds("Engine.rollback"),
        "propagate.rollback_calls": drat_p.calls["Engine.rollback"],
        "propagate.rat_s": drat_p.seconds("Engine.rat"),
        "propagate.rat_calls": drat_p.calls["Engine.rat"],
        "propagate.consume_chain_s": lrat_p.seconds("Engine.consume_chain"),
        "checkers.check_drat_s": drat_p.seconds("checkers.check_drat"),
        "checkers.check_lrat_s": lrat_p.seconds("checkers.check_lrat"),
        "checkers.check_er_s": prof["check_er"].seconds("checkers.check_er"),
        "checkers.toplevel_closure_s":
            prof["check_drat_operational"].seconds("checkers.toplevel_closure"),
        "checkers.toplevel_closure_calls":
            prof["check_drat_operational"].calls["checkers.toplevel_closure"],
        "checkers.visited_clauses": reports["check_drat"].visited_clauses_total,
        "checkers.visited_clauses_lrat": reports["check_lrat"].visited_clauses_total,
        "checkers.rat_steps": reports["check_drat"].rat_steps,
        "checkers.skipped_deletions": reports["check_drat_operational"].skipped_deletions,
        "pipeline.backward_check_s": prof["trim"].seconds("pipeline.backward_check"),
        "pipeline.emit_trimmed_s": prof["trim"].under_s("trim", "pipeline.emit_trimmed"),
        "pipeline.emit_lrat_s": prof["trim"].seconds("pipeline.emit_lrat"),
        "pipeline.to_er_self_s": prof["to_er"].seconds("pipeline.to_er", "self"),
        "pipeline.to_er_check_s": prof["to_er"].under_s("pipeline.to_er",
                                                        "checkers.check_er"),
        "pipeline.adds": sum(r.kind == "add" for r in cp.records),
        "pipeline.core_adds": sum(r.kind == "add" and r.core for r in cp.records),
        "pipeline.core_originals": len(cp.core_formula_ids),
        "pipeline.lrat_hints": sum(
            len(s.hints.rup_chain) + sum(1 + len(ch) for _, ch in s.hints.rat_groups)
            for _, s in lrat if s.kind == "add"),
        "pipeline.er_steps": len(er),
        "pipeline.er_extensions": sum(type(s).__name__ == "Extend" for _, s in er),
        "testkit.cdcl_solve_s": prof["setup"].seconds("testkit.cdcl_solve"),
        "testkit.conflicts": conflicts,
    }
    traced = sum(s[2] - s[1] for s in spans if s[3] == -1 and s[0] != "setup") / 1e9
    return m, traced


def run_traced(bench, oracles):
    """One round of commands, the import time, then in-process passes: each
    untraced one followed by a traced one."""
    from spans import Tracer

    bench.round(oracles)
    m = {"cli.import_s": import_seconds(bench)}
    for name, _ in COMMANDS:
        m["cli.%s.rss_mb" % name] = bench.samples[name][0].rss_mb
    passes, plain = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < bench.seconds:
        plain.append(traced_pass(bench, Tracer(), layers=False)[1])
        tracer = Tracer()
        passes.append(traced_pass(bench, tracer))
        if len(passes) == 1:
            path = OUT / ("trace-%s-%d.jsonl.gz" % (bench.workload, bench.seed))
            with gzip.open(path, "wt") as fh:
                fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent"]) + "\n")
                for i, span in enumerate(tracer.spans):
                    fh.write(json.dumps([i, *span]) + "\n")
    for key, value in passes[0][0].items():
        if key.endswith("_s"):
            value = statistics.median(p[0][key] for p in passes)
        m[key] = value
    m["trace.untraced_s"] = statistics.median(plain)
    m["trace.overhead_s"] = statistics.median(p[1] for p in passes) - m["trace.untraced_s"]
    return m, PER_LAYER, len(passes)


def run_rounds(bench, oracles):
    """Rounds of commands until the time is up; the end-to-end metrics."""
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < bench.seconds:
        bench.round(oracles)
        rounds += 1
    return bench.end_to_end(), END_TO_END, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dratkit pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (SRC / "dratkit" / "cli.py", TESTS / "_oracles.py"):
        if not need.is_file():
            print("error: %s not found; run from a dratkit checkout" % need,
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import checks
    from inputs import WORKLOADS
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    # one CPU for this process and its children, so that the reference runs
    # meet the same host contention as the commands they scale
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        bench.setup(1 if args.trace else SETUPS)
        oracles = checks.Oracles(checks.read_dimacs(bench.cnf_bytes))
        run = run_traced if args.trace else run_rounds
        values, table, repeats = run(bench, oracles)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "repeats": repeats, "samples": bench.record(), "metrics": metrics,
              "problems": bench.problems}
    name = "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1))
    for name, unit in table:
        print("%-34s %14.4f %s" % (name, values[name], unit))
    for problem in bench.problems:
        print("problem: %s" % problem, file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
