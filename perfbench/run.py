#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload uniform|powerlaw|testbed|check44k \
        --seed N --seconds S --trace 0|1 [--jobs J]

Run from the root of a source checkout.  Builds perfbench/main.exe with
dune, then starts one fresh main.exe process per workload run, back to
back, until the next run would end after S seconds (at least one run).
A fresh process per run keeps the route cache cold and the peak-RSS
reading free of earlier runs.  Run i draws its inputs from seed
N + (i mod 4), so the medians cover up to four inputs and repeated inputs
cross-check each other.

--trace 0 reports the end-to-end metrics (medians over the runs):
wall_s, setup_s and peak_rss_mb.  --trace 1 alternates an untraced and a
traced run and reports the per-layer metrics of the traced runs, plus
trace.overhead_s and fail_ratio, and prints the per-layer attribution
table.

Every run checks its own outputs (main.exe fails an operation that
raises, breaks an invariant or, for the default seed, does not match the
recorded fingerprint); run.py also requires the runs of one invocation
that share a seed to produce the same fingerprints.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Build output,
spans and a record of every run go to .perfbench_out/ in the checkout.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("uniform", "powerlaw", "testbed", "check44k")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = ".perfbench_out"
RUN_TIMEOUT_S = 170
# Inputs per invocation: run i uses seed N + (i mod SEEDS_PER_RUN).  One
# input per invocation would make the medians follow the seed: Fig. 6's
# run time, say, moves by ~20% with whether the top-ranked content
# provider is in the seed's 50% deployment.
SEEDS_PER_RUN = 4
BUILD_TIMEOUT_S = 850

# Per-layer metrics reported with --trace 1, in table order; main.exe
# emits all but the last two.
LAYER_METRICS = [
    "routing.self_s", "routing.dests", "routing.us_per_dest", "routing.alloc_mw",
    "flowsim.self_s", "flowsim.bgp.self_s", "flowsim.miro.self_s", "flowsim.mifo.self_s",
    "flowsim.epochs", "flowsim.solves", "flowsim.skipped_epochs", "flowsim.epochs_per_s",
    "flowsim.path_switches", "flowsim.alloc_mw",
    "pathcount.self_s", "pathcount.pairs", "figure.self_s",
    "packetsim.self_s", "packetsim.events", "packetsim.events_per_s", "packetsim.delivered",
    "packetsim.deflected", "packetsim.encapsulated", "packetsim.dropped",
    "daemon.alt_changed", "daemon.ramp_buckets", "packetsim.alloc_mw",
    "netbuild.self_s", "netbuild.fib_entries", "netbuild.alloc_mw",
    "verifier.props.self_s", "verifier.props.states", "verifier.props.states_per_s",
    "verifier.props.failed_links", "verifier.replay.self_s",
    "verifier.net.self_s", "verifier.net.states", "verifier.net.fib_entries",
    "topology.self_s", "topology.ases", "topology.links", "traffic.self_s", "traffic.flows",
    "process.cpu_s", "process.gc_major", "uncovered_s", "span_coverage",
    "trace.overhead_s", "fail_ratio",
]

# Suffix -> unit, most specific first.
UNITS = [("_per_s", "1/s"), ("_per_dest", "us"), ("_s", "s"), ("_mw", "Mwords"),
         ("coverage", "ratio"), ("fail_ratio", "ratio")]

# Measured-part layers of the attribution table: (layer, self-time
# metric, counts shown beside it).
TABLE = [
    ("routing", "routing.self_s", ["routing.dests", "routing.us_per_dest"]),
    ("pathcount", "pathcount.self_s", ["pathcount.pairs"]),
    ("figure", "figure.self_s", []),
    ("flowsim", "flowsim.self_s", ["flowsim.epochs", "flowsim.solves", "flowsim.path_switches"]),
    ("packetsim", "packetsim.self_s", ["packetsim.events", "packetsim.delivered",
                                       "packetsim.deflected", "daemon.ramp_buckets"]),
    ("netbuild", "netbuild.self_s", ["netbuild.fib_entries"]),
    ("verifier", None, ["verifier.props.states", "verifier.net.states"]),
]


def unit_of(name):
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def positive_int(text, minimum):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer, got %r" % text)
    if value < minimum:
        raise argparse.ArgumentTypeError("must be >= %d, got %d" % (minimum, value))
    return value


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=lambda s: positive_int(s, 0))
    p.add_argument("--seconds", required=True, type=lambda s: positive_int(s, 1))
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--jobs", default=2, type=lambda s: positive_int(s, 1),
                   help="domain-pool size pinned in every run (default 2)")
    return p.parse_args()


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    # The library reads MIFO_* variables (e.g. MIFO_JOBS); a run must not
    # pick them up from the caller.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MIFO_") and k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the root of a source checkout (dune-project, lib/ and "
             "perfbench/dune must be present in %s)" % os.getcwd())
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed: %s exited %d" % (" ".join(cmd), r.returncode))


def run_once(args, seed, traced, index):
    spans = os.path.join(OUT, "%s-seed%d-run%d.spans.jsonl" % (args.workload, args.seed, index))
    cmd = [EXE, "--workload", args.workload, "--seed", str(seed),
           "--jobs", str(args.jobs), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", spans]
    start = time.monotonic()
    try:
        r = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if r.returncode == 0 and lines else None
        problem = None if result else "exit %d: %s" % (r.returncode, r.stderr.strip()[-500:])
    except (OSError, subprocess.TimeoutExpired, ValueError) as e:
        result, problem = None, str(e)
    return {"seed": seed, "traced": traced, "seconds": time.monotonic() - start,
            "result": result, "problem": problem}


def run_loop(args):
    """Runs (or untraced/traced pairs) back to back until the next one
    would end past --seconds."""
    runs, start = [], time.monotonic()
    for i in itertools.count():
        seed = args.seed + i % SEEDS_PER_RUN
        t0 = time.monotonic()
        runs.append(run_once(args, seed, False, len(runs)))
        if args.trace == "1":
            runs.append(run_once(args, seed, True, len(runs)))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > args.seconds:
            return runs


def judge(args, runs):
    """(correct, attempted, failed, notes) over every run."""
    attempted = failed = 0
    notes, reference = [], {}
    for i, run in enumerate(runs):
        res = run["result"]
        if res is None:
            attempted += 1
            failed += 1
            notes.append("run %d: %s" % (i, run["problem"]))
            continue
        attempted += int(res["attempted"])
        failed += int(res["failed"])
        for label, err in res["errors"].items():
            notes.append("run %d: %s: %s" % (i, label, err))
        if res["jobs"] != args.jobs:
            notes.append("run %d: ran %d jobs, asked for %d" % (i, res["jobs"], args.jobs))
        fps = reference.setdefault(run["seed"], res["fingerprints"])
        differ = [k for k, v in res["fingerprints"].items() if fps.get(k, v) != v]
        failed += len(differ)
        notes += ["run %d: fingerprint of %s differs from an earlier run with seed %d"
                  % (i, k, run["seed"]) for k in differ]
    correct = failed == 0 and not notes
    return correct, attempted, failed, notes


def median_of(runs, key, traced):
    vals = [r["result"][key] for r in runs if r["result"] and r["traced"] == traced]
    return statistics.median(vals) if vals else None


def attribution_table(args, layers):
    wall = layers["traced_wall_s"]
    out = ["per-layer attribution, %s (traced wall_s %.3f s, medians over traced runs)"
           % (args.workload, wall),
           "  %-10s %9s %7s  %s" % ("layer", "self_s", "share", "counts")]
    for layer, self_key, counts in TABLE:
        self_s = (layers[self_key] if self_key else
                  layers["verifier.props.self_s"] + layers["verifier.net.self_s"]
                  + layers["verifier.replay.self_s"])
        if self_s == 0 and all(layers[c] == 0 for c in counts):
            out.append("  %-10s %9s %7s  (did not run)" % (layer, "-", "-"))
            continue
        out.append("  %-10s %9.3f %6.1f%%  %s" % (
            layer, self_s, 100 * self_s / wall if wall else 0,
            " ".join("%s=%g" % (c, layers[c]) for c in counts)))
    out.append("  %-10s %9.3f %6.1f%%" % ("(no span)", layers["uncovered_s"],
                                            100 * layers["uncovered_s"] / wall if wall else 0))
    out.append("  setup: topology %.3f s (%d ASes, %d links), traffic %.3f s (%d flows)" % (
        layers["topology.self_s"], layers["topology.ases"], layers["topology.links"],
        layers["traffic.self_s"], layers["traffic.flows"]))
    out.append("  process: cpu %.3f s over wall %.3f s (%.2f of %d jobs busy), %d major GCs, "
               "trace overhead %.3f s" % (
                   layers["process.cpu_s"], wall, layers["process.cpu_s"] / wall if wall else 0,
                   args.jobs, layers["process.gc_major"], layers["trace.overhead_s"]))
    return "\n".join(out)


def main():
    args = parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    runs = run_loop(args)
    correct, attempted, failed, notes = judge(args, runs)
    for note in notes:
        print("perfbench: " + note, file=sys.stderr)
    ok = [r["result"] for r in runs if r["result"]]
    seed_used = ok[0]["seed_used"] if ok else True
    print("perfbench: %s, %d run(s) on seeds %s%s, jobs %s, fingerprints recorded for seeds %s"
          % (args.workload, len(runs), sorted({r["seed"] for r in runs}),
             "" if seed_used else " (unused by this workload)",
             sorted({r["jobs"] for r in ok}),
             sorted({r["seed"] for r in runs
                     if r["result"] and r["result"]["fingerprints_recorded"]})))
    metrics = {}
    if args.trace == "0":
        for key, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            value = median_of(runs, key, False)
            if value is not None:
                metrics[key] = {"value": value, "unit": unit}
    else:
        traced = [r["result"]["layers"] for r in runs if r["result"] and r["traced"]]
        if traced:
            layers = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
            untraced_wall = median_of(runs, "wall_s", False)
            layers["traced_wall_s"] = median_of(runs, "wall_s", True)
            layers["trace.overhead_s"] = layers["traced_wall_s"] - (untraced_wall or 0.0)
            layers["fail_ratio"] = failed / attempted
            print(attribution_table(args, layers))
            metrics = {k: {"value": layers[k], "unit": unit_of(k)} for k in LAYER_METRICS}
    with open(os.path.join(OUT, "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump({"args": vars(args), "runs": runs, "notes": notes}, f, indent=1)
    complete = len(metrics) == (3 if args.trace == "0" else len(LAYER_METRICS))
    print(json.dumps({"correct": correct and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
