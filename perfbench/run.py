#!/usr/bin/env python3
"""Wire benchmark for the PathLog query server.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build the CLI and the benchmark from source (dune), then run one
      workload (read_paths, goal_directed or write_mix). The last stdout
      line is the JSON summary.

  python3 perfbench/run.py spread --workload W [--runs K] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out FILE]
      K runs, on seeds 1..K, or all on seed N (run-to-run noise alone);
      prints, per metric, the median, the quartiles, (q3-q1)/median and
      (max-min)/median, and saves the runs with their meta to FILE.

  python3 perfbench/run.py compare A.json B.json
      Compare two saved spreads metric by metric against the bounds in
      BENCHMARK.json. Refuses results whose run meta differs.

Everything the benchmark builds or writes stays inside the checkout:
_build/ for dune, perfbench/_work/ for scratch files.

Each run is pinned to one CPU (the last one this process may use), and
the server it spawns inherits the pinning: a request then passes from
the client to the server's threads and back without waking an idle
CPU, whose wake-up latency on a virtual machine varies with the host's
load far more than the work itself does.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BENCH_DIR = os.path.relpath(HERE, ROOT)
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("read_paths", "goal_directed", "write_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    e = dict(os.environ)
    # no shared dune cache and no temp files outside the checkout
    e.update(DUNE_CACHE="disabled", TMPDIR=tmp)
    return e


def build():
    for need in ("dune-project", os.path.join("bin", "pathlog_cli.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not at the root of a pathlog checkout (missing %s)" % need)
    if shutil.which("dune") is None:
        fail("dune is not installed")
    targets = ["./bin/pathlog_cli.exe", "./%s/bench.exe" % BENCH_DIR]
    r = subprocess.run(["dune", "build", "--root", "."] + targets,
                       cwd=ROOT, env=env(), stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 1)
    return (os.path.join(ROOT, "_build", "default", "bin", "pathlog_cli.exe"),
            os.path.join(ROOT, "_build", "default", BENCH_DIR, "bench.exe"))


def pin():
    """Pin this process, and so every process it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(exes, workload, seed, seconds, trace):
    """One run; returns (stdout text, exit code)."""
    cli, bench = exes
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cli", cli, "--work", work]
    # own process group, so a timeout takes the servers down too
    p = subprocess.Popen(cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    return out, p.returncode


def parse_args(argv, spec):
    args = dict(spec)
    i = 0
    while i < len(argv):
        key = argv[i].lstrip("-").replace("-", "_")
        if not argv[i].startswith("--") or key not in spec or i + 1 >= len(argv):
            fail("bad argument %s" % argv[i])
        args[key] = type(spec[key])(argv[i + 1]) if spec[key] is not None else argv[i + 1]
        i += 2
    return args


def main_run(argv):
    a = parse_args(argv, {"workload": "", "seed": 1, "seconds": 10, "trace": 0})
    if a["workload"] not in WORKLOADS:
        fail("unknown workload %r" % a["workload"])
    if a["trace"] not in (0, 1) or a["seconds"] < 1:
        fail("bad --trace or --seconds")
    exes = build()
    pin()
    out, code = run_once(exes, a["workload"], a["seed"], a["seconds"], a["trace"])
    sys.stdout.write(out)
    sys.exit(code)


def result_of(out):
    """The run meta, the JSON summary, and every metric the run printed
    (the summary's metrics at full precision, plus the workload-specific
    ones that only appear as `metric NAME VALUE UNIT (n=N)` lines)."""
    meta, summary, printed = None, None, {}
    for line in out.splitlines():
        if line.startswith("meta "):
            meta = json.loads(line[5:])
        elif line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = {"value": float(value), "unit": unit}
        elif line.startswith("{"):
            summary = json.loads(line)
    if meta is None or summary is None:
        fail("run printed no result", 1)
    printed.update(summary["metrics"])
    return meta, summary, printed


def spread_table(runs):
    names = list(runs[0]["metrics"])
    rows = []
    for n in names:
        vals = [r["metrics"][n]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        rel = (lambda x: x / med) if med else (lambda x: 0.0)
        rows.append((n, runs[0]["metrics"][n]["unit"], med, q1, q3,
                     rel(q3 - q1), rel(max(vals) - min(vals))))
    return rows


def print_table(rows):
    print("%-36s %-6s %12s %12s %12s %8s %8s" %
          ("metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med"))
    for n, u, med, q1, q3, iqr, rng in rows:
        print("%-36s %-6s %12.6g %12.6g %12.6g %8.4f %8.4f" %
              (n, u, med, q1, q3, iqr, rng))


def run_meta(meta):
    """The meta two comparable results must share (the seed varies)."""
    return {k: v for k, v in meta.items() if k not in ("seed", "mix")}


def main_spread(argv):
    a = parse_args(argv, {"workload": "", "runs": 10, "seed": 0, "seconds": 10,
                          "trace": 0, "out": None})
    if a["workload"] not in WORKLOADS:
        fail("unknown workload %r" % a["workload"])
    exes = build()
    pin()
    runs, meta = [], None
    for k in range(a["runs"]):
        seed = a["seed"] or k + 1
        out, code = run_once(exes, a["workload"], seed, a["seconds"], a["trace"])
        if code != 0:
            fail("run with seed %d exited %d" % (seed, code), 1)
        m, summary, printed = result_of(out)
        if meta is not None and run_meta(m) != run_meta(meta):
            fail("run meta changed between runs: %r vs %r" % (m, meta), 1)
        meta = m
        if not summary["correct"]:
            fail("seed %d: incorrect replies (%d of %d failed)" %
                 (seed, summary["failed"], summary["attempted"]), 1)
        runs.append(dict(seed=seed, metrics=printed))
        print("seed %d: %s" % (seed, json.dumps(
            {n: v["value"] for n, v in summary["metrics"].items()})), flush=True)
    print("meta " + json.dumps(run_meta(meta), sort_keys=True))
    print_table(spread_table(runs))
    if a["out"]:
        with open(a["out"], "w") as f:
            json.dump(dict(meta=run_meta(meta), runs=runs), f, indent=1)


def main_compare(argv):
    if len(argv) != 2:
        fail("compare needs two spread files")
    a, b = (json.load(open(p)) for p in argv)
    if a["meta"] != b["meta"]:
        fail("refusing to compare: run meta differs\n  %s\n  %s" %
             (json.dumps(a["meta"], sort_keys=True),
              json.dumps(b["meta"], sort_keys=True)), 1)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    print("%-36s %12s %12s %8s %s" % ("metric", "A median", "B median", "B/A", "verdict"))
    for n in a["runs"][0]["metrics"]:
        ma = statistics.median(r["metrics"][n]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][n]["value"] for r in b["runs"])
        m = metrics.get(n, {})
        verdict = ""
        if "bound" in m and ma:
            lower = m["better"] == "lower"
            change = (mb - ma) / ma if lower else (ma - mb) / ma
            verdict = "worse beyond bound" if change > m["bound"] else "within bound"
            worse += change > m["bound"]
        print("%-36s %12.6g %12.6g %8.4f %s" % (n, ma, mb, mb / ma if ma else 0, verdict))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        main_spread(sys.argv[2:])
    elif len(sys.argv) > 1 and sys.argv[1] == "compare":
        main_compare(sys.argv[2:])
    else:
        main_run(sys.argv[1:])
