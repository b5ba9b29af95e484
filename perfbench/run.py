#!/usr/bin/env python3
"""The memoria benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a memoria checkout. It builds the memoria binary
and the benchmark harness (perfbench/harness.ml, release profile), runs
one workload, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off over a timed region of S seconds. With
--trace 1 they are the per-layer metrics, from a separate pass over a
fixed amount of the workload's input, repeated for S seconds. The
traced pass turns on the libraries' own tracer (Locality_obs.Obs), so
their spans around parsing, dependence tests, compound, capture,
replay, the analytic model and the tuner's screen and confirm phases,
their counters, and the spans the harness opens around its own calls
into the driver's wire API are kept in memory and written to
_perfbench/trace-<workload>-<seed>.jsonl (name, start, end, parent,
self time, arguments). The line before the result is a provenance
record: core count, build profile, OCaml version, git describe, seed
and the operation counts behind each percentile.

Workloads (see BENCHMARK.json for why each was chosen):
  paper-exact  Table 2 + Table 4 over the 35 suite programs, timed at
               jobs = 1 after an untimed warm-up pass at jobs = nproc
  tune-search  cold `Tune.run` over seven kernels on cache2, store off,
               timed at jobs = 1 after an untimed reference at jobs = nproc
  serve-mix    `memoria serve --socket -j nproc`, nproc closed-loop
               connections, seeded mix of warm, cold, parsed, tune and
               malformed requests in shares the benchmark chose; the
               traced pass reports latency per kind

Every end-to-end metric is printed on every workload. op_p99_ms has
at least ten samples beyond it on serve-mix only; the provenance line
gives the sample count and how many lie beyond it on every workload. The two
deterministic quality metrics (opt_speedup_geomean, tune_regret_pp) are
computed from fixed reference sets outside the timed region, so they
read the same on every workload and only move when the code's answers
move. Failed operations are the result's `failed` count; the run is
`correct` only if every oracle held and every deterministic metric and
count repeated exactly, including between jobs=1 and jobs=nproc.

The benchmark reads and writes only inside the checkout: the build
goes to _build, stores, sockets and traces to _perfbench.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HARNESS = "_build/default/perfbench/harness.exe"
MEMORIA = "_build/default/bin/memoria.exe"
WORK = "_perfbench"
PROFILE = "release"


def nproc():
    return len(os.sched_getaffinity(0))


def clean_env():
    """The environment without MEMORIA_* variables, so no ambient store,
    replay mode or job count leaks into a measurement."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MEMORIA_")}


def build():
    """Build the two programs from source; exit 1 without a result when
    the checkout cannot build them."""
    cmd = ["dune", "build", "--root", ".", "--profile", PROFILE,
           "./" + HARNESS.split("/", 2)[2], "./" + MEMORIA.split("/", 2)[2]]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env(), timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (dune exit %d)" % proc.returncode)


def declared():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return ([w["name"] for w in spec["workloads"]],
            units("end_to_end"), units("per_layer"))


def harness_names():
    """Workload and metric names (with units) the harness prints."""
    out = subprocess.run([HARNESS, "--list"], capture_output=True, text=True,
                         check=True, env=clean_env()).stdout
    names = json.loads(out)
    return (names["workloads"], dict(names["end_to_end"]),
            dict(names["per_layer"]))


def git_describe():
    if not os.path.exists(".git"):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def run_harness(cmd, timeout):
    """Run the harness in a process group of its own and return
    (exit code, stdout, stderr). Whatever it leaves running (a serve
    daemon, if it died or timed out mid-run) is killed and waited for."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=clean_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL if time.monotonic() > deadline else 0)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline + 5:
            break
        time.sleep(0.05)
    return code, out, err


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    workloads, e2e, layers = declared()
    if harness_names() != (workloads, e2e, layers):
        sys.exit("perfbench: harness names differ from BENCHMARK.json")
    if args.workload not in workloads:
        sys.exit("perfbench: unknown workload %r" % args.workload)

    jobs = nproc()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs), "--memoria", MEMORIA, "--work", WORK]
    code, out, err = run_harness(cmd, timeout=170)
    sys.stderr.write(err)
    lines = out.splitlines()
    if code != 0 or len(lines) < 2:
        sys.stdout.write(out)
        sys.exit("perfbench: harness failed (exit %s)" % code)
    for line in lines[:-2]:
        print(line)
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    expected = e2e if args.trace == 0 else layers
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit("perfbench: printed metrics differ from BENCHMARK.json")
    provenance.update({"workload": args.workload, "nproc": str(jobs),
                       "profile": PROFILE, "git": git_describe()})
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
