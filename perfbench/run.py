#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds ivm_server and the benchmark
runner from source with dune (into _build/), runs the workload, and
prints the runner's report followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}: every end-to-end
metric with --trace 0, every per-layer metric with --trace 1.  Scratch
files live in .perfbench_run/ inside the checkout and are removed after
the run.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve_bulk", "recursive_churn")
RUNNER = "_build/default/perfbench/bench.exe"
SERVER = "_build/default/bin/ivm_server.exe"
# the repository sources the benchmark builds; absent, there is nothing
# to measure
SOURCES = ("BENCHMARK.json", "dune-project", "bin/ivm_server.ml",
           "lib/serve/server.ml", "perfbench/bench.ml")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune not found")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./" + RUNNER.removeprefix("_build/default/"),
         "./" + SERVER.removeprefix("_build/default/")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=850)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    work = os.path.join(".perfbench_run", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # the runner and the server it spawns share a fresh process group,
    # so a runner that overruns is stopped together with its server
    runner = subprocess.Popen(
        [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server", SERVER, "--work", work],
        stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop_runner(*_):
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        fail("runner stopped")

    signal.signal(signal.SIGTERM, stop_runner)
    try:
        out, _ = runner.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stop_runner()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".perfbench_run")
        except OSError:
            pass
    lines = out.splitlines()
    if runner.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"runner exited with {runner.returncode}")
    result = json.loads(lines[-1])
    # the runner must report exactly the metrics BENCHMARK.json names for
    # this mode, with the same units
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    if {n: m["unit"] for n, m in got.items()} != want or not all(
            isinstance(m["value"], (int, float)) for m in got.values()):
        sys.stdout.write(out)
        fail("runner metrics do not match BENCHMARK.json")
    result["metrics"] = {m["name"]: got[m["name"]] for m in spec}
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:34} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
