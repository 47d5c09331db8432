#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload,
check its outputs, and print one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Everything it builds, generates and
writes lives under .bench_build/ in that checkout. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "tools", "perfbench")
DATA_DIR = os.path.join(BUILD, "data")
WORK_DIR = os.path.join(BUILD, "run")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("ingest-512", "ranksweep-512-socket")
# A run must end within 180 s; the perfbench binary caps its own rounds well
# below this.
RUN_LIMIT_S = 175.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def build():
    """Configures once, then builds incrementally (a no-op when current). A
    build tree that fails, say one configured for another checkout path, is
    removed and built again from scratch once."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    for _ in range(2):
        if (os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")) or
                run_quiet(["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], log, 300) == 0):
            if run_quiet(["cmake", "--build", CMAKE_DIR, "-j4", "--target",
                          "perfbench", "dbtf_worker"], log, 840) == 0:
                return
        shutil.rmtree(CMAKE_DIR, ignore_errors=True)
    fail("build failed; see " + log)


def run_binary(args, timeout, log_name):
    """Runs the perfbench binary in its own process group and waits for it and
    for every process it started."""
    log = os.path.join(BUILD, log_name)
    code = run_quiet([BINARY] + args, log, timeout)
    if code is None:
        fail("perfbench timed out; see " + log)
    return code, log


def check_recorded(outputs, seed, record):
    """Compares each {key: value} of `outputs` with the value recorded for
    this seed in expected.json; with `record`, stores unrecorded ones first.
    Returns the mismatches and whether every value had a record."""
    table = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            table = json.load(f)
    if record:
        for key, value in outputs.items():
            table.setdefault(key, {}).setdefault(str(seed), value)
        with open(EXPECTED, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
    mismatches, all_recorded = [], True
    for key, value in outputs.items():
        expected = table.get(key, {}).get(str(seed))
        if expected is None:
            all_recorded = False
        elif expected != value:
            mismatches.append("%s is %s, recorded %s" % (key, value, expected))
    return mismatches, all_recorded


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests as expected")
    args = parser.parse_args()
    start = time.monotonic()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/; run from a checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data-dir", DATA_DIR]
    code, log = run_binary(["prepare"] + common, RUN_LIMIT_S, "prepare.log")
    if code != 0:
        fail("input preparation failed; see " + log)

    os.makedirs(WORK_DIR, exist_ok=True)
    result_path = os.path.join(WORK_DIR, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    remaining = RUN_LIMIT_S - (time.monotonic() - start)
    code, log = run_binary(
        ["run"] + common + ["--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--work-dir", WORK_DIR, "--result", result_path],
        max(remaining, 30.0), "run.log")
    if not os.path.exists(result_path):
        fail("the run wrote no result (exit %d); see %s" % (code, log))
    with open(result_path) as f:
        result = json.load(f)

    # Output identities per seed: the workload's factors and error, and,
    # on a traced run, the served answers.
    outputs = {args.workload + ".factor_digest": result["factor_digest"],
               args.workload + ".final_error": result["final_error"]}
    if result["serve_digest"]:
        outputs["serve.answer_digest"] = result["serve_digest"]
    correct = code == 0 and result["correct"]
    message = result["message"]
    if correct:
        mismatches, all_recorded = check_recorded(outputs, args.seed,
                                                  args.record)
        if mismatches:
            correct = False
            message = "outputs differ from the recorded ones: " + \
                "; ".join(mismatches)
        elif all_recorded:
            message += "; outputs match the recorded ones"
        else:
            message += "; some outputs have no record for this seed"
    print("perfbench: %s seed %d: %s; host %s" % (
        args.workload, args.seed, message, json.dumps(result["host"])),
        file=sys.stderr)

    metrics = {}
    if correct:
        measured = result["per_layer" if args.trace else "end_to_end"]
        missing = [n for n in names if n not in measured]
        if missing:
            fail("metrics missing from the run: " + ", ".join(missing))
        metrics = {n: measured[n] for n in names}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
