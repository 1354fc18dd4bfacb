#!/usr/bin/env python3
"""Build the e2ebench binary from this checkout and run one workload.

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve from this file. The first run configures
and builds (Release) into .bench_build/ at the checkout root; later runs only
re-make. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. For the traced run this
script also reduces the span files the binary wrote (tracereduce.py) and
adds the span-derived per-layer metrics. Exits non-zero without a result
when the source tree is missing, the build fails, or the run fails.
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
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep the benchmark directory clean
sys.path.insert(0, HERE)
import tracereduce  # noqa: E402

# Per-layer metrics read from the traced run's span files:
# (metric, trace file, span name, statistic).
SPAN_METRICS = [
    ("core.dn_epoch_ms", "core.trace.json", "DN_epoch", "median_us"),
    ("core.dr_phase_ms", "core.trace.json", "dr_phase", "median_us"),
    ("core.mamdr_epoch_self_ms", "core.trace.json", "MAMDR_epoch",
     "median_self_us"),
    ("ps.worker_dn_epoch_ms", "ps.trace.json", "worker_dn_epoch",
     "median_us"),
    ("ps.worker_dr_phase_ms", "ps.trace.json", "worker_dr_phase",
     "median_us"),
]


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Run `cmd` with its stdout sent to our stderr; kill its whole process
    group and wait for it if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no MAMDR source tree next to e2ebench/ (missing %s)" % need,
                 2)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged([cmake, "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged([cmake, "--build", BUILD, "--target", "e2ebench", "-j",
                   jobs], BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def add_span_metrics(work_dir, metrics):
    summaries = {}
    for name in sorted(os.listdir(work_dir)):
        if name.endswith(".trace.json"):
            summaries[name] = tracereduce.summarize(
                tracereduce.load_events(os.path.join(work_dir, name)))
            print("== self time per span, %s\n%s" % (
                name, tracereduce.format_table(summaries[name])),
                file=sys.stderr)
    for metric, trace_file, span, stat in SPAN_METRICS:
        spans = summaries.get(trace_file, {})
        if span not in spans:
            fail("traced run recorded no '%s' span in %s" % (span,
                                                             trace_file))
        metrics[metric] = {"value": spans[span][stat] / 1e3, "unit": "ms"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build()
    work_dir = os.path.join(BUILD, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        started = time.monotonic()
        proc = subprocess.Popen(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("workload run did not finish within %d s" % RUN_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            fail("workload run exited with code %d" % proc.returncode)
        lines = out.strip().splitlines()
        if not lines:
            fail("workload run printed nothing")
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        if args.trace:
            add_span_metrics(work_dir, result["metrics"])
        want = expected_metrics(args.trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("metrics do not match BENCHMARK.json: missing %s, extra %s,"
                 " units %s" % (sorted(set(want) - set(got)),
                                sorted(set(got) - set(want)),
                                sorted(k for k in set(want) & set(got)
                                       if want[k] != got[k])))
        print("e2ebench: run took %.1f s" % (time.monotonic() - started),
              file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
