#!/usr/bin/env python3
"""The repository benchmark: build the simulator's benchmark harness from
source, run one workload, check its output and print the result.

    python3 perfbench/run.py --workload rain_24h --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it builds into `.bench_build/`
at the checkout root.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Each run also writes `.bench_build/out/<workload>-seed<n>-trace<t>/`:
the merged report, its digest, the spans of a traced run, and
result.json with the metrics and the host fingerprint.

--chains and --slots shrink the workload (used by test_smoke.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "neofog_perfbench")
WORKLOADS = ("forest_24h", "rain_24h", "rain_mux3_dist")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Run a build step, appending its output to @p log."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build():
    """Configure (once) and build the harness; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "neofog_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            code = run_logged(cmd, log, BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out; see " + log)
        if code != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed; see " + log)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if shutil.which("git") is None or not os.path.exists(
            os.path.join(ROOT, ".git")):
        return "none"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "none"


def source_digest():
    """sha256 over the simulator and benchmark sources, path-ordered."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def fingerprint(info):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_harness(args, out_dir):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.chains:
        cmd += ["--chains", str(args.chains)]
    if args.slots:
        cmd += ["--slots", str(args.slots)]
    # Own session, so a timeout also stops the distributed workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--chains", type=int, default=0)
    ap.add_argument("--slots", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    expected = expected_metrics(args.trace)
    build()
    out_dir = os.path.join(BUILD_ROOT, "out", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    res = run_harness(args, out_dir)

    metrics = res["metrics"]
    if {k: v["unit"] for k, v in metrics.items()} != expected:
        fail("harness metrics do not match BENCHMARK.json: "
             + ", ".join(sorted(set(metrics) ^ set(expected))))
    info = res["info"]
    result = {"correct": bool(res["correct"]),
              "attempted": int(res["attempted"]),
              "failed": int(res["failed"]),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, info=info, host=fingerprint(info))
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("host " + json.dumps(record["host"], sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
