#!/usr/bin/env python3
"""The confail benchmark: one command for four closed-loop workloads.

    python3 confbench/run.py --workload explore|fuzz|ingest|campaign \\
        --seed N --seconds S --trace 0|1 [--holdout]

Run from the root of a source checkout.  The first run configures and builds
the library, the `confail` CLI and the `confbench` harness from source into
.bench_build/confbench (RelWithDebInfo, the repository's default build type);
later runs only rebuild what changed.  Build output goes to stderr.

The harness (src/) sets up, runs timed passes for S seconds, gates every pass
against the hand-maintained known answers in expected.json and runs the
liveness probes.  This script adds what can only be measured from outside:
peak_rss_mb, the largest resident set of any process in the harness's process
tree (the harness itself, or the `confail serve` daemon and its shard workers
on the campaign workload).  It prints a stamp line (commit or source digest,
build type, nproc, seed, traced mode) and, as the last line of stdout, the
result object with every end-to-end metric (--trace 0) or every per-layer
metric (--trace 1), checked against BENCHMARK.json.

--holdout replaces --seed with the hold-out seed named in expected.json, a
seed kept out of tuning so a later claim can be re-checked on it.

Each run's spans (traced runs) and result are kept under
.bench_build/runs/<workload>-<seed>-<trace>/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "confbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("explore", "fuzz", "ingest", "campaign")
# A run must end within 180 s; the harness's own passes take well under this.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
           f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs,
           "--target", "confbench", "confail"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def source_stamp():
    """The commit when the checkout is a git repository, else None; and a
    digest of every source file the benchmark builds."""
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository, not one enclosing it.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "cmake", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def expected_metrics(traced):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_harness(args, seed, work_dir):
    cmd = [os.path.join(BUILD_DIR, "confbench"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--confail", os.path.join(BUILD_DIR, "confail_tools", "confail"),
           "--expect", os.path.join(BENCH_DIR, "expected.json"),
           "--work-dir", work_dir]
    out_path = os.path.join(work_dir, "stdout.txt")
    with open(out_path, "w") as out:
        # Its own process group, so a timeout can stop the harness together with
        # any `confail` processes it started.
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT,
                                start_new_session=True)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                log("harness timed out")
                return None, None
            time.sleep(0.05)
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        log(f"harness failed with status {status}")
        return None, None
    with open(out_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        return None, None
    # ru_maxrss of a reaped child covers it and every descendant it reaped.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1

    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        holdout_seed = json.load(f)["holdout_seed"]
    seed = holdout_seed if args.holdout else args.seed
    work_dir = os.path.join(ROOT, ".bench_build", "runs",
                            f"{args.workload}-{seed}-{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    result, peak_mb = run_harness(args, seed, work_dir)
    if result is None:
        return 1
    traced = args.trace == 1
    if not traced:
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}

    promised = expected_metrics(traced)
    if promised is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != promised:
            log(f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(promised) - set(got))}, extra "
                f"{sorted(set(got) - set(promised))}, or units differ")
            return 1

    commit, digest = source_stamp()
    stamp = {"commit": commit, "source_digest": digest,
             "build_type": BUILD_TYPE,
             "nproc": len(os.sched_getaffinity(0)),
             "hardware_concurrency": os.cpu_count(),
             "workload": args.workload, "seed": seed,
             "holdout": seed == holdout_seed, "traced": traced,
             "seconds": args.seconds}
    with open(os.path.join(work_dir, "result.json"), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=2)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
