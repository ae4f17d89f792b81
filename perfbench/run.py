#!/usr/bin/env python3
"""Runs one ssjoin benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload lookup_read --seed 1 --seconds 10 --trace 0

Builds the ssjoin library, ssjoin_server and the benchmark runner from the
checkout's sources (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR or
.bench_build, then runs it. Standard output carries a host stamp
line and, as its last line, the JSON result. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup_read", "ingest_mixed", "batch_join")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def source_revision():
    """The git commit when there is one, and always a digest of the sources
    the benchmark builds, so runs of a non-git checkout stay traceable."""
    digest = hashlib.sha256()
    trees = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"), HERE]
    for tree in trees:
        for dirpath, dirnames, filenames in os.walk(tree):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".cpp", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "src-" + digest.hexdigest()[:12]
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            rev = "git-" + sha.stdout.strip() + "," + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_runner", "ssjoin_server"]]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                log("build step failed: " + " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        if not build(build_dir):
            return 1
    except (OSError, subprocess.SubprocessError) as error:
        log("build failed: %s" % error)
        return 1

    command = [
        os.path.join(build_dir, "perfbench_runner"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--work-dir=" + os.path.join(build_dir, "work"),
        "--server=" + os.path.join(build_dir, "ssjoin_server"),
        "--rev=" + source_revision(),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if child.returncode != 0:
        log("runner exited with %d" % child.returncode)
        return child.returncode if child.returncode > 0 else 1
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log("runner printed no result line")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
