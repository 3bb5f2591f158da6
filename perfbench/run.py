#!/usr/bin/env python3
"""Builds the benchmark from source and runs one seeded workload.

    python3 perfbench/run.py --workload od_serve --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and compiles
perfbench/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs only rebuild what changed. The last line of standard
output is the workload's JSON result. Traced runs (--trace 1) also leave
their spans in <build dir>/traces/. Without the library sources the script
exits with status 2 before building anything.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("od_serve", "path_batch", "route", "build")
ROOT = os.getcwd()


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(source, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source = os.path.join(ROOT, "perfbench")
    if not (os.path.isfile(os.path.join(ROOT, "src", "serving", "engine.h"))
            and os.path.isfile(os.path.join(source, "CMakeLists.txt"))):
        log("run from the root of a checkout: src/ and perfbench/ are needed")
        return 2

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build(source, build_dir):
            log("build failed")
            return 1
    binary = os.path.join(build_dir, "pcde_perfbench")

    workdir = os.path.join(root, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                       os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    signals = []
    child = None

    def stop(signum, _frame):
        # Forward the signal and let the wait below reap the child: waiting
        # here, inside the handler, would deadlock on the Popen lock the
        # interrupted wait holds.
        signals.append(signum)
        if child is not None:
            os.kill(child.pid, signal.SIGTERM)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        child = subprocess.Popen([binary, "--workload", args.workload, "--seed",
                                  str(args.seed), "--seconds", repr(args.seconds),
                                  "--trace", str(args.trace), "--workdir",
                                  workdir])
        code = child.wait()
        if args.trace:
            traces = os.path.join(root, "traces")
            os.makedirs(traces, exist_ok=True)
            for name in os.listdir(workdir):
                if name.startswith("trace-"):
                    shutil.move(os.path.join(workdir, name),
                                os.path.join(traces, name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if signals:
        return 128 + signals[0]
    return code


if __name__ == "__main__":
    sys.exit(main())
