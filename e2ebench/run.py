#!/usr/bin/env python3
"""End-to-end benchmark entry point for Hermes.

    python3 e2ebench/run.py --workload <serve-churn|paper-deploy|traffic-sim>
                            --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the Hermes library, hermes_serve and
the e2ebench program from source into $CARGO_TARGET_DIR (default
.bench_build) on first use, then runs one workload in a fresh scratch
directory under that build directory and removes it afterwards. The last
line of stdout is the result object; build output goes to stderr.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve-churn", "paper-deploy", "traffic-sim")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(REPO_ROOT, needed)):
            fail("Hermes sources not found (missing %s); run from a full checkout" % needed)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4",
                    "--target", "e2ebench", "hermes_serve"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        fail("build failed: %s" % err)

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=runs)
    child = None

    def forward(signum, _frame):
        if child is not None and child.poll() is None:
            child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    try:
        sys.stdout.flush()
        child = subprocess.Popen([
            os.path.join(build_dir, "e2ebench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--bench-dir", BENCH_DIR,
            "--serve-bin", os.path.join(build_dir, "hermes_tools", "hermes_serve"),
            "--run-dir", run_dir])
        code = child.wait()
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
