#!/usr/bin/env python3
"""The repository benchmark's one command.

Builds the benchmark and the repository's core library from source (CMake,
Release, into .bench_build/ of the current directory), then runs one workload
and passes its output through: human-readable lines, then one JSON result as
the last line. Run it from the root of a checkout:

    python3 perfbench/run.py --workload rmat-shm-ooc --seed 1 --seconds 25 --trace 0

--trace 1 runs the same workload traced: it prints the per-layer metrics
instead of the end-to-end ones and writes a Chrome trace under
.bench_build/traces/. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("rmat-shm-ooc", "road-inproc", "serve-rmat-process")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dne_perfbench")
# Temporary files of the compiler and the run stay inside the checkout.
TMP_DIR = os.path.join(".bench_build", "tmp")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr, so stdout stays the
    benchmark's."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env())
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def child_env():
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a repository checkout "
             "(CMakeLists.txt and src/ next to perfbench/)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "dne_perfbench",
               "-j", jobs])


def git_sha():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the program's sources, so a result names the code it
    measured even in a checkout without git history."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(root, f) for f in sorted(files)]
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        fail("--seconds must be in [1, 3600]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, env=child_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
