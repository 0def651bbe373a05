#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload reproduce|serve-text|serve-bin \
        --seed N --seconds S --trace 0|1 [--tiny] [--break-oracle]

Run it from the root of a checkout. The first run configures and builds
the SPIRE libraries and spire_perfbench under .bench_build/ (RelWithDebInfo,
SPIRE_SIMD=OFF, as the default tier-1 build); later runs only rebuild what
changed. The last line of stdout is the result object. When the build or
the run fails, the script exits non-zero without printing a result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DSPIRE_SIMD=OFF"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "spire_perfbench"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["reproduce", "serve-text", "serve-bin"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--break-oracle", action="store_true")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD_DIR, "spire_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--commit", source_id()]
    if args.tiny:
        command.append("--tiny")
    if args.break_oracle:
        command.append("--break-oracle")
    with subprocess.Popen(command, cwd=ROOT) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
