#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), a Release build of the library plus the
benchmark binary; later runs only re-check it.  Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.  Every other flag
(--instance-seed, --setup-reps, ...) is passed through to the binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def main(argv):
    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    workload = flag(argv, "--workload", "none")
    tag = f"{workload}-{os.getpid()}"
    extra = ["--work-dir", os.path.join(build_root, "work", tag)]
    if flag(argv, "--trace", "0") == "1":
        extra += ["--spans-out", os.path.join(build_root, f"spans-{workload}.jsonl")]
    sys.stdout.flush()
    return subprocess.run([binary] + argv + extra, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
