#!/usr/bin/env python3
"""Builds the hlsw benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <dse_explore|sweep_packed|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--fault <corrupt_vector|tamper_front>]

Run from the repository root. The build lands in .bench_build/perfbench
(configured once, rebuilt incrementally on every run); build output goes
to stderr. The last line of stdout is the result JSON object. See
perfbench/README.md.
"""
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def sh(cmd):
    """Runs a build step with its output on stderr; exits 2 on failure.
    Compiler temporaries stay inside the build tree."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                         env=dict(os.environ, TMPDIR=str(tmp)))
    if res.returncode != 0:
        print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the hlsw sources (src/) are not next to perfbench/",
              file=sys.stderr)
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", str(HERE), "-B", str(BUILD),
            "-DCMAKE_BUILD_TYPE=Release"] + gen)
    sh(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])


def git_sha():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    build()
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    proc = subprocess.Popen([str(BUILD / "perfbench")] + sys.argv[1:],
                            cwd=str(ROOT), env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    # The program removes its run directory itself; this covers a crash.
    shutil.rmtree(ROOT / ".bench_build" / "runs" / str(proc.pid),
                  ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
