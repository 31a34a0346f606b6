#!/usr/bin/env python3
"""Benchmark self-tests: planted faults must raise fail_ratio, not read as
speedups, and a clean run must report no failures.

    python3 perfbench/selftest.py

Run from the repository root. Each case is one short run.py invocation;
the script exits 1 if any case misbehaves.
"""
import json
import os
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"
SECONDS = "2"

# (name, workload, extra args, extra environment, expect failures)
CASES = [
    ("clean sweep", "sweep_packed", [], {}, False),
    ("corrupted stimulus vector, sweep", "sweep_packed",
     ["--fault", "corrupt_vector"], {}, True),
    ("corrupted reference vectors, serve", "serve_mixed",
     ["--fault", "corrupt_vector"], {}, True),
    ("tampered reference front", "dse_explore",
     ["--fault", "tamper_front"], {}, True),
    ("no host toolchain (HLSW_CODEGEN_CXX=none)", "sweep_packed", [],
     {"HLSW_CODEGEN_CXX": "none"}, True),
]


def run(workload, extra, env_extra, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", trace] + extra
    res = subprocess.run(cmd, capture_output=True, text=True,
                         env=dict(os.environ, **env_extra))
    if res.returncode != 0 or not res.stdout.strip():
        raise RuntimeError(f"exit {res.returncode}: {res.stderr[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main():
    bad = 0
    for name, workload, extra, env_extra, expect_fail in CASES:
        for trace in ("0", "1"):
            try:
                r = run(workload, extra, env_extra, trace)
            except (RuntimeError, ValueError) as e:
                print(f"FAIL  {name} (trace {trace}): {e}")
                bad += 1
                continue
            ratio = r["failed"] / r["attempted"]
            ok = (ratio > 0) == expect_fail and r["correct"] == (not expect_fail)
            print(f"{'ok  ' if ok else 'FAIL'}  {name} (trace {trace}): "
                  f"fail_ratio {ratio:.3f} over {r['attempted']} operations")
            bad += not ok
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
