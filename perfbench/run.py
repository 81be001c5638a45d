#!/usr/bin/env python3
"""Build and run the HAC benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Builds perfbench/hacbench.exe with dune (inside the checkout's _build, the
shared dune cache disabled), then runs it with the same flags plus the run
facts only the host knows: processor count, git commit and a digest of the
sources.  The benchmark's stdout is passed through unchanged; its last line
is the JSON result.  Build output goes to stderr.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["serve-read", "serve-ingest", "classify", "cold-mount"]
EXE = os.path.join("_build", "default", "perfbench", "hacbench.exe")
BUILD_TIMEOUT_S = 860
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "perfbench"):
        for d, _, files in os.walk(top):
            paths += [os.path.join(d, f) for f in files if f == "dune" or f.endswith((".ml", ".mli"))]
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for need in ("dune-project", os.path.join("lib", "core", "hac.mli"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a HAC source checkout (missing %s)" % need)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", EXE],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed", built.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--nproc", str(os.cpu_count() or 0), "--commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        ran = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
