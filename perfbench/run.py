#!/usr/bin/env python3
"""Build and run the tm-overlay serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_batch --seed 1 --seconds 20 --trace 0

Builds the `perfbench` crate (a package of its own, outside the repository
workspace) in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`
in the checkout), records provenance (rustc version, git revision when the
checkout is a git repository, a digest of the sources) and runs it. The last
line of standard output is the benchmark's JSON result. Exits non-zero
without printing a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("warm_batch", "cold_sharded", "stream_churn")
# Everything the benchmark binary is built from.
SOURCE_GLOBS = ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "perfbench/Cargo.toml", "perfbench/src/*.rs")


def source_digest():
    digest = hashlib.sha256()
    files = sorted({path for pattern in SOURCE_GLOBS for path in ROOT.glob(pattern)})
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ)
    target_dir = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    env["CARGO_TARGET_DIR"] = str(target_dir)

    manifest = BENCH_DIR / "Cargo.toml"
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
            env=env, stdout=sys.stderr, check=False)
    except OSError as error:
        print(f"perfbench: cannot run cargo: {error}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_GIT_REV"] = (command_output(["git", "rev-parse", "HEAD"])
                                if (ROOT / ".git").exists() else "none (not a git checkout)")
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    binary = target_dir / "release" / "perfbench"
    run = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(BENCH_DIR / "out")],
        env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
