#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <sat_deep|attack_matrix|serve_sessions|orap_tables> \
        --seed N --seconds S --trace <0|1> [--smoke]

Builds `perfbench` and the `serve_daemon` binary in release mode (offline,
into `$CARGO_TARGET_DIR`, default `.bench_build`), sets the exec pool to
the number of usable cores, and runs the workload. The last line of
standard output is the result object; provenance and work counts go to
`perfbench/out/`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_fingerprint():
    """Hash of every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, subdirs, names in os.walk(path):
                subdirs[:] = sorted(s for s in subdirs if s not in ("out", "target"))
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates are missing; nothing to build", file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    env["ORAP_THREADS"] = str(len(os.sched_getaffinity(0)))
    # A fixed mmap threshold: glibc's default threshold moves with the
    # history of frees, which differs with thread timing, and peak RSS of
    # identical inputs moved 17% between runs with it.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "-p", "perfbench", "-p", "serve", "--bin", "perfbench", "--bin", "serve_daemon"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_SOURCE"] = source_fingerprint()
    env["PERFBENCH_OUT"] = os.path.join(HERE, "out")
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:]]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
