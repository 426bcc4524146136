#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The Go build cache, the binary and the
traced mode's Chrome trace all go under .bench_build/ in the current
directory, so the run writes nowhere else. Every argument is passed to the
benchmark binary; its exit code is this script's exit code. A failed build
exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def git(root, *args):
    """Returns git's output in root, or None when git or a repository is missing."""
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),  # go env and telemetry files
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    commit = git(root, "rev-parse", "HEAD") or "unknown"
    status = git(root, "status", "--porcelain")
    dirty = "unknown" if status is None else str(bool(status)).lower()
    args = [binary, *sys.argv[1:], "--commit", commit, "--dirty", dirty]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
