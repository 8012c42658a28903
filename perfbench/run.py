#!/usr/bin/env python3
"""Build and run the lowdeg benchmark.

    python3 perfbench/run.py --workload <answer-stream|write-rebuild|query-batch> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, offline, release) and
runs one workload in one process: `perfbench` for `--trace 0` (end-to-end
metrics) or `perfbench-trace` for `--trace 1` (per-layer metrics). The
last line of standard output is the result object; the exit code is the
benchmark's own (non-zero when any operation failed). Build output goes to
standard error. Per-run records land in perfbench/out/.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def commit():
    """The commit under test, or a digest of the library sources when the
    checkout is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "crates")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files) if f.endswith((".rs", ".toml"))]
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Build both binaries; return their paths by target name."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if out.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {out.returncode}")
    exes = {}
    for line in out.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[msg["target"]["name"]] = msg["executable"]
    return exes


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
    name = "perfbench-trace" if trace == "1" else "perfbench"
    exe = build().get(name)
    if exe is None:
        sys.exit(f"perfbench: the build produced no {name} binary")
    env = dict(os.environ, PERFBENCH_COMMIT=commit(), PERFBENCH_OUT=os.path.join(HERE, "out"))
    try:
        run = subprocess.run([exe] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
