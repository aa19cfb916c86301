#!/usr/bin/env python3
"""Build and run the LiveGraph repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds this package and the repository's
`livegraph-serve` in release mode (into $CARGO_TARGET_DIR, default
perfbench/target), then runs one workload. The last line of standard output
is the JSON result; see BENCHMARK.json for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Git revision when run in a git checkout, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import hashlib

    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench/src", "perfbench/Cargo.toml"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs if not d.startswith(os.path.join(path, "target")))
        for f in files:
            if f.endswith((".rs", ".toml", ".lock")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def l3_bytes():
    """Size of the last-level (L3) cache, 0 when unknown."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            size = f.read().strip()
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError, IndexError):
        return 0


def cargo(args):
    """Runs a cargo build step with its output on stderr."""
    res = subprocess.run(["cargo"] + args, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo {' '.join(args)}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: the repository sources are missing; run from a full checkout")
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "perfbench/target")))
    env_target = {"CARGO_TARGET_DIR": target}
    os.environ.update(env_target)
    cargo(["build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")])
    cargo(["build", "--release", "--offline", "--quiet", "-p", "livegraph-server", "--bin", "livegraph-serve"])

    cmd = [
        os.path.join(target, "release", "livegraph-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--work-dir", os.path.join(target, "perfbench-run"),
        "--server-bin", os.path.join(target, "release", "livegraph-serve"),
        "--rev", source_digest(),
        "--l3-bytes", str(l3_bytes()),
    ]
    # The child inherits stdout, so its last line is this command's last line.
    res = subprocess.run(cmd, cwd=ROOT)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
