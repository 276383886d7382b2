#!/usr/bin/env python3
"""Builds and runs the repository benchmark (ffbench).

Usage, from the root of a checkout:

    python3 ffbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds ffbench/ (and the simulator sources
it links) in Release mode under $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. The last line of standard output is
the JSON result {correct, attempted, failed, metrics}. Build output goes
to standard error. Exits 0 only when every checked cell was correct.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # the binary stops itself at 150 s; this is the backstop


def log(msg):
    print("ffbench: " + msg, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_identity():
    """(sha, dirty) of the checkout, or ('none', 'unknown') outside git."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return "none", "unknown"
        st = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                             "--untracked-files=no"],
                            capture_output=True, text=True, timeout=10)
        dirty = "unknown" if st.returncode != 0 else (
            "yes" if st.stdout.strip() else "no")
        return sha.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return "none", "unknown"


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", "ffbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ffbench")


def failure_result(output):
    """The result of a run that crashed or hung: its pending cells fail."""
    attempted, failed, pending = 0, 0, 0
    for line in output.splitlines():
        if line.startswith("# progress "):
            fields = dict(kv.split("=") for kv in line.split()[2:])
            attempted = int(fields["attempted"])
            failed = int(fields["failed"])
            pending = int(fields["pending"])
    return ('{"correct": false, "attempted": %d, "failed": %d, '
            '"metrics": {}}' % (max(attempted + pending, 1),
                                max(failed + pending, 1)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources at %s/src; run from a full checkout"
            % ROOT)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "ffbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    sha, dirty = git_identity()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--state-dir", os.path.join(build_dir, "state"),
           "--git-sha", sha, "--git-dirty", dirty,
           "--source-digest", source_digest()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("run exceeded %d s; killed" % RUN_BUDGET_S)
        sys.stdout.write(out)
        print(failure_result(out), flush=True)
        return 1
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if proc.returncode == 2 or not lines or not lines[-1].startswith("{"):
        if proc.returncode == 2:  # usage error: no result to report
            return 2
        log("run ended with code %d and no result after %.1f s"
            % (proc.returncode, time.monotonic() - start))
        print(failure_result(out), flush=True)
        return 1
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
