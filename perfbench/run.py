#!/usr/bin/env python3
"""Build the benchmark and chroma-node from source, then run one workload.

Run from anywhere in a chroma source tree:

    python3 perfbench/run.py --workload <kv_read|cluster_2pc> \
        --seed <n> --seconds <n> --trace <0|1>

Both binaries are built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the tree's root). The benchmark then runs
with its scratch files under .perfbench_runs at the root, removed
afterwards, also when a run is killed. A traced local run leaves its
spans in .perfbench_spans/<workload>.jsonl. Its human-readable report goes to stderr; the last line of
stdout is the JSON result. The exit code is the benchmark's: 0 when
every correctness check passed, 1 when one failed or nothing could be
built, 2 on bad arguments. See perfbench/NOTES.md.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The benchmark ends well inside this on a healthy tree; a hung run is
# killed together with every process it started.
RUN_TIMEOUT_S = 170


def build(cargo_args, env):
    """Builds with cargo, sending its output to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + cargo_args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates", "chroma-node"))
    ):
        print(f"perfbench: {ROOT} is not a chroma source tree", file=sys.stderr)
        return 1
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(["-p", "chroma-node"], env):
        print("perfbench: building chroma-node failed", file=sys.stderr)
        return 1
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1

    # Write back what the build (or anything before this run) left
    # dirty, so the run's fsyncs do not queue behind it.
    os.sync()

    release = os.path.join(target, "release")
    work_dir = os.path.join(ROOT, ".perfbench_runs")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--node-bin",
        os.path.join(release, "chroma-node"),
        "--work-dir",
        work_dir,
    ]
    # A session of its own, so a timeout can stop the benchmark and
    # every chroma-node process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        print("perfbench: run timed out or was interrupted", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # The killed benchmark could not remove its scratch dirs.
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
