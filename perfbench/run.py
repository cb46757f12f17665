"""Request-level benchmark of ``repro``: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: si8-tddft-cold, si64-excitation-scan, serve-mixed,
trajectory-batch (see perfbench/REFERENCE.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
``--workload all`` runs each workload in its own process and prints every
metric of every workload, by name and with its unit; it exits non-zero if
any op failed.

The thread budget is pinned before numpy loads and read back from the
loaded libraries; a run whose live counts differ is refused (exit 3).  A
checkout without ``src/repro`` is refused too (exit 2).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: BLAS threads and FFT workers per executing thread.  Workloads run at most
#: ``nproc`` executing threads (clients, server workers or ranks).
THREADS = 1

WORKLOAD_NAMES = (
    "si8-tddft-cold",
    "si64-excitation-scan",
    "serve-mixed",
    "trajectory-batch",
)


def _git_sha(root: str) -> str | None:
    """HEAD of ``root``'s git checkout, read from ``.git`` (no subprocess)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_tree(src: str) -> tuple[int, str]:
    """Line count and content digest of every ``.py`` file under ``src``."""
    lines, digest = 0, hashlib.sha256()
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def meta(live: dict) -> dict:
    import numpy
    import scipy

    src_lines, src_digest = _source_tree(SRC)
    return {
        "thread_budget": THREADS,
        "live_threads": live,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(ROOT),
        "src_sha256": src_digest,
        "src_lines": src_lines,
    }


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The process SPMD backend forks one process per rank and joins them, but
    its first shared-memory segment also starts ``multiprocessing``'s
    resource tracker, which would outlive this process (as a zombie under a
    parent that does not reap).  Stopping it here closes its pipe and reaps it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    while True:  # anything else forked underneath: wait for it
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def run_all(args) -> int:
    """Run every workload, each in a fresh process, and print every metric."""
    import json
    import subprocess

    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print("\n".join(line for line in lines[:-1] if not line.startswith("meta ")))
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)

    from perfbench import threads

    threads.pin(THREADS)  # before anything imports numpy

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        live = threads.verify(THREADS)
    except threads.ThreadBudgetError as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 3

    import json

    from perfbench.bench import measure

    info = meta(live)
    out_dir = os.path.join(HERE, "_out")
    try:
        result, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), out_dir=out_dir
        )
    finally:
        stop_children()
    print("meta " + json.dumps(info, sort_keys=True))
    for line in lines:
        print(line)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
