"""The repository benchmark: one workload, plain or traced.

    python3 perfbench/run.py --workload tap_stream --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports every end-to-end metric; with
``--trace 1`` every per-layer metric. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it (each starting with ``#``) give the environment, the
sample counts, the correctness failures and, when traced, the
per-layer self-time table. README.md next to this file explains the
workloads and metrics.

Each workload runs in fresh processes started from here (see
worker.py): with ``--trace 0``, SETUP_REPS processes set the workload
up and the last of them also runs it, and ``setup_s`` is their
median; with ``--trace 1``, one plain process and one traced process
run it, and the ratio of their costs on the same operations is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("tap_stream", "scan_analytics", "ingest_mix")

#: Processes that set the workload up in a plain run.
SETUP_REPS = 3
#: Wall budget of one invocation; children are killed past it.
BUDGET_S = 170.0
#: Longest measured window of a plain run, seconds.
MAX_RUN_S = 60.0


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class _Child:
    """Starts worker processes within the invocation's wall budget."""

    def __init__(self, args, scratch: str) -> None:
        self.args = args
        self.scratch = scratch
        self.deadline = time.monotonic() + BUDGET_S

    def run(self, *, seconds: float, max_run_s: float, trace: int = 0,
            setup_only: bool = False) -> dict:
        env = dict(os.environ)
        # Payload bytes must not depend on str-hash salting.
        env["PYTHONHASHSEED"] = "0"
        env.pop("PYTHONPATH", None)
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed),
                   "--seconds", str(seconds),
                   "--trace", str(trace),
                   "--max-run-s", str(max_run_s),
                   "--workdir", self.scratch,
                   "--spans", os.path.join(
                       WORKDIR, f"spans-{self.args.workload}.npz")]
        if setup_only:
            command.append("--setup-only")
        command += ["--spawned", repr(time.monotonic())]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("wall budget spent before the run ended")
        # subprocess.run kills and reaps the child on timeout.
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=remaining, text=True)
        if done.returncode != 0:
            raise RuntimeError(
                f"worker exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def _plain(child: _Child, seconds: float) -> tuple[dict, dict]:
    setups = [child.run(seconds=seconds, max_run_s=0, setup_only=True)
              for _ in range(SETUP_REPS - 1)]
    # The cap bounds a run on a slow machine; rounds then hold fewer
    # samples and the tail percentile drops to what they support.
    result = child.run(seconds=seconds, max_run_s=MAX_RUN_S)
    setups.append(result)
    metrics = dict(result["e2e"])
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["setup_runs_s"] = {
        "reference": [s["setup_s"] for s in setups],
        "wall": [s["setup_wall_s"] for s in setups]}
    result["wall"]["setup_s"] = statistics.median(
        s["setup_wall_s"] for s in setups)
    return result, metrics


def _traced(child: _Child, seconds: float) -> tuple[dict, dict]:
    # Per-layer figures are not gated, so neither run is extended past
    # its time for more samples.
    half = max(1.0, seconds / 2)
    plain = child.run(seconds=half, max_run_s=half)
    result = child.run(seconds=seconds, max_run_s=seconds, trace=1)
    # Same seed, same operations: compare the cost of the common prefix.
    n = min(len(plain["unit_costs"]), len(result["unit_costs"]))
    base = sum(plain["unit_costs"][:n])
    metrics = dict(result["layers"])
    metrics["obs.trace_overhead_ratio"] = (
        sum(result["unit_costs"][:n]) / base if base else 0.0)
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    result["failures"] += plain["failures"]
    return result, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from catalogue import END_TO_END, PER_LAYER

    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORKDIR, exist_ok=True)
    # Scratch for this invocation (durable stores), removed even when a
    # killed worker could not clean up after itself.
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    child = _Child(args, scratch)
    try:
        if args.trace:
            result, values = _traced(child, args.seconds)
            wanted = PER_LAYER
        else:
            result, values = _plain(child, args.seconds)
            wanted = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [name for name, *_ in wanted if name not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env = _environment(args)
    env["workload_setup"] = result["describe"]
    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps(result["samples"]))
    print("# raw wall time, not speed-scaled " + json.dumps(
        {name: round(value, 6) for name, value in result["wall"].items()}))
    if "setup_runs_s" in result:
        print("# setup_runs_s " + json.dumps(result["setup_runs_s"]))
    if "self_ms_per_op" in result:
        print("# self time per operation, ms, by layer:")
        for layer, value in result["self_ms_per_op"].items():
            print(f"#   {layer:<10} {value:10.4f}")
    print(f"# failed_ratio {result['failed'] / max(result['attempted'], 1)}")
    for failure in result["failures"]:
        print(f"# failure: {failure}")
    for name, unit, *_ in wanted:
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
