"""Quick-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that:

* catalogue.py and BENCHMARK.json name the same metrics with the same
  units, directions and bounds, and the same workloads;
* ``run.py`` prints, for every workload, plain and traced, a last line
  with exactly ``correct``/``attempted``/``failed``/``metrics`` and
  every metric of the mode with its unit, and that the run is correct;
* the layers each workload exercises report non-zero figures;
* the deterministic figures (virtual time, bytes, counts) repeat
  exactly for one seed and differ for another.

Exits 0 when every check passes, 1 otherwise. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalogue import DETERMINISTIC, END_TO_END, PER_LAYER  # noqa: E402

#: Per-layer metrics that must be non-zero on each workload.
EXERCISED = {
    "tap_stream": ("serving.self_us_per_tap", "mobile.render_ms.p50",
                   "mobile.bytes_per_tap", "analysis.check_ms.p50",
                   "query.exec_self_ms.p50", "sources.fetch_ms.p50",
                   "sources.roundtrips_per_tap", "setup.import_s"),
    "scan_analytics": ("query.plan_ms.p50", "query.exec_self_ms.p99",
                       "query.family.join_ms.p50",
                       "query.family.substructure_ms.p50",
                       "chem.similarity_candidate_ratio",
                       "chem.self_ms_per_op"),
    "ingest_mix": ("storage.insert_us.p50", "storage.delete_us.p50",
                   "cache.invalidations_per_write",
                   "durable.wal_bytes_per_row", "durable.space_amp",
                   "durable.recover_s"),
}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_catalogue() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    check([dict(name=n, unit=u, better=b, bound=bd)
           for n, u, b, bd in END_TO_END] == spec["end_to_end"],
          "end_to_end metrics match BENCHMARK.json")
    check([dict(name=n, unit=u, better=b) for n, u, b in PER_LAYER]
          == spec["per_layer"], "per_layer metrics match BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(EXERCISED),
          "workloads match BENCHMARK.json")


def run(workload: str, trace: int, seed: int = 1) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=300)
    check(done.returncode == 0, f"{workload} trace={trace} exits 0")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_emission(workload: str, trace: int) -> dict:
    result = run(workload, trace)
    wanted = PER_LAYER if trace else END_TO_END
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} trace={trace}: correct, nothing failed")
    check(all(result["metrics"].get(name, {}).get("unit") == unit
              and isinstance(result["metrics"][name]["value"], (int, float))
              for name, unit, *_ in wanted)
          and len(result["metrics"]) == len(wanted),
          f"{workload} trace={trace}: every metric with its unit")
    return result["metrics"]


def worker(workload: str, seed: int) -> dict:
    """A traced worker run: both its end-to-end and layer figures."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    scratch = os.path.join(ROOT, ".perfbench_work", "selftest")
    os.makedirs(scratch, exist_ok=True)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "1",
         "--max-run-s", "0", "--workdir", scratch, "--spans",
         os.path.join(scratch, "spans.npz")],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {**result["e2e"], **result["layers"]}


def check_determinism(workload: str) -> None:
    first, again, other = (worker(workload, 1), worker(workload, 1),
                           worker(workload, 2))
    for name in DETERMINISTIC[workload]:
        check(first[name] == again[name],
              f"{workload}: {name} repeats for one seed "
              f"({first[name]!r})")
        check(first[name] != other[name],
              f"{workload}: {name} differs for another seed "
              f"({other[name]!r})")


def main() -> int:
    check_catalogue()
    for workload, exercised in EXERCISED.items():
        check_emission(workload, 0)
        layers = check_emission(workload, 1)
        for name in exercised:
            check(layers[name]["value"] > 0,
                  f"{workload}: {name} is measured")
    for workload in DETERMINISTIC:
        check_determinism(workload)
    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
