"""One workload in one fresh process: set up, run, check, report.

Started by run.py, never by hand. Prints one JSON object as its last
line of standard output. With ``--setup-only`` it stops after the
first answered request and reports the set-up timings alone.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _layer_metrics(workload, marks: dict, spawned: float) -> dict:
    """Per-layer figures of a traced run (0 where a layer is unused)."""
    from catalogue import LAYERS, PER_LAYER
    from stats import quantile, self_times, summary
    rec = workload.rec
    out = workload.outcome
    spans = rec.spans
    selfs = self_times(spans)
    executes = rec.count("query.execute")
    ops = max(rec.op, 1)
    layer_self: dict[str, float] = {}
    exec_self = []
    family_ms: dict[str, list[float]] = {}
    for name, start, end, _, op, span_id in spans:
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[span_id]
        if name == "query.execute":
            exec_self.append(selfs[span_id] * 1e3)
            family = out.family_of_op.get(op)
            if family is not None:
                family_ms.setdefault(family, []).append(
                    (end - start) * 1e3)

    def p50(name, scale=1e3):
        return quantile(rec.durations(name, scale), 0.5)

    def per(count, base):
        return count / base if base else 0.0

    render = summary(rec.durations("mobile.navigate"))
    query = summary(rec.durations("mobile.query"))
    inserts = summary(rec.durations("storage.insert", 1e6))
    exec_summary = summary(exec_self)
    # Calibration kernels run inside serving.run, between taps; they
    # are the benchmark's own time, not the serving layer's.
    runs = [(s[1], s[2]) for s in spans if s[0] == "serving.run"]
    meter = workload.speed
    kernels = sum(d for s, d in zip(meter.starts, meter.durations)
                  if any(lo <= s < hi for lo, hi in runs))
    serving_self = sum(selfs[s[5]] for s in spans
                       if s[0] == "serving.run") - kernels
    if runs:
        layer_self["serving"] -= kernels
    metrics = {
        "serving.self_us_per_tap": per(serving_self * 1e6, rec.op)
        if runs else 0.0,
        "mobile.render_ms.p50": render["p50"],
        "mobile.render_ms.p99": render["tail"],
        "mobile.query_ms.p50": query["p50"],
        "mobile.query_ms.p99": query["tail"],
        "mobile.details_ms.p50": p50("mobile.details"),
        "mobile.lod_ms.p50": p50("mobile.lod"),
        "mobile.encode_ms.p50": p50("mobile.encode"),
        "analysis.check_ms.p50": p50("analysis.check"),
        "analysis.checks_per_query":
            per(rec.count("analysis.check"), executes),
        "query.parse_ms.p50": p50("query.parse"),
        "query.parses_per_query": per(rec.count("query.parse"), executes),
        "query.plan_ms.p50": p50("query.plan"),
        "query.exec_self_ms.p50": exec_summary["p50"],
        "query.exec_self_ms.p99": exec_summary["tail"],
        "cache.lookup_ms.p50": p50("cache.lookup"),
        "cache.invalidations_per_write":
            per(rec.count("cache.invalidate"), out.writes),
        "sources.fetch_ms.p50": p50("sources.fetch"),
        "storage.insert_us.p50": inserts["p50"],
        "storage.insert_us.p99": inserts["tail"],
        "storage.delete_us.p50": p50("storage.delete", 1e6),
        "storage.analyzes_per_1k_writes":
            per(1000.0 * rec.count("storage.analyze"), out.writes),
        "storage.analyze_ms.p50": p50("storage.analyze"),
        "setup.import_s": marks["imported"] - spawned,
        "setup.build_s": marks["built"] - marks["imported"],
        "setup.integrate_s": marks["integrated"] - marks["built"],
        "setup.integrate_roundtrips": marks["integrate_roundtrips"],
        "setup.first_request_ms": 1e3 * (marks["first"]
                                         - marks["integrated"]),
        "setup.warmup_s": marks["warmed"] - marks["first"],
    }
    for family, values in family_ms.items():
        metrics[f"query.family.{family}_ms.p50"] = quantile(values, 0.5)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = \
            1e3 * layer_self.get(layer, 0.0) / ops
    metrics.update(workload.query_layers())
    metrics.update(out.layers)
    table = {layer: round(1e3 * layer_self.get(layer, 0.0) / ops, 6)
             for layer in LAYERS}
    return ({name: metrics.get(name, 0.0) for name, *_ in PER_LAYER},
            table)


def _round_metrics(workload, result: dict) -> dict:
    """Timing metrics: the median over rounds of each round's value,
    in reference time (speed.py).

    Records each round's sample counts and tail percentiles in
    ``result["samples"]``, and the same metrics in raw wall time in
    ``result["wall"]``.
    """
    from statistics import median
    from stats import summary
    out = workload.outcome
    seconds_of = workload.speed.seconds
    executes = [(span[4], seconds_of(span[1], span[2]) * 1e3,
                 (span[2] - span[1]) * 1e3)
                for span in workload.rec.spans if span[0] == "query.execute"]
    per_round: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    samples = []
    for first, last, busy_s, busy_wall_s in out.rounds:
        mine = [op for op in out.op_ms if first <= op <= last]
        queries = [e for e in executes if first <= e[0] <= last]
        op = summary([out.op_ms[op_id] for op_id in mine])
        query = summary([e[1] for e in queries])
        samples.append({"op_ms": [op["n"], op["tail_q"]],
                        "query_ms": [query["n"], query["tail_q"]]})
        for into, op, query, busy in (
                (per_round, op, query, busy_s),
                (wall, summary([out.op_wall_ms[i] for i in mine]),
                 summary([e[2] for e in queries]), busy_wall_s)):
            for name, value in (("ops_per_s", len(mine) / busy),
                                ("op_ms.p50", op["p50"]),
                                ("op_ms.p99", op["tail"]),
                                ("query_ms.p50", query["p50"]),
                                ("query_ms.p99", query["tail"])):
                into.setdefault(name, []).append(value)
    result["samples"] = samples
    result["wall"] = {name: median(values)
                      for name, values in wall.items()}
    return {name: median(values) for name, values in per_round.items()}


def _write_spans(rec, path: str) -> None:
    """Write the recorded spans out as columns (numpy ``.npz``)."""
    import numpy as np
    names = sorted({span[0] for span in rec.spans})
    index = {name: i for i, name in enumerate(names)}
    columns = list(zip(*rec.spans)) or [()] * 6
    np.savez(path, names=np.array(names, dtype=str),
             name=np.array([index[n] for n in columns[0]], dtype=np.int16),
             start=np.array(columns[1], dtype=np.float64),
             end=np.array(columns[2], dtype=np.float64),
             parent=np.array(columns[3], dtype=np.int64),
             op=np.array(columns[4], dtype=np.int64),
             span=np.array(columns[5], dtype=np.int64))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, default=STARTED,
                        help="time.monotonic() when run.py spawned us")
    parser.add_argument("--max-run-s", type=float, required=True,
                        help="cap on the measured window, seconds")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for durable stores")
    parser.add_argument("--spans", help="where a traced run writes spans")
    args = parser.parse_args()

    import repro  # noqa: F401  (timed: the program's import cost)
    import probes
    import workloads
    marks = {"imported": time.monotonic()}

    workload = workloads.WORKLOADS[args.workload](
        args.seed, probes.Recorder(), bool(args.trace), args.workdir)
    # Set-up is timed on the monotonic clock (it starts in run.py);
    # the speed calibrations on the performance counter.
    to_perf = time.perf_counter() - time.monotonic()
    workload.speed.burst()
    try:
        workload.setup(marks)
        workload.speed.burst()
        setup_wall_s = marks["first"] - args.spawned
        setup_s = workload.speed.seconds(args.spawned + to_perf,
                                         marks["first"] + to_perf)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "setup_wall_s": setup_wall_s}))
            return 0
        workload.warm()
        marks["warmed"] = time.monotonic()
        workload.run(args.seconds, args.max_run_s)
        # Peak so far: the correctness checks that follow are the
        # benchmark's own work and must not count.
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workload.check()
    finally:
        workload.close()

    out = workload.outcome
    attempted = max(out.attempted, 1)
    result = {
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "describe": dict(out.describe, speed=workload.speed.summary()),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "unit_costs": out.unit_costs or list(out.op_ms.values()),
        "e2e": {
            "ok_ratio": max(0, out.attempted - out.failed) / attempted,
            "rss_peak_mb": rss_kib / 1024,
            "goodput": out.goodput if out.goodput is not None
            else out.within_limit / attempted,
        },
    }
    result["e2e"].update(_round_metrics(workload, result))
    if args.trace:
        result["layers"], result["self_ms_per_op"] = _layer_metrics(
            workload, marks, args.spawned)
        _write_spans(workload.rec, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
