"""E15 — adaptive execution vs explicit row / vectorized modes.

E13 showed the vectorized engine winning 4.9–11.3x on scan-heavy
families — but only when callers opted in with
``execution_mode="vectorized"``. E15 measures the zero-knob default:
``EngineConfig()`` now resolves to adaptive execution, which prices
every plan in both row and vectorized terms from live table
statistics and fuses scan->filter->project and scan->filter->aggregate
pipelines into single compiled passes, all on the calling thread.

Two claims are under test, both with *no configuration at all*:

* the scan-heavy families (scalar aggregate, grouped aggregate,
  filter+project) must run at least as fast as the explicit
  vectorized engine — adaptive inherits E13's speedup and the fused
  pipelines add to it;
* the index point-lookup family must *not* regress: a few-match probe
  prices below the vectorized batch setup and stays on the row engine
  (at larger scales the same probe matches more rows and adaptive
  rightly flips it), so its latency never trails row mode by more
  than noise (< 5%).

Result sets are asserted identical across all three modes before any
timing is trusted, and the chosen engine per family is recorded so
the crossover itself is part of the published numbers.
"""

from __future__ import annotations

import gc
import random

from repro.core import DrugTree, EngineConfig, QueryEngine
from repro.obs import WallTimer
from repro.workloads import TextTable, make_family

WORLD_SEED = 501
N_LEAVES = 24
SCALES = (10_000, 100_000)
REPEATS = 3
#: Point lookups finish in microseconds; take the best of more runs so
#: the <5% regression bound measures the engine, not scheduler noise.
PROBE_REPEATS = 40

#: ``repro bench --quick`` runs this CI-sized variant.
QUICK_KWARGS = {"scales": (2_000,), "repeats": 2}

#: family name -> DTQL text. The scan families are E13's; the probe
#: family hits the ligand_id hash index with a single-ligand equality.
SCAN_FAMILIES: dict[str, str] = {
    "scan_agg": (
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        "FROM bindings WHERE potent = true"
    ),
    "group_by": (
        "SELECT activity_type, count(*), mean(p_affinity) "
        "FROM bindings GROUP BY activity_type ORDER BY activity_type"
    ),
    "filter_project": (
        "SELECT ligand_id, p_affinity FROM bindings "
        "WHERE p_affinity >= 6.5 AND potent = true"
    ),
}
PROBE_FAMILY = "point_lookup"
PROBE_DTQL = ("SELECT ligand_id, protein_id, p_affinity FROM bindings "
              "WHERE ligand_id = 'lig_0042'")

_ACTIVITY_TYPES = ("Ki", "Kd", "IC50", "EC50")


def build_world(n_rows: int, seed: int = WORLD_SEED) -> DrugTree:
    """A DrugTree whose bindings table holds *n_rows* synthetic rows."""
    family = make_family(N_LEAVES, seed=seed)
    tree = DrugTree(family.tree)
    for protein_id in family.protein_ids:
        tree.add_protein(
            protein_id,
            organism=family.organisms[protein_id],
            family=family.families[protein_id],
        )
    bindings = tree.tables["bindings"]
    leaf_pre = {
        protein_id: tree.labeling.leaf_position(protein_id)
        for protein_id in family.protein_ids
    }
    protein_ids = family.protein_ids
    rng = random.Random(seed + 1)
    for i in range(n_rows):
        protein_id = protein_ids[i % len(protein_ids)]
        p_affinity = round(rng.uniform(3.0, 10.0), 3)
        bindings.insert({
            "ligand_id": f"lig_{i % 997:04d}",
            "protein_id": protein_id,
            "activity_type": _ACTIVITY_TYPES[i % len(_ACTIVITY_TYPES)],
            "value_nm": round(10.0 ** (9 - p_affinity), 4),
            "p_affinity": p_affinity,
            "potent": p_affinity >= 6.0,
            "leaf_pre": leaf_pre[protein_id],
        })
    # The probe family needs the standard physical design; the scan
    # families ignore the indexes (no scan predicate is indexed).
    bindings.create_index(["ligand_id"], kind="hash")
    tree.refresh_statistics()  # the auto-ANALYZE, outside the timers
    return tree


def _engine(tree: DrugTree, mode: str | None) -> QueryEngine:
    """mode=None is the point of E15: a zero-knob EngineConfig."""
    if mode is None:
        return QueryEngine(tree, EngineConfig(use_semantic_cache=False))
    return QueryEngine(tree, EngineConfig(
        use_semantic_cache=False, execution_mode=mode))


def _best_wall_s(engine: QueryEngine, dtql: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        with WallTimer() as timer:
            engine.execute(dtql)
        best = min(best, timer.elapsed_s)
    return best


def _paired_best_wall_s(engines, dtql: str, repeats: int) -> list[float]:
    """Best-of timings with the engines interleaved per round.

    Point lookups finish in microseconds, where run-to-run machine
    drift dwarfs any real engine delta. Two measures keep the <5%
    bound honest about the *engines*: the order rotates every round so
    no engine sits in a slot that periodic interference (notably
    CPython's allocation-triggered GC) happens to align with, and GC
    is paused outright for the duration — a collection mid-probe adds
    tens of microseconds to a ~200us query, swamping the dispatch
    overhead under test.
    """
    order = list(range(len(engines)))
    bests = [float("inf")] * len(engines)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_no in range(repeats):
            for slot in range(len(order)):
                i = order[(slot + round_no) % len(order)]
                with WallTimer() as timer:
                    engines[i].execute(dtql)
                bests[i] = min(bests[i], timer.elapsed_s)
    finally:
        if gc_was_enabled:
            gc.enable()
    return bests


def run_scale(n_rows: int, repeats: int = REPEATS) -> dict:
    """All three modes over every family at one scale."""
    tree = build_world(n_rows)
    row_engine = _engine(tree, "row")
    vec_engine = _engine(tree, "vectorized")
    ada_engine = _engine(tree, None)  # zero knobs: defaults to adaptive
    tree.tables["bindings"].column_store()  # materialize outside timing
    results: dict[str, dict[str, float]] = {}
    families = dict(SCAN_FAMILIES)
    families[PROBE_FAMILY] = PROBE_DTQL
    for name, dtql in families.items():
        row_answer = row_engine.execute(dtql)
        vec_answer = vec_engine.execute(dtql)
        ada_answer = ada_engine.execute(dtql)
        if not (ada_answer.rows == vec_answer.rows == row_answer.rows):
            raise AssertionError(
                f"E15 {name}@{n_rows}: modes disagree; timing void")
        chosen = ada_engine.analyze(dtql).execution["mode"]
        if name == PROBE_FAMILY:
            row_s, vec_s, ada_s = _paired_best_wall_s(
                (row_engine, vec_engine, ada_engine), dtql,
                PROBE_REPEATS)
        else:
            row_s = _best_wall_s(row_engine, dtql, repeats)
            vec_s = _best_wall_s(vec_engine, dtql, repeats)
            ada_s = _best_wall_s(ada_engine, dtql, repeats)
        results[name] = {
            "rows": n_rows,
            "result_rows": len(row_answer.rows),
            "chosen_mode": chosen,
            "row_s": row_s,
            "vectorized_s": vec_s,
            "adaptive_s": ada_s,
            "speedup_vs_row": row_s / ada_s if ada_s > 0
            else float("inf"),
        }
    return results


def collect_metrics(scales: tuple[int, ...] = SCALES,
                    repeats: int = REPEATS) -> dict:
    """E15 numbers in the shape ``repro bench`` merges into
    ``BENCH_METRICS.json``: per-scale per-family timings under all
    three modes, the engine adaptive chose, and the headline speedup
    (scan_agg at the largest scale, zero knobs)."""
    by_scale = {str(n): run_scale(n, repeats=repeats) for n in scales}
    largest = str(max(scales))
    probe = by_scale[largest][PROBE_FAMILY]
    return {
        "scales": by_scale,
        "headline": {
            "family": "scan_agg",
            "rows": max(scales),
            "speedup": by_scale[largest]["scan_agg"]["speedup_vs_row"],
            "probe_overhead": (probe["adaptive_s"] / probe["row_s"]
                               if probe["row_s"] > 0 else 1.0),
        },
    }


def test_e15_adaptive_speedup(benchmark, report):
    def sweep():
        return collect_metrics()

    metrics = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["rows", "family", "chose", "row ms", "vectorized ms",
         "adaptive ms", "speedup"],
        title="E15  adaptive (zero knobs) vs explicit modes (best of "
              f"{REPEATS}, identical results asserted)",
    )
    for n_rows, families in metrics["scales"].items():
        for name, numbers in families.items():
            table.add_row(
                n_rows, name, numbers["chosen_mode"],
                f"{numbers['row_s'] * 1000:.2f}",
                f"{numbers['vectorized_s'] * 1000:.2f}",
                f"{numbers['adaptive_s'] * 1000:.2f}",
                f"{numbers['speedup_vs_row']:.2f}x",
            )
    report(table)
    largest = str(max(SCALES))
    smallest = str(min(SCALES))
    families = metrics["scales"][largest]
    # The crossover itself: wide scans go vectorized at every scale; a
    # genuinely small probe (~10 matches at the 10k scale) stays row.
    # At 100k the same ligand matches ~100 rows and adaptive rightly
    # flips it to vectorized — the choice tracks the data, not the
    # query text.
    for name in SCAN_FAMILIES:
        assert families[name]["chosen_mode"] == "vectorized", name
    assert metrics["scales"][smallest][PROBE_FAMILY]["chosen_mode"] \
        == "row"
    # Adaptive must not trail the explicit vectorized engine on the
    # scan families (it fuses what E13 still pipelines)...
    scan_agg = families["scan_agg"]
    assert scan_agg["adaptive_s"] <= scan_agg["vectorized_s"] * 1.10
    assert metrics["headline"]["speedup"] >= 3.0
    # ...and point lookups must never pay for the batch machinery:
    # < 5% of row-engine latency at every scale, whichever engine won.
    for scale in metrics["scales"].values():
        probe = scale[PROBE_FAMILY]
        assert probe["adaptive_s"] <= probe["row_s"] * 1.05, probe


def test_e15_small_scale_parity_is_cheap(report):
    """A CI-sized guard: the 2k-row sweep still agrees and speeds up."""
    results = run_scale(2_000, repeats=2)
    assert results["scan_agg"]["speedup_vs_row"] > 1.0
    assert results["scan_agg"]["chosen_mode"] == "vectorized"
    assert results[PROBE_FAMILY]["chosen_mode"] == "row"
