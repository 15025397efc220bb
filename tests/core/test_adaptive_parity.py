"""Differential suite: adaptive execution must match both engines.

``execution_mode="adaptive"`` (the default) is allowed to pick a
different physical engine per query and to size its batches per plan
— but none of that may ever change an answer. Every workload family
runs under row, vectorized, and adaptive modes (semantic cache off),
and all three must agree bit-for-bit on rows (values, column order and
each cell's Python type) and on the accounting counters
``rows_scanned`` / ``rows_emitted`` / ``index_probes``.

The suite also pins the adaptive-only machinery: the cost crossover
(index probes stay row, wide scans go vectorized), the mutation
staleness trigger, and that the default engine scans on the calling
thread.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import EngineConfig, QueryEngine
from repro.core.drugtree import STALE_MIN_MUTATIONS
from repro.core.query.adaptive import choose_engine
from repro.core.query.cost import (
    MAX_VEC_BATCH,
    MIN_VEC_BATCH,
    adaptive_batch_size,
)
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    BreakerConfig,
    FaultSchedule,
    FetchScheduler,
    Outage,
    wrap_registry,
)
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS

COUNTER_KEYS = ("rows_scanned", "rows_emitted", "index_probes")


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_dataset(seed=17, n_leaves=16, n_ligands=24):
    return build_dataset(DatasetConfig(n_leaves=n_leaves,
                                       n_ligands=n_ligands, seed=seed))


def make_engine(drugtree, mode, batch_size=None, federation=None):
    kwargs = {"federation": federation} if federation else {}
    config_kwargs = {
        "use_semantic_cache": False,
        "execution_mode": mode,
    }
    if batch_size is not None:
        config_kwargs["vector_batch_size"] = batch_size
    return QueryEngine(drugtree, EngineConfig(**config_kwargs), **kwargs)


def make_trio(dataset, federated=False):
    """Row, vectorized, and adaptive engines over the same DrugTree."""
    drugtree = dataset.drugtree()
    federation = (FetchScheduler(dataset.registry)
                  if federated else None)
    return tuple(
        make_engine(drugtree, mode, federation=federation)
        for mode in ("row", "vectorized", "adaptive")
    )


def cell_types(rows):
    """Column names and cell types, row by row (``rows ==`` alone
    accepts ``np.float64``/``np.int64``/``np.bool_`` for Python
    values)."""
    return [[(name, type(value)) for name, value in row.items()]
            for row in rows]


def assert_three_way_parity(engines, query, counters=True):
    row, vec, ada = engines
    got_row = row.execute(query)
    got_vec = vec.execute(query)
    got_ada = ada.execute(query)
    assert got_vec.rows == got_row.rows, query
    assert got_ada.rows == got_row.rows, query
    assert cell_types(got_vec.rows) == cell_types(got_row.rows), query
    assert cell_types(got_ada.rows) == cell_types(got_row.rows), query
    if counters:
        for key in COUNTER_KEYS:
            baseline = got_row.counters.get(key, 0)
            assert got_vec.counters.get(key, 0) == baseline, (key, query)
            assert got_ada.counters.get(key, 0) == baseline, (key, query)
    return got_row, got_vec, got_ada


class TestWorkloadFamilies:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_generated_queries_match(self, kind, seed):
        dataset = make_dataset(seed=seed)
        engines = make_trio(dataset)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=seed)
        for _ in range(3):
            query = generator.draw(kind)
            got_row, _, got_ada = assert_three_way_parity(engines, query)
            assert got_ada.degraded == got_row.degraded

    def test_all_kinds_on_one_engine_trio(self):
        dataset = make_dataset(seed=7)
        engines = make_trio(dataset)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=7)
        for kind in ALL_KINDS:
            assert_three_way_parity(engines, generator.draw(kind))

    def test_float_folds_bit_identical_across_batches(self):
        """Aggregation means/sums must not drift with batch size."""
        dataset = make_dataset(seed=13, n_leaves=20, n_ligands=30)
        drugtree = dataset.drugtree()
        reference = make_engine(drugtree, "row")
        dtql = ("SELECT organism, count(*), mean(p_affinity), "
                "min(logp), max(logp) FROM bindings "
                "GROUP BY organism ORDER BY organism")
        expected = reference.execute(dtql).rows
        # Tiny explicit batches split the fused fold into many chunks.
        for engine in (make_engine(drugtree, "adaptive"),
                       make_engine(drugtree, "vectorized", batch_size=16)):
            got = engine.execute(dtql).rows
            assert got == expected
            assert cell_types(got) == cell_types(expected)


class TestDtqlParity:
    QUERIES = (
        "SELECT count(*) FROM bindings",
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        "FROM bindings WHERE potent = true",
        "SELECT organism, count(*), mean(p_affinity) FROM bindings "
        "GROUP BY organism ORDER BY organism",
        "SELECT ligand_id, p_affinity FROM bindings "
        "WHERE p_affinity >= 6.5 ORDER BY p_affinity DESC LIMIT 10",
        "SELECT protein_id, ligand_id FROM bindings "
        "WHERE organism = 'Homo sapiens' AND logp <= 3.0",
    )

    @pytest.mark.parametrize("dtql", QUERIES)
    def test_dtql_parity(self, dtql):
        dataset = make_dataset(seed=23)
        engines = make_trio(dataset)
        assert_three_way_parity(engines, dtql)


class TestFederatedParity:
    REMOTE_QUERY = "SELECT protein_id, method FROM proteins"

    def test_remote_detail_fallback_matches(self):
        dataset = make_dataset(seed=17, n_leaves=12, n_ligands=12)
        engines = make_trio(dataset, federated=True)
        got_row, _, got_ada = assert_three_way_parity(
            engines, self.REMOTE_QUERY, counters=False)
        assert got_ada.rows

    def _resilient_engine(self, mode):
        dataset = make_dataset(seed=17, n_leaves=12, n_ligands=12)
        registry = wrap_registry(dataset.registry, {
            "pdb-sim": FaultSchedule([Outage(0.0, 1000.0)]),
        })
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=3),
        )
        return QueryEngine(
            dataset.drugtree(),
            EngineConfig(use_semantic_cache=False, execution_mode=mode),
            federation=scheduler,
        )

    def test_degraded_path_matches(self):
        row = self._resilient_engine("row")
        ada = self._resilient_engine("adaptive")
        got_row = row.execute(self.REMOTE_QUERY)
        got_ada = ada.execute(self.REMOTE_QUERY)
        assert got_ada.rows == got_row.rows
        assert cell_types(got_ada.rows) == cell_types(got_row.rows)
        assert got_ada.resilience == got_row.resilience
        assert got_ada.degraded == got_row.degraded
        assert got_ada.degraded is True


class TestAdaptiveChoice:
    def test_wide_scan_goes_vectorized(self):
        dataset = make_dataset(seed=23, n_leaves=20, n_ligands=30)
        engine = make_engine(dataset.drugtree(), "adaptive")
        report = engine.analyze(
            "SELECT count(*) FROM bindings WHERE potent = true")
        assert report.execution["mode"] == "vectorized"
        assert report.execution["requested"] == "adaptive"
        assert report.execution["vec_cost"] < report.execution["row_cost"]
        assert report.execution["fused"] >= 1
        rendered = report.render()
        assert "-- execution: mode=vectorized (adaptive)" in rendered
        assert "-- execution: chose vectorized:" in rendered

    def test_index_point_lookup_stays_row(self):
        dataset = make_dataset(seed=23, n_leaves=20, n_ligands=30)
        drugtree = dataset.drugtree()
        engine = make_engine(drugtree, "adaptive")
        ligand = next(iter(drugtree.tables["ligands"].scan()))[1][0]
        report = engine.analyze(
            f"SELECT * FROM bindings WHERE ligand_id = '{ligand}'")
        assert report.execution["mode"] == "row"
        assert report.execution["requested"] == "adaptive"
        assert report.execution["row_cost"] <= report.execution["vec_cost"]
        assert "chose row:" in report.render()

    def test_explicit_modes_have_no_adaptive_keys(self):
        dataset = make_dataset(seed=23)
        drugtree = dataset.drugtree()
        row = make_engine(drugtree, "row")
        report = row.analyze("SELECT count(*) FROM bindings")
        assert report.execution == {"mode": "row"}

    def test_choose_engine_unit(self):
        dataset = make_dataset(seed=23, n_leaves=20, n_ligands=30)
        drugtree = dataset.drugtree()
        engine = make_engine(drugtree, "adaptive")
        from repro.core.query import parse_query
        plan = engine.planner.plan(
            parse_query("SELECT count(*) FROM bindings"))
        choice = choose_engine(plan.logical, engine.planner.estimator)
        assert choice.mode == "vectorized"
        assert choice.row_cost > choice.vec_cost
        assert MIN_VEC_BATCH <= choice.batch_size <= MAX_VEC_BATCH

    def test_adaptive_batch_size_scales(self):
        assert adaptive_batch_size(10) == MIN_VEC_BATCH
        assert adaptive_batch_size(100_000) == MAX_VEC_BATCH
        mid = adaptive_batch_size(10_000)
        assert MIN_VEC_BATCH < mid <= MAX_VEC_BATCH


class TestMutationReanalyze:
    def test_mutations_trigger_reanalyze_and_invalidation(self):
        dataset = make_dataset(seed=41, n_leaves=12, n_ligands=16)
        drugtree = dataset.drugtree()
        engines = make_trio(dataset)
        _, _, ada = engines
        dtql = ("SELECT ligand_id, p_affinity FROM bindings "
                "WHERE p_affinity >= 6.0")
        assert_three_way_parity(engines, dtql)
        epoch_before = drugtree.stats_epoch
        count_dtql = ("SELECT count(*) FROM bindings "
                      "WHERE p_affinity >= 9.0")
        base_count = ada.execute(count_dtql).rows[0]["count_all"]

        table = drugtree.tables["bindings"]
        template = table.schema.row_as_dict(next(iter(table.scan()))[1])
        rows_before = table.row_count
        for i in range(STALE_MIN_MUTATIONS + 1):
            fresh = dict(template)
            fresh["ligand_id"] = f"lig_mut_{i}"
            fresh["p_affinity"] = 9.0 + i / 100.0
            table.insert(fresh)
        assert "bindings" in drugtree.stale_tables()

        # The next statistics read re-ANALYZEs the stale table...
        stats = drugtree.statistics["bindings"]
        assert stats.row_count == rows_before + STALE_MIN_MUTATIONS + 1
        assert drugtree.stats_epoch > epoch_before
        assert drugtree.stale_tables() == []
        # ...and all three engines still agree on the mutated data.
        assert_three_way_parity(engines, dtql)
        got = ada.execute(count_dtql)
        assert got.rows[0]["count_all"] == \
            base_count + STALE_MIN_MUTATIONS + 1


class TestCallingThread:
    WIDE_QUERIES = (
        # scan_agg and filter_project over a seq scan several batches wide.
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        "FROM bindings WHERE potent = true",
        "SELECT ligand_id, p_affinity FROM bindings WHERE potent = true",
    )

    def test_default_engine_creates_no_thread(self, monkeypatch):
        dataset = make_dataset(seed=23, n_leaves=20, n_ligands=30)
        engine = QueryEngine(dataset.drugtree())

        def refuse(*args, **kwargs):
            raise AssertionError("query execution left the calling thread")

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        for dtql in self.WIDE_QUERIES:
            report = engine.analyze(dtql)
            assert report.execution["mode"] == "vectorized", dtql
            assert report.execution["fused"] == 1, dtql
            assert (report.counters["rows_scanned"]
                    > report.execution["batch_size"]), dtql
