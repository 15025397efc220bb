"""Optimized-vs-naive engine equivalence.

The central correctness claim of the reproduction: for every query the
workload generator can produce, the optimized engine (all mechanisms on)
and the naive federated engine return the same rows — they differ only
in what producing them costs.
"""

import pytest

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.workloads import (
    DatasetConfig,
    QueryGenerator,
    WorkloadConfig,
    build_dataset,
)


@pytest.fixture(scope="module")
def world():
    dataset = build_dataset(DatasetConfig(n_leaves=18, n_ligands=35,
                                          seed=21))
    drugtree = dataset.drugtree()
    optimized = QueryEngine(drugtree)
    naive = NaiveEngine(dataset.tree, dataset.registry)
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=3)
    return dataset, optimized, naive, generator


def _canonical(rows):
    def freeze(row):
        return tuple(sorted(
            (key, round(value, 9) if isinstance(value, float) else value)
            for key, value in row.items()
        ))
    return sorted(map(freeze, rows))


class TestGeneratedWorkloadEquivalence:
    @pytest.mark.parametrize("kind", [
        "subtree_filter", "clade_agg", "organism_filter",
        "property_range", "similarity", "join",
    ])
    def test_each_kind_agrees(self, world, kind):
        dataset, optimized, naive, generator = world
        for _ in range(4):
            query = generator.draw(kind)
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert _canonical(fast.rows) == _canonical(slow.rows), \
                f"{kind} query diverged: {query}"

    def test_topk_agrees_on_returned_key_values(self, world):
        # Top-k ties may resolve differently; compare the ordered score
        # column rather than full rows.
        dataset, optimized, naive, generator = world
        for _ in range(4):
            query = generator.draw("topk")
            fast = optimized.execute(query)
            slow = naive.execute(query)
            fast_scores = [round(r["p_affinity"], 9) for r in fast.rows]
            slow_scores = [round(r["p_affinity"], 9) for r in slow.rows]
            assert fast_scores == slow_scores

    def test_mixed_workload_agrees(self, world):
        dataset, optimized, naive, generator = world
        workload = generator.workload(WorkloadConfig(n_queries=20,
                                                     seed=11))
        for query in workload:
            if query.order_by is not None and query.limit is not None:
                continue  # covered by the top-k comparison above
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert _canonical(fast.rows) == _canonical(slow.rows), \
                f"diverged on: {query}"

    def test_having_queries_agree(self, world):
        dataset, optimized, naive, generator = world
        text = (
            "SELECT organism, count(*), max(p_affinity) "
            "FROM bindings, proteins GROUP BY organism "
            "HAVING count_all >= 5"
        )
        fast = optimized.execute(text)
        slow = naive.execute(text)
        assert _canonical(fast.rows) == _canonical(slow.rows)

    def test_navigation_session_agrees_and_caches(self, world):
        dataset, optimized, naive, generator = world
        session = generator.navigation_session(steps=8)
        outcomes = []
        for query in session:
            fast = optimized.execute(query)
            slow = naive.execute(query)
            assert _canonical(fast.rows) == _canonical(slow.rows)
            outcomes.append(fast.cache_outcome)
        # Drill-down sessions must produce at least one cache hit.
        assert any(outcome in ("exact", "subsumed")
                   for outcome in outcomes)


class TestRangeBoundTies:
    """A subtree's ``leaf_pre < high`` bound tying a user bound
    ``leaf_pre <= high`` must keep the exclusive one in the index
    range scan, under every execution mode."""

    CASES = (
        ("SELECT * WHERE leaf_pre BETWEEN 4 AND 11 "
         "IN SUBTREE 'prot_0001'", 25),
        ("SELECT * WHERE leaf_pre <= 17 IN SUBTREE 'clade_0016'", 52),
    )

    @pytest.mark.parametrize("mode", ["row", "vectorized", "adaptive"])
    @pytest.mark.parametrize("text,expected", CASES)
    def test_matches_naive(self, world, mode, text, expected):
        dataset, _, naive, _ = world
        engine = QueryEngine(dataset.drugtree(),
                             EngineConfig(execution_mode=mode))
        fast = engine.execute(text)
        slow = naive.execute(text)
        assert len(slow.rows) == expected
        assert _canonical(fast.rows) == _canonical(slow.rows)


class TestCostAsymmetry:
    def test_naive_pays_remote_latency_every_query(self, world):
        dataset, optimized, naive, generator = world
        query = generator.draw("subtree_filter")
        slow = naive.execute(query)
        fast = optimized.execute(query)
        assert slow.roundtrips > 0
        assert slow.virtual_latency_s > 0
        # The optimized engine runs entirely on the integrated overlay.
        assert fast.counters.get("rows_scanned", 0) >= 0
        before = dataset.registry.combined_stats()["roundtrips"]
        optimized.execute(query)
        after = dataset.registry.combined_stats()["roundtrips"]
        assert after == before  # zero remote traffic

    def test_naive_traversal_visits_nodes(self, world):
        dataset, _, naive, generator = world
        query = generator.draw("clade_agg")
        result = naive.execute(query)
        assert result.nodes_visited > 0
