"""The optimized query engine: plan, cache, execute, meter.

:class:`QueryEngine` is the "after" system of the poster: it wires the
planner, the semantic cache, the similarity search and the physical
operators over one :class:`~repro.core.drugtree.DrugTree`, and reports
per-query metrics (rows touched, cache outcome, wall time) that the
benchmarks aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chem.fingerprint import circular_fingerprint, tanimoto
from repro.chem.smiles import parse_smiles
from repro.core.drugtree import DrugTree
from repro.chem.substructure import SubstructurePattern, filter_library
from repro.core.query.ast import (
    REMOTE_DETAIL_COLUMNS,
    Query,
    SimilarityFilter,
    SubstructureFilter,
)
from repro.core.query.cache import SemanticCache
from repro.core.query.cards import CardinalityEstimator
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalCladeAggregate,
    LogicalEmpty,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalOrder,
    LogicalProject,
    LogicalScan,
)
from repro.core.query.parser import parse_query
from repro.core.query.physical import (
    EmptyOp,
    ExecCounters,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    IndexEqScanOp,
    IndexRangeScanOp,
    KeySetScanOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOp,
    ProjectOp,
    RemoteFetchOp,
    SeqScanOp,
    SortOp,
    StaticRowsOp,
    TopKOp,
)
from repro.core.query.planner import Planner, PlannerConfig, PlanReport
from repro.errors import (
    BorrowTimeoutError,
    PlanError,
    QueryError,
    SourceError,
)
from repro.obs import (
    AnalyzeReport,
    InstrumentedOp,
    OperatorStats,
    WallTimer,
    get_metrics,
    get_tracer,
)
from repro.sources.resilience import STATUS_FRESH, Deadline
from repro.storage.index import SortedIndex


@dataclass(frozen=True)
class EngineConfig:
    """All optimizer/engine feature toggles (ablation knobs)."""

    use_indexes: bool = True
    use_interval_labeling: bool = True
    use_materialized_aggregates: bool = True
    use_semantic_cache: bool = True
    #: Run the typed-catalog semantic pass (repro.analysis.dtql) on
    #: every query: reject type/name errors before any work, and answer
    #: provably-empty WHERE clauses without planning, scanning, or any
    #: source round-trip.
    use_semantic_analysis: bool = True
    use_fingerprint_prefilter: bool = True
    use_substructure_screen: bool = True
    join_strategy: str = "dp"
    join_method: str = "hash"
    cache_capacity: int = 128
    #: Rows buffered per scatter/gather batch when a query projects
    #: remote detail columns (see REMOTE_DETAIL_COLUMNS).
    remote_lookahead: int = 64
    #: ``"adaptive"`` (the default: statistics pick row or vectorized
    #: per plan — see docs/EXECUTION.md), ``"row"`` (volcano
    #: iterators), or ``"vectorized"`` (batch-at-a-time over columnar
    #: projections). Results are identical in every mode; see
    #: docs/VECTORIZED.md for the parity contract.
    execution_mode: str = "adaptive"
    #: Rows per batch in explicit ``"vectorized"`` mode. Adaptive mode
    #: ignores it: there the batch size comes from
    #: ``cost.adaptive_batch_size`` over the plan's widest scan.
    vector_batch_size: int = 1024

    def __post_init__(self) -> None:
        if self.execution_mode not in ("adaptive", "row", "vectorized"):
            raise QueryError(
                f"unknown execution mode {self.execution_mode!r} "
                "(known: 'adaptive', 'row', 'vectorized')"
            )
        if self.vector_batch_size < 1:
            raise QueryError("vector_batch_size must be positive")

    def planner_config(self) -> PlannerConfig:
        return PlannerConfig(
            use_indexes=self.use_indexes,
            use_interval_labeling=self.use_interval_labeling,
            use_materialized_aggregates=self.use_materialized_aggregates,
            join_strategy=self.join_strategy,
            join_method=self.join_method,
        )


@dataclass
class QueryResult:
    """Rows plus everything the experiments need to know about the run."""

    rows: list[dict[str, Any]]
    plan: PlanReport | None = None
    #: "miss" | "exact" | "subsumed" | "stale" | "off"
    cache_outcome: str = "miss"
    counters: dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    similarity_candidates: int = 0
    substructure_candidates: int = 0
    #: Record kind -> fresh/partial/missing when the resilient fetch
    #: path ran; empty otherwise.
    resilience: dict[str, str] = field(default_factory=dict)
    #: True when any part of the answer is not fresh-and-complete
    #: (partial/missing remote details, or a stale cache serve).
    degraded: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows"
            )
        return next(iter(self.rows[0].values()))


class QueryEngine:
    """Cost-based engine over one DrugTree."""

    def __init__(self, drugtree: DrugTree,
                 config: EngineConfig | None = None,
                 tracer=None,
                 metrics=None,
                 federation=None) -> None:
        self.drugtree = drugtree
        self.config = config or EngineConfig()
        #: Optional :class:`~repro.sources.scheduler.FetchScheduler`;
        #: required only for queries projecting remote detail columns.
        self.federation = federation
        self.planner = Planner(
            tables=drugtree.tables,
            labeling=drugtree.labeling,
            estimator=CardinalityEstimator(drugtree.statistics,
                                           tables=drugtree.tables,
                                           metrics=metrics),
            config=self.config.planner_config(),
        )
        self.cache = SemanticCache(drugtree.labeling,
                                   capacity=self.config.cache_capacity)
        drugtree.add_mutation_listener(self.cache.invalidate)
        self.queries_executed = 0
        #: Per-engine overrides; ``None`` means the process-wide default.
        self.tracer = tracer
        self.metrics = metrics
        self._analyzer = None  # built lazily; see the analyzer property
        # Per-query fetch context, consumed by _remote_fetch_op during
        # lowering (set around plan/run, cleared in a finally).
        self._fetch_deadline: Deadline | None = None
        self._fetch_statuses: dict[str, str] | None = None
        # Adaptive execution: the last per-query engine choice (for the
        # analyze trailer).
        self._last_choice = None
        # Engine choices memoized per plan shape: a point lookup must
        # not pay a full cost walk on every execute. Dropped wholesale
        # when the statistics epoch advances.
        self._choice_cache: dict = {}
        self._choice_epoch = None
        self._adaptive_helpers = None  # lazily bound (choice_key, choose_engine)

    def _obs_tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    def _obs_metrics(self):
        return self.metrics if self.metrics is not None else get_metrics()

    @property
    def analyzer(self):
        """The engine's semantic analyzer (built on first use).

        Imported lazily: :mod:`repro.analysis` imports the query parser,
        so a module-level import here would be circular.
        """
        if self._analyzer is None:
            from repro.analysis.dtql import SemanticAnalyzer
            self._analyzer = SemanticAnalyzer()
        return self._analyzer

    # -- public API ------------------------------------------------------------

    def check(self, query: Query | str):
        """Static analysis only: the semantic report, nothing executed."""
        return self.analyzer.check(query)

    def _analyze_query(self, query: Query, text: str | None):
        """Run the pre-plan semantic pass; errors stop the query here."""
        if not self.config.use_semantic_analysis:
            return None
        report = self.analyzer.check(query, text=text)
        if report.errors:
            raise QueryError(
                "semantic analysis rejected query: "
                + "; ".join(d.render() for d in report.errors)
            )
        return report

    def _empty_rows(self, query: Query) -> list[dict[str, Any]]:
        from repro.analysis.dtql import empty_result_rows
        return empty_result_rows(query)

    def _as_deadline(self, deadline) -> Deadline | None:
        """Accept a :class:`Deadline` or a float budget in virtual
        seconds (the convenient form for mobile taps and the CLI)."""
        if deadline is None or isinstance(deadline, Deadline):
            return deadline
        clock = getattr(self.federation, "clock", None)
        if clock is None:
            raise QueryError(
                "a numeric deadline needs a federated engine "
                "(the budget is measured on the scheduler's clock)"
            )
        return Deadline(clock, float(deadline))

    def _resilience_active(self, deadline) -> bool:
        """Degrade-don't-raise applies when the caller set a deadline
        or the scheduler runs circuit breakers; plain engines keep the
        historical raise-on-fault behaviour (and zero overhead)."""
        if self.federation is None:
            return False
        return (deadline is not None
                or getattr(self.federation, "breakers", None) is not None)

    def execute(self, query: Query | str,
                deadline: Deadline | float | None = None) -> QueryResult:
        """Run a query (AST or DTQL text).

        With *deadline* (a :class:`Deadline` or a virtual-seconds
        budget), remote fetches are cancelled once the budget is gone
        and the answer degrades — per-kind statuses in
        :attr:`QueryResult.resilience` — instead of stalling. When live
        execution fails entirely, the engine serves the last known
        result from the semantic cache's stale store, flagged
        ``cache_outcome == "stale"``.
        """
        text = query if isinstance(query, str) else None
        if isinstance(query, str):
            query = parse_query(query)
        tracer = self._obs_tracer()
        metrics = self._obs_metrics()
        timer = WallTimer().start()
        self.queries_executed += 1
        metrics.counter("query.executed").inc()

        with tracer.span("query.execute") as span:
            report = self._analyze_query(query, text)
            if report is not None and report.provably_empty:
                # The WHERE clause cannot be satisfied: answer without
                # planning, scanning, resolving similarity filters, or
                # any source round-trip.
                rows = self._empty_rows(query)
                wall = timer.stop()
                span.set("analysis", "short_circuit")
                span.set("rows", len(rows))
                metrics.counter("query.analysis_short_circuit").inc()
                metrics.histogram("query.wall_s").observe(wall)
                metrics.counter("query.rows_returned").inc(len(rows))
                return QueryResult(
                    rows=rows,
                    cache_outcome=("miss" if self.config.use_semantic_cache
                                   else "off"),
                    counters={"rows_scanned": 0, "rows_emitted": len(rows),
                              "index_probes": 0, "operators": []},
                    wall_time_s=wall,
                )
            if self.config.use_semantic_cache:
                hit = self.cache.lookup(query)
                if hit is not None:
                    wall = timer.stop()
                    span.set("cache", hit.kind)
                    span.set("rows", len(hit.rows))
                    metrics.histogram("query.wall_s").observe(wall)
                    metrics.counter("query.rows_returned").inc(
                        len(hit.rows)
                    )
                    return QueryResult(
                        rows=hit.rows,
                        cache_outcome=hit.kind,
                        wall_time_s=wall,
                    )

            resilient = self._resilience_active(deadline)
            deadline = self._as_deadline(deadline)
            statuses: dict[str, str] = {}
            self._fetch_deadline = deadline
            self._fetch_statuses = statuses if resilient else None
            try:
                with tracer.span("query.resolve_filters"):
                    ligand_keys, candidates, sub_candidates = \
                        self._resolve_ligand_filters(query)
                # Refresh the estimator if statistics went stale
                # (bulk loads).
                self.planner.estimator = CardinalityEstimator(
                    self.drugtree.statistics,
                    tables=self.drugtree.tables,
                    metrics=metrics,
                )
                with tracer.span("query.plan"):
                    plan = self.planner.plan(query,
                                             similar_keys=ligand_keys)
                counters = ExecCounters()
                physical = self._build_physical(plan.logical, counters)
                with tracer.span("query.run") as run_span:
                    rows = list(physical.rows())
                    if isinstance(plan.logical, LogicalEmpty):
                        # The rewriter proved the WHERE empty and
                        # dropped the whole tree, aggregates included;
                        # restore the SQL shape (count→0, mean→NULL)
                        # the naive engine and the analyzer
                        # short-circuit both produce.
                        rows = self._empty_rows(query)
                    run_span.set("rows", len(rows))
                    run_span.set("rows_scanned", counters.rows_scanned)
            except BorrowTimeoutError:
                raise  # a scheduler bug, never papered over
            except SourceError:
                stale = (self.cache.lookup_stale(query)
                         if resilient and self.config.use_semantic_cache
                         else None)
                if stale is None:
                    raise
                # Last line of degradation: the live answer is gone,
                # but the last known one is not. Serve it, flagged.
                wall = timer.stop()
                span.set("cache", "stale")
                span.set("rows", len(stale.rows))
                metrics.counter("query.served_stale").inc()
                metrics.counter("query.degraded_results").inc()
                metrics.histogram("query.wall_s").observe(wall)
                metrics.counter("query.rows_returned").inc(
                    len(stale.rows)
                )
                return QueryResult(
                    rows=stale.rows,
                    cache_outcome="stale",
                    wall_time_s=wall,
                    degraded=True,
                )
            finally:
                self._fetch_deadline = None
                self._fetch_statuses = None

            degraded = any(status != STATUS_FRESH
                           for status in statuses.values())
            # A degraded answer is *not* cached: the cache must never
            # upgrade a partial result to a future "fresh" hit.
            if self.config.use_semantic_cache and not degraded:
                self.cache.store(query, rows)
            if degraded:
                span.set("degraded", True)
                metrics.counter("query.degraded_results").inc()

            wall = timer.stop()
            span.set("cache",
                     "miss" if self.config.use_semantic_cache else "off")
            span.set("rows", len(rows))
            metrics.histogram("query.wall_s").observe(wall)
            metrics.counter("query.rows_returned").inc(len(rows))
            metrics.counter("query.rows_scanned").inc(
                counters.rows_scanned
            )

        return QueryResult(
            rows=rows,
            plan=plan,
            cache_outcome=("miss" if self.config.use_semantic_cache
                           else "off"),
            counters=counters.snapshot(),
            wall_time_s=wall,
            similarity_candidates=candidates,
            substructure_candidates=sub_candidates,
            resilience=dict(statuses),
            degraded=degraded,
        )

    def explain(self, query: Query | str) -> str:
        """The plan the engine would run, as indented text."""
        if isinstance(query, str):
            query = parse_query(query)
        ligand_keys, _, __ = self._resolve_ligand_filters(query)
        plan = self.planner.plan(query, similar_keys=ligand_keys)
        return plan.explain()

    def analyze(self, query: Query | str,
                deadline: Deadline | float | None = None) -> AnalyzeReport:
        """EXPLAIN ANALYZE: execute with per-operator instrumentation.

        Always executes fresh (like the SQL statement it imitates); the
        semantic cache is consulted only to report what outcome a normal
        ``execute`` would have seen. Per-operator spans are emitted into
        the tracer, and per-source round-trip deltas are read from the
        metrics registry, so remote traffic during execution (or its
        absence — the point of the integrated overlay) is visible.
        """
        text = query if isinstance(query, str) else None
        if isinstance(query, str):
            query = parse_query(query)
        tracer = self._obs_tracer()
        metrics = self._obs_metrics()
        clock = getattr(tracer, "clock", None)

        report = self._analyze_query(query, text)
        analysis_lines = (report.summary_lines()
                          if report is not None else ())

        cache_outcome = "off (semantic cache disabled)"
        if self.config.use_semantic_cache:
            hit = self.cache.lookup(query)
            cache_outcome = (
                f"{hit.kind} (result recomputed for analysis)"
                if hit is not None else "miss"
            )

        if report is not None and report.provably_empty:
            # Short-circuit mirror of execute(): no plan, no operators,
            # no round-trips. The report still renders the analysis
            # trailer naming the contradicted predicates.
            with tracer.span("query.explain_analyze") as span, \
                    WallTimer() as timer:
                rows = self._empty_rows(query)
                span.set("rows", len(rows))
                span.set("analysis", "short_circuit")
            metrics.counter("query.analysis_short_circuit").inc()
            stats = OperatorStats("AnalysisEmpty(provably empty WHERE)")
            stats.rows_out = len(rows)
            stats.loops = 1
            return AnalyzeReport(
                plan_text="",
                operators=stats,
                rows=len(rows),
                wall_s=timer.elapsed_s,
                virtual_s=0.0,
                estimated_rows=0.0,
                estimated_cost=0.0,
                cache_outcome=cache_outcome,
                counters={"rows_scanned": 0, "rows_emitted": len(rows),
                          "index_probes": 0, "operators": []},
                analysis=analysis_lines,
                execution={"mode": self.config.execution_mode},
            )

        resilient = self._resilience_active(deadline)
        deadline = self._as_deadline(deadline)
        statuses: dict[str, str] = {}
        ligand_keys, _, __ = self._resolve_ligand_filters(query)
        self.planner.estimator = CardinalityEstimator(
            self.drugtree.statistics,
            tables=self.drugtree.tables,
            metrics=metrics,
        )
        plan = self.planner.plan(query, similar_keys=ligand_keys)
        counters = ExecCounters()
        root = OperatorStats("plan")
        self._fetch_deadline = deadline
        self._fetch_statuses = statuses if resilient else None
        try:
            physical = self._build_physical(plan.logical, counters,
                                            probe=root, clock=clock)

            before = metrics.counter_values("source.roundtrips.")
            scheduler_before = metrics.counter_values("scheduler.")
            virtual_before = clock.now() if clock is not None else 0.0
            with tracer.span("query.explain_analyze") as span, \
                    WallTimer() as timer:
                rows = list(physical.rows())
                if isinstance(plan.logical, LogicalEmpty):
                    rows = self._empty_rows(query)
                span.set("rows", len(rows))
        finally:
            self._fetch_deadline = None
            self._fetch_statuses = None
        virtual_s = (clock.now() - virtual_before
                     if clock is not None else 0.0)
        after = metrics.counter_values("source.roundtrips.")
        scheduler_after = metrics.counter_values("scheduler.")
        federation = {
            name: round(total - scheduler_before.get(name, 0), 6)
            for name, total in scheduler_after.items()
            if total - scheduler_before.get(name, 0)
        }

        prefix = "source.roundtrips."
        source_roundtrips = {
            name[len(prefix):]: {
                "during": total - before.get(name, 0),
                "total": total,
            }
            for name, total in after.items()
        }

        resilience: dict[str, Any] = {}
        if statuses:
            resilience["statuses"] = dict(statuses)
            if any(status != STATUS_FRESH
                   for status in statuses.values()):
                resilience["degraded"] = True
        boards = getattr(self.federation, "breakers", None)
        if boards is not None:
            snap = boards.snapshot()
            if snap:
                resilience["breakers"] = snap

        execution: dict[str, Any] = {"mode": self.config.execution_mode}
        choice = self._last_choice
        if choice is not None:
            # Adaptive mode: report the resolved engine, both cost
            # estimates, why, and the fusion actuals. Explicit
            # row/vectorized modes keep their exact historical dict.
            execution["mode"] = choice.mode
            execution["requested"] = "adaptive"
            execution["row_cost"] = round(choice.row_cost, 1)
            execution["vec_cost"] = round(choice.vec_cost, 1)
            execution["reason"] = choice.reason
            execution["fused"] = counters.fused_pipelines
        if counters.batches_emitted:
            execution["batches"] = counters.batches_emitted
            execution["rows_per_batch"] = round(
                counters.batch_rows / counters.batches_emitted, 2
            )
            execution["batch_size"] = (choice.batch_size
                                       if choice is not None
                                       else self.config.vector_batch_size)

        storage: dict[str, Any] = {}
        if getattr(self.drugtree, "database", None) is not None:
            storage = {
                "durable": True,
                "segments_read": counters.segments_read,
                "segments_pruned": counters.segments_pruned,
            }

        operators = root.children[0] if root.children else root
        self._emit_operator_spans(tracer, operators)
        return AnalyzeReport(
            plan_text=plan.explain(),
            operators=operators,
            rows=len(rows),
            wall_s=timer.elapsed_s,
            virtual_s=virtual_s,
            estimated_rows=plan.estimated_rows,
            estimated_cost=plan.estimated_cost,
            cache_outcome=cache_outcome,
            counters=counters.snapshot(),
            source_roundtrips=source_roundtrips,
            federation=federation,
            analysis=analysis_lines,
            resilience=resilience,
            execution=execution,
            storage=storage,
        )

    def explain_analyze(self, query: Query | str) -> str:
        """EXPLAIN plus actual execution numbers, as annotated text."""
        return self.analyze(query).render()

    def _emit_operator_spans(self, tracer, stats: OperatorStats,
                             parent=None) -> None:
        span = tracer.record(
            "op." + stats.label.split("(", 1)[0],
            wall_s=stats.wall_s,
            virtual_s=stats.virtual_s or None,
            parent=parent,
            rows=stats.rows_out,
            loops=stats.loops,
            label=stats.label,
        )
        for child in stats.children:
            self._emit_operator_spans(tracer, child, parent=span)

    # -- ligand-filter resolution --------------------------------------------

    def _resolve_ligand_filters(
        self, query: Query,
    ) -> tuple[frozenset[str] | None, int, int]:
        """Resolve similarity and substructure filters to one ligand-id
        key set (their intersection when both are present)."""
        similar_keys, candidates = self._resolve_similarity(query.similar)
        sub_keys, sub_candidates = self._resolve_substructure(
            query.substructure
        )
        if similar_keys is None:
            combined = sub_keys
        elif sub_keys is None:
            combined = similar_keys
        else:
            combined = similar_keys & sub_keys
        return combined, candidates, sub_candidates

    def _resolve_substructure(
        self, substructure: SubstructureFilter | None,
    ) -> tuple[frozenset[str] | None, int]:
        """Resolve a CONTAINING filter to the matching ligand-id set.

        With the screen enabled, count profiling prunes molecules before
        any VF2 match runs; both paths return identical sets."""
        if substructure is None:
            return None, 0
        pattern = SubstructurePattern(substructure.smiles)
        molecules = self.drugtree.molecules
        if self.config.use_substructure_screen:
            matches, screened = filter_library(pattern, molecules)
            return matches, screened
        matches = frozenset(
            ligand_id for ligand_id, mol in molecules.items()
            if _vf2_only(pattern, mol)
        )
        return matches, len(molecules)

    def _resolve_similarity(
        self, similar: SimilarityFilter | None,
    ) -> tuple[frozenset[str] | None, int]:
        """Resolve a similarity filter to the matching ligand-id set.

        With the prefilter enabled, popcount bounds cut the candidate
        list before any Tanimoto is computed: ``T(a,b) >= t`` forces
        ``t * |a| <= |b| <= |a| / t``.
        """
        if similar is None:
            return None, 0
        probe = circular_fingerprint(parse_smiles(similar.smiles))
        threshold = similar.threshold
        if self.config.use_fingerprint_prefilter:
            # Popcount-ordered index: two binary searches bound the
            # candidate band before any Tanimoto is computed.
            index = self.drugtree.fingerprint_index
            band = index.candidate_band(probe, threshold)
            matches = frozenset(
                ligand_id for ligand_id, fp in band
                if tanimoto(probe, fp) >= threshold
            )
            return matches, len(band)
        fingerprints = self.drugtree.fingerprints
        matches = frozenset(
            ligand_id for ligand_id, fp in fingerprints.items()
            if tanimoto(probe, fp) >= threshold
        )
        return matches, len(fingerprints)

    # -- physical lowering ----------------------------------------------------------

    def _build_physical(self, node: LogicalNode, counters: ExecCounters,
                        probe: OperatorStats | None = None,
                        clock=None):
        """Lower through the configured execution mode.

        Both paths produce an operator exposing ``rows()`` with
        identical results; vectorized lowering additionally fills the
        counters' batch fields. Imported lazily so the default row
        path's import graph is unchanged.

        ``adaptive`` (the default) prices the plan in both row and
        vectorized terms against the current statistics and dispatches
        to the winner, with an adaptive batch size on the vectorized
        side. The choice lands in ``self._last_choice`` for the analyze
        trailer. Both vectorized paths run one fused pipeline on the
        calling thread.
        """
        mode = self.config.execution_mode
        choice = None
        if mode == "adaptive":
            # Bound once: the per-call import statement costs ~1us,
            # visible on sub-millisecond index probes.
            helpers = self._adaptive_helpers
            if helpers is None:
                from repro.core.query import adaptive as _adaptive
                helpers = self._adaptive_helpers = (
                    _adaptive.choice_key, _adaptive.choose_engine)
            choice_key, choose_engine = helpers
            epoch = getattr(self.drugtree, "stats_epoch", None)
            if epoch != self._choice_epoch:
                self._choice_cache.clear()
                self._choice_epoch = epoch
            key = choice_key(node)
            choice = self._choice_cache.get(key)
            if choice is None:
                choice = choose_engine(node, self.planner.estimator)
                if len(self._choice_cache) >= 256:
                    self._choice_cache.pop(
                        next(iter(self._choice_cache)))
                self._choice_cache[key] = choice
            mode = choice.mode
        self._last_choice = choice
        if mode == "vectorized":
            from repro.core.query.vectorized import VectorizedLowering
            batch_size = choice.batch_size if choice is not None else None
            lowering = VectorizedLowering(self, counters, probe=probe,
                                          clock=clock,
                                          batch_size=batch_size)
            return lowering.lower_plan(node)
        return self._to_physical(node, counters, probe=probe,
                                 clock=clock)

    def _to_physical(self, node: LogicalNode, counters: ExecCounters,
                     probe: OperatorStats | None = None,
                     clock=None) -> PhysicalOp:
        """Lower *node*; with *probe*, instrument it for EXPLAIN ANALYZE.

        *probe* is the parent's stats node: this operator appends its
        own stats child and comes back wrapped so execution charges
        actual rows and (wall, virtual) time to it.
        """
        if probe is None:
            return self._lower(node, counters, None, None)
        stats = probe.child(node.describe(),
                            getattr(node, "estimated_rows", None))
        op = self._lower(node, counters, stats, clock)
        return InstrumentedOp(op, stats, clock)

    def _lower(self, node: LogicalNode, counters: ExecCounters,
               stats: OperatorStats | None, clock) -> PhysicalOp:
        if isinstance(node, LogicalEmpty):
            return EmptyOp(counters)
        if isinstance(node, LogicalCladeAggregate):
            return self._clade_fast_path(node, counters)
        if isinstance(node, LogicalScan):
            return self._scan_op(node, counters)
        if isinstance(node, LogicalJoin):
            return self._join_op(node, counters, stats, clock)
        if isinstance(node, LogicalAggregate):
            child = self._to_physical(node.child, counters, stats, clock)
            return HashAggregateOp(counters, child, node.aggregates,
                                   node.group_by)
        if isinstance(node, LogicalHaving):
            child = self._to_physical(node.child, counters, stats, clock)
            return FilterOp(counters, child, node.conditions)
        if isinstance(node, LogicalProject):
            child = self._to_physical(node.child, counters, stats, clock)
            remote = tuple(c for c in node.columns
                           if c in REMOTE_DETAIL_COLUMNS)
            if remote:
                child = self._remote_fetch_op(remote, child, counters)
            return ProjectOp(counters, child, node.columns)
        if isinstance(node, LogicalOrder):
            child = self._to_physical(node.child, counters, stats, clock)
            if node.limit is not None:
                return TopKOp(counters, child, node.order_by, node.limit)
            return SortOp(counters, child, node.order_by)
        if isinstance(node, LogicalLimit):
            child = self._to_physical(node.child, counters, stats, clock)
            return LimitOp(counters, child, node.limit)
        raise PlanError(f"cannot lower {type(node).__name__}")

    def _remote_fetch_op(self, remote: tuple[str, ...],
                         child: PhysicalOp,
                         counters: ExecCounters) -> PhysicalOp:
        if self.federation is None:
            raise QueryError(
                f"columns {sorted(remote)} live at the remote sources; "
                "construct the engine with federation=FetchScheduler(...)"
            )
        specs = tuple(
            (column,
             REMOTE_DETAIL_COLUMNS[column][0],
             REMOTE_DETAIL_COLUMNS[column][1])
            for column in remote
        )
        return RemoteFetchOp(counters, child, self.federation,
                             "protein_id", specs,
                             lookahead=self.config.remote_lookahead,
                             deadline=self._fetch_deadline,
                             statuses=self._fetch_statuses)

    def _scan_op(self, node: LogicalScan,
                 counters: ExecCounters) -> PhysicalOp:
        table = self.drugtree.tables[node.table]
        if node.access == "seq":
            return SeqScanOp(counters, table, node.residual)
        if node.access == "index_eq":
            assert node.access_column is not None
            index = table.index_on(node.access_column)
            if index is None:
                raise PlanError(
                    f"plan needs an index on {node.access_column!r}"
                )
            return IndexEqScanOp(counters, table, index, node.eq_value,
                                 node.residual)
        if node.access == "index_range":
            assert node.access_column is not None
            index = table.index_on(node.access_column, require_range=True)
            if not isinstance(index, SortedIndex):
                raise PlanError(
                    f"plan needs a sorted index on {node.access_column!r}"
                )
            return IndexRangeScanOp(
                counters, table, index,
                node.range_low, node.range_high,
                node.include_low, node.include_high,
                node.residual,
            )
        if node.access == "key_set":
            assert node.access_column is not None
            assert node.key_set is not None
            return KeySetScanOp(counters, table, node.access_column,
                                node.key_set, node.residual)
        raise PlanError(f"unknown access path {node.access!r}")

    def _join_op(self, node: LogicalJoin, counters: ExecCounters,
                 stats: OperatorStats | None = None,
                 clock=None) -> PhysicalOp:
        left = self._to_physical(node.left, counters, stats, clock)
        if node.method == "hash":
            right = self._to_physical(node.right, counters, stats, clock)
            # Build on the smaller estimated side.
            left_rows = _rows_estimate(node.left)
            right_rows = _rows_estimate(node.right)
            if left_rows <= right_rows:
                return HashJoinOp(counters, build=left, probe=right,
                                  key=node.key)
            return HashJoinOp(counters, build=right, probe=left,
                              key=node.key)
        inner_logical = node.right

        if stats is not None:
            # The inner side is re-lowered per outer row; fold every
            # rescan into one stats node (loops counts the rescans).
            inner_stats = stats.child(
                inner_logical.describe(),
                getattr(inner_logical, "estimated_rows", None),
            )
            inner_stats.merge_children = True

            def inner_factory() -> PhysicalOp:
                op = self._lower(inner_logical, counters, inner_stats,
                                 clock)
                return InstrumentedOp(op, inner_stats, clock)
        else:
            def inner_factory() -> PhysicalOp:
                return self._to_physical(inner_logical, counters)

        return NestedLoopJoinOp(counters, left, inner_factory, node.key)

    def _clade_fast_path(self, node: LogicalCladeAggregate,
                         counters: ExecCounters) -> PhysicalOp:
        stats = self.drugtree.clade_stats(node.node_name)
        row: dict[str, Any] = {}
        for aggregate in node.aggregates:
            if aggregate.func == "count":
                row[aggregate.output_name] = int(stats["count"])
            elif aggregate.func == "mean":
                row[aggregate.output_name] = (
                    stats["mean"] if stats["count"] else None
                )
            elif aggregate.func == "max":
                row[aggregate.output_name] = (
                    stats["max"] if stats["count"] else None
                )
            elif aggregate.func == "sum":
                row[aggregate.output_name] = stats["mean"] * stats["count"]
            else:
                raise PlanError(
                    f"clade fast path cannot serve {aggregate}"
                )
        return StaticRowsOp(counters, [row])


def _vf2_only(pattern: SubstructurePattern, mol) -> bool:
    """Exact match without the count screen (the ablation path)."""
    from networkx.algorithms import isomorphism

    from repro.chem.substructure import (
        _atoms_match,
        _bonds_match,
        _typed_graph,
    )

    matcher = isomorphism.GraphMatcher(
        _typed_graph(mol), pattern.graph,
        node_match=_atoms_match, edge_match=_bonds_match,
    )
    return matcher.subgraph_is_monomorphic()


def _rows_estimate(node: LogicalNode) -> float:
    estimated = getattr(node, "estimated_rows", None)
    return float(estimated) if estimated is not None else 1e9
