"""Spans recorded from outside the program, around its public calls.

The benchmark measures every layer without editing it: it replaces a
public function or method with a wrapper that records a span and calls
the original. A span is ``(name, start, end, parent_id, op, span_id)``;
*op* is the tap, query or mutation in flight, so spans of one
operation share it. The first part of a span name is the layer it
belongs to (``mobile.navigate`` is the ``mobile`` layer).

Spans are kept in memory while the workload runs and written out when
it ends. They are recorded only while :attr:`Recorder.recording` is
set, so world building and the correctness checks leave no spans.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from concurrent.futures import ThreadPoolExecutor

_perf = time.perf_counter


class Recorder:
    """Collects spans from every wrapper it installed."""

    def __init__(self) -> None:
        self.recording = False
        #: Id of the operation in flight; wrappers made with
        #: ``starts_op=True`` advance it.
        self.op = 0
        #: Called before a ``starts_op`` wrapper opens its operation,
        #: outside every span (the speed calibration, see speed.py).
        self.between_ops = None
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=-1)

    def wrap(self, owner, attr: str, name: str, on_result=None,
             starts_op: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *on_result* is called with the call's arguments and return
        value after every recorded call, outside the span.
        """
        original = getattr(owner, attr)
        recorder = self
        current = self._current
        ids = self._ids
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return original(*args, **kwargs)
            if starts_op:
                if recorder.between_ops is not None:
                    recorder.between_ops()
                recorder.op += 1
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = _perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _perf()
                current.reset(token)
                spans.append((name, start, end, parent, recorder.op,
                              span_id))
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)

    def durations(self, name: str, scale: float = 1e3) -> list[float]:
        return [(end - start) * scale
                for span_name, start, end, _, _, _ in self.spans
                if span_name == name]

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's
    context, so spans recorded on pool threads keep the caller's span
    as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)


def install_query(recorder: Recorder, traced: bool,
                  on_execute=None) -> None:
    """``QueryEngine.execute`` always; parse, analysis, plan, semantic
    cache, chemistry filters and statistics refresh when traced."""
    from repro.core.query import executor
    recorder.wrap(executor.QueryEngine, "execute", "query.execute",
                  on_result=on_execute)
    if not traced:
        return
    from repro.analysis import dtql
    from repro.chem.search import FingerprintIndex
    from repro.core import drugtree
    from repro.core.query.cache import SemanticCache
    from repro.core.query.planner import Planner
    recorder.wrap(executor, "parse_query", "query.parse")
    recorder.wrap(dtql, "parse_query", "query.parse")
    recorder.wrap(dtql.SemanticAnalyzer, "check", "analysis.check")
    recorder.wrap(Planner, "plan", "query.plan")
    recorder.wrap(SemanticCache, "lookup", "cache.lookup")
    recorder.wrap(SemanticCache, "invalidate", "cache.invalidate")
    recorder.wrap(executor, "filter_library", "chem.substructure_screen")
    recorder.wrap(FingerprintIndex, "candidate_band",
                  "chem.similarity_band")
    recorder.wrap(drugtree, "analyze", "storage.analyze")


def install_serving(recorder: Recorder, traced: bool,
                    on_front_get=None, on_response=None,
                    on_query=None) -> None:
    """The frontend run, the shared cache front (each lookup starts a
    tap) and the mobile server's calls always; level-of-detail
    rendering, message encoding and federation fetches when traced."""
    from repro.mobile import server
    from repro.serving import cache, frontend
    recorder.wrap(frontend.ServingFrontend, "run", "serving.run")
    recorder.wrap(cache.SharedCacheFront, "get", "serving.front_get",
                  on_result=on_front_get, starts_op=True)
    recorder.wrap(server.DrugTreeServer, "open_session", "mobile.open")
    recorder.wrap(server.DrugTreeServer, "navigate", "mobile.navigate",
                  on_result=on_response)
    recorder.wrap(server.DrugTreeServer, "protein_details",
                  "mobile.details", on_result=on_response)
    recorder.wrap(server.DrugTreeServer, "query", "mobile.query",
                  on_result=on_query)
    if not traced:
        return
    from repro.sources import base, scheduler
    recorder.wrap(server, "render_viewport", "mobile.lod")
    recorder.wrap(server, "full_message", "mobile.encode")
    recorder.wrap(server, "delta_message", "mobile.encode")
    recorder.wrap(scheduler.FetchScheduler, "fetch_all", "sources.fetch")
    recorder.wrap(scheduler.FetchScheduler, "fetch_all_resilient",
                  "sources.fetch")
    recorder.wrap(base.DataSource, "fetch_many", "sources.roundtrip")
    scheduler.ThreadPoolExecutor = _ContextPool


def install_storage(recorder: Recorder, traced: bool) -> None:
    """Binding inserts and row deletes, when traced."""
    if not traced:
        return
    from repro.core.drugtree import DrugTree
    from repro.storage.table import Table
    recorder.wrap(DrugTree, "add_binding", "core.add_binding")
    recorder.wrap(Table, "insert", "storage.insert")
    recorder.wrap(Table, "delete", "storage.delete")
