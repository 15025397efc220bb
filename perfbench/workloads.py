"""The three benchmark workloads: tap_stream, scan_analytics, ingest_mix.

Each workload builds a fixed world (its size and world seed never
change, so ``--seed`` varies the operation stream and not the amount
of data), then runs operations drawn from ``--seed`` through the
public API with one client thread, and checks the answers. Why each
workload exists is in README.md next to this file.

A workload object goes through ``setup`` (timed into ``setup_s``),
``warm``, ``run`` (the measured window) and ``check`` (correctness
gates, outside the measured window). ``run`` and ``check`` fill
:attr:`outcome`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.chem.affinity import ActivityType, BindingRecord
from repro.core import NaiveEngine, QueryEngine
from repro.core.drugtree import DrugTree
from repro.core.query.ast import Comparison, SubstructureFilter
from repro.core.query.parser import parse_query
from repro.mobile.server import DrugTreeServer, ServerConfig
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.serving import (
    AdmissionConfig,
    FrontendConfig,
    ServingFrontend,
    TenantConfig,
)
from repro.sources.scheduler import FetchScheduler
from repro.storage.durable import StorageConfig
from repro.workloads import (
    DatasetConfig,
    LoadConfig,
    QueryGenerator,
    TenantLoad,
    build_dataset,
    generate_load,
)
from repro.workloads.queries import ALL_KINDS

import probes
import speed
from catalogue import SCAN_FAMILIES
from stats import quantile, tail_q

if set(SCAN_FAMILIES[4:]) != set(ALL_KINDS):
    raise RuntimeError("catalogue.SCAN_FAMILIES must list every "
                       f"QueryGenerator kind: {ALL_KINDS}")

perf = time.perf_counter

#: World seed shared by every workload; worlds differ by size only.
WORLD_SEED = 501
#: Steps of the low-discrepancy parameter sequences.
GOLDEN = (5 ** 0.5 - 1) / 2
SILVER = 2 ** 0.5 - 1
#: Answers compared with NaiveEngine per run (a seeded sample).
NAIVE_SAMPLE = 5
#: A plain run is measured in this many consecutive rounds, and each
#: timing metric is the median of its per-round values, so a slow
#: spell of the machine in one round does not move it.
ROUNDS = 3
#: Samples each round needs: 1000 puts ten beyond p99.
ROUND_SAMPLES = 1000


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: op id -> reference milliseconds (speed.py), for every
    #: completed operation.
    op_ms: dict[int, float] = field(default_factory=dict)
    #: op id -> raw wall milliseconds, for the record.
    op_wall_ms: dict[int, float] = field(default_factory=dict)
    #: (first op id, last op id, reference seconds and raw wall
    #: seconds spent inside the program's calls) of each round.
    rounds: list[tuple[int, int, float, float]] = field(
        default_factory=list)
    #: Reference seconds of each equal unit of work (an episode);
    #: empty when every operation is its own unit.
    unit_costs: list[float] = field(default_factory=list)
    within_limit: int = 0
    #: Share of attempted operations done within the latency limit;
    #: ``None`` means ``within_limit / attempted``.
    goodput: float | None = None
    #: Per-layer figures the workload measures itself.
    layers: dict[str, float] = field(default_factory=dict)
    #: Workload description recorded with every result.
    describe: dict = field(default_factory=dict)
    #: op id -> query family, for the per-family timings.
    family_of_op: dict[int, str] = field(default_factory=dict)
    writes: int = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def time_ops(self, intervals: dict, meter: speed.Speedometer,
                 limit_s: float) -> None:
        """Fill the op timings from op id -> (start, end) wall
        intervals, count those within *limit_s* (reference seconds),
        and cut the operations into ROUNDS rounds of equal count."""
        for op, (start, end) in intervals.items():
            self.op_ms[op] = meter.seconds(start, end) * 1e3
            self.op_wall_ms[op] = (end - start) * 1e3
        self.within_limit = sum(ms <= limit_s * 1e3
                                for ms in self.op_ms.values())
        ops = list(self.op_ms)
        size = len(ops) / ROUNDS
        for index in range(ROUNDS):
            part = ops[round(index * size):round((index + 1) * size)]
            if part:
                self.rounds.append((
                    part[0], part[-1],
                    sum(self.op_ms[op] for op in part) / 1e3,
                    sum(self.op_wall_ms[op] for op in part) / 1e3))


def answer_key(query, rows) -> str:
    """A digest of an answer, so samples keep no result rows alive.

    Rows compare as a multiset with floats rounded to 6 decimals, so
    summation order does not matter; an ordered top-k answer compares
    by its score column only, because ties may resolve either way.
    """
    def plain(value):
        return round(value, 6) if isinstance(value, float) else value
    if isinstance(query, str):
        query = parse_query(query)
    if query.order_by is not None and query.limit is not None:
        form = [plain(row.get(query.order_by.column)) for row in rows]
    else:
        form = sorted(repr(sorted((key, plain(value))
                                  for key, value in row.items()))
                      for row in rows)
    return hashlib.sha256(repr(form).encode()).hexdigest()


def _work(seconds: float, per_second: float, least: int) -> int:
    """Operations of a run: *per_second* for each of *seconds*, and at
    least *least*. A run does a fixed amount of work, not as much as
    fits in a time, so the machine's speed cannot change what it
    measures."""
    return max(least, round(seconds * per_second))


class _Workload:
    name = ""

    def __init__(self, seed: int, recorder: probes.Recorder,
                 traced: bool, workdir: str) -> None:
        self.seed = seed
        self.rec = recorder
        self.traced = traced
        self.workdir = workdir
        self.outcome = Outcome()
        self.rows_scanned = 0
        self.rows_returned = 0
        self.similarity_candidates = 0
        self.similarity_library = 0
        self.cache_outcomes: Counter = Counter()
        #: Calibrations between operations; timings are scaled by them.
        self.speed = speed.Speedometer()
        set_metrics(MetricsRegistry())

    def _on_execute(self, args, result) -> None:
        self.rows_scanned += result.counters.get("rows_scanned", 0)
        self.rows_returned += len(result.rows)
        self.cache_outcomes[result.cache_outcome] += 1
        query = args[1]
        if (getattr(query, "similar", None) is not None
                and result.cache_outcome == "miss"):
            self.similarity_candidates += result.similarity_candidates
            self.similarity_library += len(args[0].drugtree.fingerprints)

    def close(self) -> None:
        """Release what setup created in the work directory."""

    def _build(self, marks: dict, storage=None) -> None:
        """Build and integrate this workload's world, marking times."""
        self.dataset = build_dataset(DatasetConfig(
            n_leaves=self.N_LEAVES, n_ligands=self.N_LIGANDS,
            seed=WORLD_SEED))
        marks["built"] = time.monotonic()
        self.speed.burst()
        self.drugtree, _ = self.dataset.integrate(storage=storage)
        marks["integrated"] = time.monotonic()
        self.speed.burst()
        marks["integrate_roundtrips"] = \
            self.dataset.registry.combined_stats()["roundtrips"]
        self.world = {"leaves": self.N_LEAVES, "ligands": self.N_LIGANDS,
                      "bindings": self.drugtree.binding_count,
                      "world_seed": WORLD_SEED}

    def query_layers(self) -> dict[str, float]:
        hits = self.cache_outcomes
        lookups = hits["miss"] + hits["exact"] + hits["subsumed"]
        return {
            "query.rows_scanned_per_row":
                self.rows_scanned / self.rows_returned
                if self.rows_returned else 0.0,
            "cache.hit_ratio": (hits["exact"] + hits["subsumed"]) / lookups
            if lookups else 0.0,
            "cache.subsumed_ratio": hits["subsumed"] / lookups
            if lookups else 0.0,
            "chem.similarity_candidate_ratio":
                self.similarity_candidates / self.similarity_library
                if self.similarity_library else 0.0,
        }


# -- tap_stream ---------------------------------------------------------


class TapStream(_Workload):
    """Mobile taps through the serving frontend, open loop in virtual
    time: two zipf-skewed tenants offer Markov gesture sessions at
    fixed rates near the modelled capacity of two virtual workers."""

    name = "tap_stream"
    N_LEAVES, N_LIGANDS = 150, 200
    FLOOD_RPS, CALM_RPS = 40.0, 8.0
    DURATION_S = 300.0
    WORKERS = 2
    SLO_S = 0.5

    #: ``--seconds`` per episode: the work of a run.
    EPISODE_S = 3.5

    TAP_SPANS = ("serving.front_get", "mobile.open", "mobile.navigate",
                 "mobile.query", "mobile.details")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.bytes_sent = 0
        self.responses: list = []
        #: DTQL -> response, from the first episode, for the check.
        self.query_answers: dict[str, object] = {}
        self.first_episode = True
        #: (first op id, last op id, wall start, wall end) per episode.
        self.episodes: list[tuple[int, int, float, float]] = []
        probes.install_query(self.rec, self.traced,
                             on_execute=self._on_execute)
        probes.install_serving(self.rec, self.traced,
                               on_front_get=self._on_front_get,
                               on_response=self._on_response,
                               on_query=self._on_query)
        # Each tap opens with a front-cache lookup; calibrate before it.
        self.rec.between_ops = self.speed.tick

    def _on_front_get(self, args, entry) -> None:
        if entry is not None:
            self.bytes_sent += entry.value.message.wire_bytes

    def _on_response(self, args, response) -> None:
        self.bytes_sent += response.message.wire_bytes
        self.responses.append(response)

    def _on_query(self, args, response) -> None:
        self._on_response(args, response)
        if self.first_episode:
            _, _, dtql = args
            self.query_answers.setdefault(dtql, response)

    def _server(self) -> DrugTreeServer:
        workers = min(self.WORKERS, os.cpu_count() or 1)
        return DrugTreeServer(
            self.drugtree,
            ServerConfig(use_delta=False, tap_deadline_s=self.SLO_S),
            federation=FetchScheduler(self.dataset.registry,
                                      max_workers=workers))

    def setup(self, marks: dict) -> None:
        self._build(marks)
        self._server().open_session()
        marks["first"] = time.monotonic()

    def warm(self) -> None:
        """Nothing to warm: every episode starts from a fresh server,
        frontend and scheduler, as a first episode would."""

    def _requests(self, episode: int) -> list:
        """The request list of one episode. Episode 0 draws from the
        seed itself; episode e > 0 from ``seed * 1000 + e``."""
        seed = self.seed if episode == 0 else self.seed * 1000 + episode
        return generate_load(
            self.dataset.family.clade_names,
            self.dataset.family.protein_ids,
            LoadConfig(tenants=(TenantLoad("flood", self.FLOOD_RPS),
                                TenantLoad("calm", self.CALM_RPS)),
                       duration_s=self.DURATION_S, think_mean_s=0.5,
                       seed=seed))

    def _episode(self, requests: list) -> None:
        """One pass of a request list through a fresh server and
        frontend."""
        out = self.outcome
        frontend = ServingFrontend(
            self._server(), self.dataset.clock,
            FrontendConfig(workers=self.WORKERS, policy="wfq",
                           admission=AdmissionConfig(slo_s=self.SLO_S,
                                                     headroom=0.5),
                           slo_s=self.SLO_S, use_cache=True),
            tenants=[TenantConfig("flood"), TenantConfig("calm")])
        registry = self.dataset.registry
        scheduler = frontend.server.federation
        metrics = get_metrics()
        before = registry.combined_stats()
        prefetch_before = metrics.counter_values("mobile.prefetch.")
        self.bytes_sent = 0
        first_op = self.rec.op + 1
        self.speed.tick(force=True)
        self.rec.recording = True
        started = perf()
        report = frontend.run(requests)
        ended = perf()
        self.rec.recording = False
        self.speed.tick(force=True)
        self.episodes.append((first_op, self.rec.op, started, ended))
        out.attempted += report.offered
        for outcome in frontend.outcomes:
            if outcome.status == "failed":
                out.fail(f"tap failed ({outcome.reason}): "
                         f"{outcome.request.kind} "
                         f"{outcome.request.target!r}")
        for response in self.responses:
            try:
                response.message.payload()
            except Exception as exc:  # any decode error fails the tap
                out.fail(f"response does not decode: {exc}")
        self.responses = []
        if not self.first_episode:
            return
        self.first_episode = False
        # Episode 0 starts from the same state in every run, so its
        # virtual-time figures repeat exactly for a seed.
        after = registry.combined_stats()
        prefetch = {
            key: value - prefetch_before.get(key, 0)
            for key, value in metrics.counter_values(
                "mobile.prefetch.").items()}
        roundtrips = after["roundtrips"] - before["roundtrips"]
        keys = after["keys_requested"] - before["keys_requested"]
        done = [o for o in frontend.outcomes if not o.shed]
        cache = report.cache
        gets = cache.get("hits", 0) + cache.get("misses", 0)
        hits = prefetch.get("mobile.prefetch.hits", 0)
        misses = prefetch.get("mobile.prefetch.misses", 0)
        out.goodput = report.goodput
        out.layers.update({
            "serving.front_hit_ratio":
                cache.get("hits", 0) / gets if gets else 0.0,
            "serving.shed_ratio": report.shed_rate,
            "serving.queue_wait_virtual_ms.p99": 1e3 * quantile(
                [o.queued_s for o in done], tail_q(len(done))),
            "serving.tap_virtual_ms.p99": 1e3 * quantile(
                [o.latency_s for o in done], tail_q(len(done))),
            "mobile.bytes_per_tap":
                self.bytes_sent / report.completed
                if report.completed else 0.0,
            "mobile.prefetch_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "sources.roundtrips_per_tap": roundtrips / report.offered,
            "sources.keys_per_roundtrip":
                keys / roundtrips if roundtrips else 0.0,
            "sources.virtual_ms_per_tap":
                1e3 * scheduler.stats.elapsed_virtual_s / report.offered,
        })

    def run(self, seconds: float, max_s: float) -> None:
        """Episodes, each with its own request list, grouped into
        ROUNDS rounds of consecutive episodes."""
        started = perf()
        episodes = _work(seconds, 1 / self.EPISODE_S, ROUNDS)
        taps = []
        for episode in range(episodes):
            requests = self._requests(episode)
            taps.append(len(requests))
            self._episode(requests)
            if perf() - started >= max_s:
                break
        out = self.outcome
        seconds_of = self.speed.seconds
        for name, start, end, _, op, _ in self.rec.spans:
            if name in self.TAP_SPANS:
                out.op_ms[op] = (out.op_ms.get(op, 0.0)
                                 + seconds_of(start, end) * 1e3)
                out.op_wall_ms[op] = (out.op_wall_ms.get(op, 0.0)
                                      + (end - start) * 1e3)
        walls = []
        for first_op, last_op, start, end in self.episodes:
            # Kernel time inside the episode is left out of both.
            kernels = sum(d for s, d in zip(self.speed.starts,
                                            self.speed.durations)
                          if start <= s < end)
            out.unit_costs.append(seconds_of(start, end))
            walls.append(end - start - kernels)
        done = len(self.episodes)
        for index in range(ROUNDS):
            lo = index * done // ROUNDS
            hi = (index + 1) * done // ROUNDS
            if hi > lo:
                out.rounds.append((
                    self.episodes[lo][0], self.episodes[hi - 1][1],
                    sum(out.unit_costs[lo:hi]), sum(walls[lo:hi])))
        out.describe = {
            "world": self.world,
            "offered_rps": {"flood": self.FLOOD_RPS,
                            "calm": self.CALM_RPS},
            "virtual_s_per_episode": self.DURATION_S,
            "taps_per_episode": taps,
            "episodes": done,
            "virtual_workers": self.WORKERS,
            "slo_virtual_s": self.SLO_S,
            "loop": "open, virtual time",
        }

    def check(self) -> None:
        """Seeded sample of query-tap answers against NaiveEngine."""
        naive = NaiveEngine(self.dataset.tree, self.dataset.registry)
        texts = sorted(self.query_answers)
        sample = random.Random(f"tap-check:{self.seed}").sample(
            texts, min(NAIVE_SAMPLE, len(texts)))
        for text in sample:
            got = self.query_answers[text].message.payload()["rows"]
            expected = naive.execute(text).rows
            if answer_key(text, got) != answer_key(text, expected):
                self.outcome.fail(f"answer differs from NaiveEngine: "
                                  f"{text}")


# -- scan_analytics -----------------------------------------------------


class ScanAnalytics(_Workload):
    """An analyst's DTQL in a closed loop with one client against the
    default QueryEngine: E13/E15 scan families with drawn thresholds,
    point lookups, and every QueryGenerator kind."""

    name = "scan_analytics"
    N_LEAVES, N_LIGANDS = 300, 400
    #: Latency limit for goodput, reference seconds (speed.py).
    LIMIT_S = 0.25
    #: Queries per second of ``--seconds``: the work of a run.
    QUERIES_PER_S = 150

    def __init__(self, *args) -> None:
        super().__init__(*args)
        probes.install_query(self.rec, self.traced,
                             on_execute=self._on_execute)

    def setup(self, marks: dict) -> None:
        self._build(marks)
        self.engine = QueryEngine(self.drugtree)
        self.engine.execute("SELECT count(*) FROM bindings")
        marks["first"] = time.monotonic()

    def _stream(self, seed):
        """Queries in seeded, shuffled blocks that hold every family once.

        Thresholds, lookup keys, and the clades and thresholds of the
        generator's subtree kinds follow fixed low-discrepancy
        sequences (clades ordered by size), so every run spreads them
        evenly over their range in the same pattern. Which entries the
        semantic cache can reuse depends on that pattern, so a seeded
        pattern would make the cache, not the program, decide how
        heavy a run is. The seed orders each block, draws the other
        generator kinds, and orders substructure fragments in rounds.
        """
        rng = random.Random(f"scan:{seed}")
        phase = dict.fromkeys(SCAN_FAMILIES, 0.0)
        second = 0.0
        fragments: list[str] = []
        generator = QueryGenerator(self.dataset.family,
                                   self.dataset.ligands, seed=seed)
        ligands = [ligand.ligand_id for ligand in self.dataset.ligands]
        tree = self.dataset.tree
        clades = sorted(
            self.dataset.family.clade_names,
            key=lambda name: (sum(1 for _ in tree.find(name).leaves()),
                              name))
        templates = {
            "scan_agg": "SELECT count(*), mean(p_affinity), "
                        "max(p_affinity) FROM bindings "
                        "WHERE p_affinity >= {t}",
            "group_by": "SELECT activity_type, count(*), "
                        "mean(p_affinity) FROM bindings "
                        "WHERE p_affinity >= {t} GROUP BY activity_type "
                        "ORDER BY activity_type",
            "filter_project": "SELECT ligand_id, p_affinity FROM bindings "
                              "WHERE p_affinity >= {t} AND potent = true",
        }
        block = list(SCAN_FAMILIES)
        while True:
            rng.shuffle(block)
            for family in block:
                phase[family] = (phase[family] + GOLDEN) % 1.0
                if family in templates:
                    query = templates[family].format(
                        t=round(4.5 + 5.0 * phase[family], 3))
                elif family == "point_lookup":
                    key = ligands[int(phase[family] * len(ligands))]
                    query = ("SELECT ligand_id, protein_id, p_affinity "
                             f"FROM bindings WHERE ligand_id = '{key}'")
                elif family == "clade_agg":
                    clade = clades[int(phase[family] * len(clades))]
                    query = generator.clade_agg(clade)
                elif family == "subtree_filter":
                    clade = clades[int(phase[family] * len(clades))]
                    second = (second + SILVER) % 1.0
                    query = replace(generator.subtree_filter(clade),
                                    predicates=(Comparison(
                                        "p_affinity", ">=",
                                        round(5.0 + 3.0 * second, 2)),))
                elif family == "substructure":
                    if not fragments:
                        fragments = list(QueryGenerator.FRAGMENTS)
                        rng.shuffle(fragments)
                    query = replace(generator.substructure(),
                                    substructure=SubstructureFilter(
                                        fragments.pop()))
                else:
                    query = generator.draw(family)
                yield family, query

    def warm(self) -> None:
        """One query of every family: lazy column stores, kernels and
        chemistry state are built here, not in the measured window.
        The semantic cache is emptied again, so the measured stream
        does not start with hits these queries left behind."""
        stream = self._stream(self.seed)
        for family, query in itertools.islice(stream, len(SCAN_FAMILIES)):
            self.engine.execute(query)
        self.engine.cache.invalidate()

    def run(self, seconds: float, max_s: float) -> None:
        out = self.outcome
        sampler = random.Random(f"scan-check:{self.seed}")
        self.sampled = []
        stream = self._stream(self.seed)
        intervals: dict[int, tuple[float, float]] = {}
        queries = _work(seconds, self.QUERIES_PER_S,
                        ROUNDS * ROUND_SAMPLES)
        started = perf()
        self.rec.recording = True
        while out.attempted < queries and perf() - started < max_s:
            self.speed.tick()
            family, query = next(stream)
            self.rec.op += 1
            out.family_of_op[self.rec.op] = family
            out.attempted += 1
            t0 = perf()
            try:
                result = self.engine.execute(query)
            except Exception as exc:  # a raised query is a failed op
                out.fail(f"{family} raised {exc!r}: {query}")
                continue
            intervals[self.rec.op] = (t0, perf())
            if sampler.random() < 0.01 and len(self.sampled) < NAIVE_SAMPLE:
                self.sampled.append((family, query,
                                     answer_key(query, result.rows)))
        self.rec.recording = False
        self.speed.tick(force=True)
        out.time_ops(intervals, self.speed, self.LIMIT_S)
        out.describe = {
            "world": self.world,
            "families": list(SCAN_FAMILIES),
            "clients": 1,
            "loop": "closed",
            "semantic_cache_capacity": self.engine.config.cache_capacity,
            "limit_s": self.LIMIT_S,
        }

    def check(self) -> None:
        naive = NaiveEngine(self.dataset.tree, self.dataset.registry)
        for family, query, key in self.sampled:
            if key != answer_key(query, naive.execute(query).rows):
                self.outcome.fail(f"{family} answer differs from "
                                  f"NaiveEngine: {query}")


# -- ingest_mix ---------------------------------------------------------


class IngestMix(_Workload):
    """Binding inserts and deletes on a durable store, interleaved at a
    fixed ratio with small subtree reads that the benchmark checks
    against its own copy of the live rows."""

    name = "ingest_mix"
    N_LEAVES, N_LIGANDS = 100, 150
    #: One cycle: I = insert, D = delete, R = read.
    CYCLE = "IIRIDIIRID"
    #: Reads target clades with at most this many leaves.
    SMALL_CLADE = 12
    #: Durable figures are taken after this many operations, so they
    #: repeat exactly for a seed.
    CHECKPOINT_OPS = 3000
    #: Latency limit for goodput, reference seconds (speed.py).
    LIMIT_S = 0.05
    FSYNC = "batch"
    #: Operations per second of ``--seconds``: the work of a run.
    OPS_PER_S = 750

    def __init__(self, *args) -> None:
        super().__init__(*args)
        probes.install_query(self.rec, self.traced,
                             on_execute=self._on_execute)
        probes.install_storage(self.rec, self.traced)
        self.data_dir = None

    def _storage(self) -> StorageConfig:
        return StorageConfig(durable=True, data_dir=self.data_dir,
                             fsync=self.FSYNC)

    def setup(self, marks: dict) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="ingest-",
                                         dir=self.workdir)
        self._build(marks, storage=self._storage())
        self.engine = QueryEngine(self.drugtree)
        root = self.dataset.family.clade_names[0]
        self.engine.execute("SELECT count(*), mean(p_affinity), "
                            f"max(p_affinity) IN SUBTREE '{root}'")
        marks["first"] = time.monotonic()

    def close(self) -> None:
        if getattr(self, "drugtree", None) is not None:
            self.drugtree.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def warm(self) -> None:
        table = self.drugtree.tables["bindings"]
        #: The benchmark's own copy: row id -> row, and per protein.
        self.live = {row_id: table.get_dict(row_id)
                     for row_id, _ in table.scan()}
        self.live_ids = list(self.live)
        self.position = {row_id: i for i, row_id in
                         enumerate(self.live_ids)}
        self.by_protein: dict[str, set[int]] = {}
        for row_id, row in self.live.items():
            self.by_protein.setdefault(row["protein_id"], set()).add(
                row_id)
        self.clades = []
        for node in self.dataset.tree.preorder():
            if node.is_leaf or not node.name:
                continue
            leaves = [leaf.name for leaf in node.leaves()]
            if len(leaves) <= self.SMALL_CLADE:
                self.clades.append((node.name, leaves))
        self.ligand_ids = [lig.ligand_id for lig in self.dataset.ligands]
        self.protein_ids = self.dataset.family.protein_ids

    # The benchmark's copy of the live rows.

    def _remember(self, row_id: int, row: dict) -> None:
        self.live[row_id] = row
        self.position[row_id] = len(self.live_ids)
        self.live_ids.append(row_id)
        self.by_protein.setdefault(row["protein_id"], set()).add(row_id)

    def _forget(self, row_id: int) -> None:
        row = self.live.pop(row_id)
        index = self.position.pop(row_id)
        last = self.live_ids.pop()
        if last != row_id:
            self.live_ids[index] = last
            self.position[last] = index
        self.by_protein[row["protein_id"]].discard(row_id)

    def _rows_in(self, leaves):
        for protein_id in leaves:
            for row_id in self.by_protein.get(protein_id, ()):
                yield self.live[row_id]

    def _read(self, kind: str, rng: random.Random):
        """A read and its expected answer from the benchmark's copy."""
        clade, leaves = rng.choice(self.clades)
        rows = list(self._rows_in(leaves))
        if kind == "clade_agg":
            values = [row["p_affinity"] for row in rows]
            expected = [{
                "count_all": len(values),
                "mean_p_affinity":
                    sum(values) / len(values) if values else None,
                "max_p_affinity": max(values) if values else None,
            }]
            return (kind, "SELECT count(*), mean(p_affinity), "
                    f"max(p_affinity) IN SUBTREE '{clade}'", expected)
        columns = ("ligand_id", "protein_id", "p_affinity")
        if kind == "subtree_filter":
            threshold = round(rng.uniform(5.0, 8.0), 2)
            expected = [{c: row[c] for c in columns} for row in rows
                        if row["p_affinity"] >= threshold]
            return (kind, "SELECT ligand_id, protein_id, p_affinity "
                    f"FROM bindings WHERE p_affinity >= {threshold} "
                    f"IN SUBTREE '{clade}'", expected)
        rows.sort(key=lambda row: row["p_affinity"], reverse=True)
        expected = [{c: row[c] for c in columns} for row in rows[:10]]
        return (kind, "SELECT ligand_id, protein_id, p_affinity FROM "
                f"bindings IN SUBTREE '{clade}' ORDER BY p_affinity "
                "DESC LIMIT 10", expected)

    def _insert(self, rng: random.Random, serial: int):
        p_affinity = round(rng.uniform(4.5, 9.5), 3)
        record = BindingRecord(
            ligand_id=rng.choice(self.ligand_ids),
            protein_id=rng.choice(self.protein_ids),
            activity_type=rng.choice(list(ActivityType)),
            value_nm=10.0 ** (9.0 - p_affinity),
            assay_id=f"bench_{serial:07d}", source="perfbench")
        row = {
            "ligand_id": record.ligand_id,
            "protein_id": record.protein_id,
            "activity_type": record.activity_type.value,
            "value_nm": record.value_nm,
            "p_affinity": record.p_affinity,
            "potent": record.is_potent,
            "leaf_pre": self.drugtree.labeling.leaf_position(
                record.protein_id),
        }
        return record, row

    def _checkpoint(self, writes: int, counters_before: dict) -> None:
        """Flush and take the durable figures (outside the timers)."""
        database = self.drugtree.database
        database.flush()
        size = sum(os.path.getsize(os.path.join(self.data_dir, name))
                   for name in os.listdir(self.data_dir))
        live_bytes = 0
        for name, table in self.drugtree.tables.items():
            rows = (self.live.values() if name == "bindings" else
                    (table.get_dict(row_id) for row_id, _ in table.scan()))
            for row in rows:
                live_bytes += len(json.dumps(list(row.values()),
                                             separators=(",", ":")))
        counters = {key: value - counters_before.get(key, 0) for key, value
                    in get_metrics().counter_values().items()}
        per_k = 1000.0 / writes
        self.outcome.layers.update({
            "durable.space_amp": size / live_bytes,
            "durable.wal_bytes_per_row":
                counters.get("wal.bytes", 0) / writes,
            "durable.fsyncs_per_1k_writes":
                counters.get("wal.fsyncs", 0) * per_k,
            "durable.flushes_per_1k_writes":
                counters.get("lsm.flushes", 0) * per_k,
            "durable.compactions_per_1k_writes":
                counters.get("lsm.compactions", 0) * per_k,
        })

    def run(self, seconds: float, max_s: float) -> None:
        out = self.outcome
        rng = random.Random(f"ingest:{self.seed}")
        table = self.drugtree.tables["bindings"]
        reads = ("clade_agg", "subtree_filter", "topk")
        counters_before = get_metrics().counter_values()
        intervals: dict[int, tuple[float, float]] = {}
        # Enough cycles for ROUND_SAMPLES reads in every round.
        cycles = -(-ROUNDS * ROUND_SAMPLES // self.CYCLE.count("R"))
        total = _work(seconds, self.OPS_PER_S, cycles * len(self.CYCLE))
        started = perf()
        self.rec.recording = True
        ops = 0
        while ops < self.CHECKPOINT_OPS or (
                ops < total and perf() - started < max_s):
            self.speed.tick()
            kind = self.CYCLE[ops % len(self.CYCLE)]
            ops += 1
            self.rec.op = ops
            out.attempted += 1
            if kind == "R":
                family, text, expected = self._read(
                    reads[(ops // len(self.CYCLE)) % len(reads)], rng)
                out.family_of_op[ops] = family
            elif kind == "I":
                record, row = self._insert(rng, ops)
            else:
                victim = rng.choice(self.live_ids)
            t0 = perf()
            try:
                if kind == "R":
                    result = self.engine.execute(text)
                elif kind == "I":
                    row_id = self.drugtree.add_binding(record)
                else:
                    table.delete(victim)
            except Exception as exc:  # a raised operation failed
                out.fail(f"{kind} raised {exc!r}")
                continue
            intervals[ops] = (t0, perf())
            if kind == "R":
                if answer_key(text, result.rows) != answer_key(text,
                                                               expected):
                    out.fail(f"read differs from the live rows: {text}")
            elif kind == "I":
                out.writes += 1
                self._remember(row_id, row)
            else:
                out.writes += 1
                self._forget(victim)
            if ops == self.CHECKPOINT_OPS:
                self.rec.recording = False
                pause = perf()
                self._checkpoint(out.writes, counters_before)
                started += perf() - pause
                self.rec.recording = True
        self.rec.recording = False
        self.speed.tick(force=True)
        out.time_ops(intervals, self.speed, self.LIMIT_S)
        out.describe = {
            "world": self.world,
            "cycle": self.CYCLE,
            "fsync": self.FSYNC,
            "storage": "durable WAL + LSM",
            "checkpoint_ops": self.CHECKPOINT_OPS,
            "loop": "closed",
            "limit_s": self.LIMIT_S,
        }

    def check(self) -> None:
        """Close, reopen, and compare every recovered binding row with
        the acknowledged live rows."""
        self.drugtree.close()
        started = perf()
        reopened = DrugTree(self.dataset.tree, storage=self._storage())
        self.outcome.layers["durable.recover_s"] = perf() - started
        try:
            table = reopened.tables["bindings"]
            recovered = {row_id: table.get_dict(row_id)
                         for row_id, _ in table.scan()}
        finally:
            reopened.close()
        wrong = [row_id for row_id, row in self.live.items()
                 if recovered.get(row_id) != row]
        extra = [row_id for row_id in recovered if row_id not in self.live]
        if wrong or extra:
            self.outcome.fail(
                f"after reopen {len(wrong)} acknowledged rows missing or "
                f"changed, {len(extra)} deleted rows back "
                f"(first: {(wrong + extra)[:5]})",
                count=len(wrong) + len(extra))


WORKLOADS = {cls.name: cls for cls in (TapStream, ScanAnalytics,
                                       IngestMix)}
