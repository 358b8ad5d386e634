"""Span tracing of one assembly, taken from outside the program.

The assembler has no tracing of its own, so the traced run wraps, for
the duration of one ``assemble()`` call, the module attributes that
``repro.core.focus`` and the layers below it call: each wrapped call
becomes a span (name, start, end, parent span).  Spans stay in memory
and are written out with the run's result.  Nothing under ``src/`` is
changed; every attribute is restored when the run ends.

What this cannot see: calls made inside pool workers (the overlap pool
and the ``process`` backend) and inside service worker processes run in
other interpreters, so spans stop at the pool boundary (the parent's
``parallel.align_pool`` / ``parallel.stage.*`` spans cover the whole
pooled stage) and the store cache counters cover the parent process's
caches only.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

#: span names whose nested re-entry (same name already open in this
#: thread) is folded into the outer span, e.g. the overlap pool's
#: serial fallback calling ``find_overlaps`` from ``find_overlaps_processes``.
_FOLD_REENTRY = frozenset({"align"})

#: the finish stages the backends run, in pipeline order.
FINISH_STAGES = ("transitive", "containment", "dead_ends", "bubbles", "traversal")


class MissingSpanError(RuntimeError):
    """An expected span never fired during a traced run."""


class Tracer:
    """In-memory span recorder (thread-aware parent tracking)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.caches: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if name in _FOLD_REENTRY and any(s["name"] == name for s in stack):
            yield {"attrs": {}}  # the outer span records the counters
            return
        rec = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, record=None):
        """``fn`` timed as span ``name``; ``record(attrs, out, args, kwargs)``
        may add counters to the span after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(rec["attrs"], out, args, kwargs)
                return out

        return traced


@contextmanager
def patched(patches):
    """Temporarily set ``owner.attr = value`` for each triple."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _alive_edges(dag) -> int:
    g = dag.graph
    alive = dag.edge_alive & dag.node_alive[g.eu] & dag.node_alive[g.ev]
    return int(alive.sum())


def probes(tracer: Tracer) -> list[tuple]:
    """The (owner, attribute, wrapper) table of one traced run."""
    import repro.core.focus as focus
    import repro.distributed.dgraph as dgraph
    import repro.graph.hybrid as hybrid
    import repro.parallel.executor as executor
    import repro.store.reads as store_reads
    from repro.align.overlapper import OverlapDetector
    from repro.analysis.mapping import SequenceMapper
    from repro.graph.overlap_graph import OverlapGraph
    from repro.io.readset import ReadSet
    from repro.store.cache import ShardCache

    wrap = tracer.wrap
    create_backend = focus.create_backend
    from_overlaps = OverlapGraph.__dict__["from_overlaps"].__func__
    rs_open = ReadSet.__dict__["open"].__func__
    cache_init = ShardCache.__init__

    def align_counts(attrs, out, args, kwargs):
        attrs["candidates"] = int(args[0].last_candidates)
        attrs["overlaps"] = len(out)

    def traced_backend(*args, **kwargs):
        with tracer.span("parallel.create_backend"):
            runner = create_backend(*args, **kwargs)
        dag = args[1]
        run_stage = runner.run_stage

        def stage(name, **params):
            before = _alive_edges(dag)
            with tracer.span(f"parallel.stage.{name}") as rec:
                out = run_stage(name, **params)
            rec["attrs"]["edges_removed"] = before - _alive_edges(dag)
            report = runner.fault_report
            rec["attrs"]["retries"] = int(report.retries) if report else 0
            rec["attrs"]["fallbacks"] = int(report.fallbacks) if report else 0
            return out

        runner.run_stage = stage
        return runner

    def counting_cache_init(self, *args, **kwargs):
        cache_init(self, *args, **kwargs)
        tracer.caches.append(self)

    return [
        (focus.FocusAssembler, "preprocess", wrap(
            "io.preprocess", focus.FocusAssembler.preprocess,
            lambda a, out, *_: a.update(reads_out=len(out)))),
        (OverlapDetector, "find_overlaps",
         wrap("align", OverlapDetector.find_overlaps, align_counts)),
        (OverlapDetector, "find_overlaps_processes",
         wrap("align", OverlapDetector.find_overlaps_processes, align_counts)),
        (executor, "run_subset_pairs", wrap(
            "parallel.align_pool", executor.run_subset_pairs,
            lambda a, out, *_: a.update(tasks=out[1].n_tasks))),
        (OverlapGraph, "from_overlaps", classmethod(wrap(
            "graph.from_overlaps", from_overlaps,
            lambda a, out, *_: a.update(edges=int(out.n_edges))))),
        (focus, "build_multilevel_set", wrap(
            "graph.coarsen", focus.build_multilevel_set,
            lambda a, out, *_: a.update(levels=int(out.n_levels)))),
        (focus, "build_hybrid_set", wrap(
            "graph.hybrid", focus.build_hybrid_set,
            lambda a, out, *_: a.update(nodes=int(out.hybrid.n_nodes)))),
        (hybrid, "cluster_layout_offsets",
         wrap("graph.layout", hybrid.cluster_layout_offsets)),
        (dgraph, "cluster_layout_offsets",
         wrap("graph.layout", dgraph.cluster_layout_offsets)),
        (focus, "enrich_hybrid", wrap("distributed.enrich", focus.enrich_hybrid)),
        (focus, "partition_via_hybrid", wrap(
            "partition", focus.partition_via_hybrid,
            lambda a, out, *_: a.update(cut_g0=float(out.cut_g0)))),
        (focus, "partition_via_multilevel", wrap(
            "partition", focus.partition_via_multilevel,
            lambda a, out, *_: a.update(cut_g0=float(out.cut_g0)))),
        (focus, "create_backend", traced_backend),
        (focus, "contigs_from_paths", wrap(
            "distributed.contigs_from_paths", focus.contigs_from_paths,
            lambda a, out, args, kw: a.update(paths=len(args[1])))),
        (focus, "deduplicate_contigs", wrap(
            "core.dedupe", focus.deduplicate_contigs,
            lambda a, out, args, kw: a.update(n_in=len(args[0]), kept=len(out)))),
        (SequenceMapper, "__init__",
         wrap("core.mapper_build", SequenceMapper.__init__)),
        (ReadSet, "open", classmethod(wrap("store.open", rs_open))),
        (store_reads, "pack_reads", wrap("store.pack", store_reads.pack_reads)),
        (ShardCache, "__init__", counting_cache_init),
    ]


#: spans every in-process assembly must fire.
CORE_SPANS = (
    "io.preprocess",
    "align",
    "graph.from_overlaps",
    "graph.coarsen",
    "graph.hybrid",
    "graph.layout",
    "distributed.enrich",
    "partition",
    "parallel.create_backend",
    *(f"parallel.stage.{s}" for s in FINISH_STAGES),
    "distributed.contigs_from_paths",
    "core.dedupe",
    "core.mapper_build",
)

#: extra spans of the store-backed, pooled workload.
STORE_SPANS = ("store.open", "store.pack", "parallel.align_pool")


def expected_spans(workload: str) -> tuple[str, ...]:
    if workload == "store-process":
        return CORE_SPANS + STORE_SPANS
    if workload == "service":
        return ()
    return CORE_SPANS


def check_expected(spans: list[dict], expected) -> None:
    """Raise :class:`MissingSpanError` naming every span that never fired."""
    fired = {s["name"] for s in spans}
    missing = [name for name in expected if name not in fired]
    if missing:
        raise MissingSpanError(f"expected spans never fired: {missing}")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name not covered by that span's child spans."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out


def _under(spans: list[dict], span: dict, ancestor: str) -> bool:
    """Whether a span named ``ancestor`` encloses ``span``
    (``spans[i]["id"] == i``)."""
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == ancestor:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans: list[dict], caches: list) -> dict[str, float]:
    """Per-layer metrics of one traced in-process assembly."""

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    m["align.s"] = total("align")
    m["align.candidates"] = attr_sum("align", "candidates")
    m["align.overlaps"] = attr_sum("align", "overlaps")
    m["align.yield"] = (
        m["align.overlaps"] / m["align.candidates"] if m["align.candidates"] else 0.0
    )

    builds = [s for s in named("core.mapper_build") if _under(spans, s, "core.dedupe")]
    m["core.dedupe_s"] = total("core.dedupe")
    m["core.dedupe_in"] = attr_sum("core.dedupe", "n_in")
    m["core.dedupe_kept"] = attr_sum("core.dedupe", "kept")
    m["core.mapper_builds"] = len(builds)
    m["core.mapper_builds_per_kept"] = (
        len(builds) / m["core.dedupe_kept"] if m["core.dedupe_kept"] else 0.0
    )

    m["graph.from_overlaps_s"] = total("graph.from_overlaps")
    m["graph.g0_edges"] = attr_sum("graph.from_overlaps", "edges")
    m["graph.coarsen_s"] = total("graph.coarsen")
    m["graph.levels"] = attr_sum("graph.coarsen", "levels")
    m["graph.hybrid_s"] = total("graph.hybrid")
    m["graph.hybrid_nodes"] = attr_sum("graph.hybrid", "nodes")
    m["graph.layout_calls"] = len(named("graph.layout"))
    m["graph.layout_s"] = total("graph.layout")

    m["distributed.enrich_s"] = total("distributed.enrich")
    m["distributed.contigs_from_paths_s"] = total("distributed.contigs_from_paths")
    m["distributed.paths"] = attr_sum("distributed.contigs_from_paths", "paths")

    m["io.preprocess_s"] = total("io.preprocess")
    m["io.reads_out"] = attr_sum("io.preprocess", "reads_out")
    m["store.open_s"] = total("store.open")
    m["store.derived_pack_s"] = sum(
        s["end"] - s["start"]
        for s in named("store.pack")
        if _under(spans, s, "io.preprocess")
    )
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    m["store.cache_hits"] = hits
    m["store.cache_misses"] = misses
    m["store.cache_evictions"] = sum(c.evictions for c in caches)
    m["store.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0

    m["parallel.create_backend_s"] = total("parallel.create_backend")
    last_stage = None
    for stage in FINISH_STAGES:
        name = f"parallel.stage.{stage}"
        m[f"parallel.stage_s.{stage}"] = total(name)
        m[f"parallel.edges_removed.{stage}"] = attr_sum(name, "edges_removed")
        if named(name):
            last_stage = named(name)[-1]
    m["parallel.align_pool_tasks"] = attr_sum("parallel.align_pool", "tasks")
    m["parallel.retries"] = last_stage["attrs"]["retries"] if last_stage else 0
    m["parallel.fallbacks"] = last_stage["attrs"]["fallbacks"] if last_stage else 0

    m["partition.s"] = total("partition")
    m["partition.cut_g0"] = attr_sum("partition", "cut_g0")
    return m


def service_metrics(journals: list[list], passes: int) -> dict[str, float]:
    """Per-job means of the service phases, read from journal timestamps.

    ``prepare_s`` runs from ``running`` to the first stage checkpoint
    (so it also holds partitioning and transitive reduction, ~1% of
    it); ``finish_s`` spans the first to the last stage checkpoint;
    ``contigs_s`` runs from the last checkpoint to ``done``.
    """
    keys = ("queue_wait_s", "spawn_s", "prepare_s", "finish_s", "contigs_s")
    sums = dict.fromkeys(keys, 0.0)
    checkpoints = attempts = 0
    for entries in journals:
        first = {}
        for e in entries:
            first.setdefault(e.state_to, e.ts)
        ckpts = [e.ts for e in entries if e.state_to == "checkpointing"]
        checkpoints += len(ckpts)
        attempts += max(e.attempt for e in entries)
        sums["queue_wait_s"] += first["leased"] - first["queued"]
        sums["spawn_s"] += first["running"] - first["leased"]
        sums["prepare_s"] += ckpts[0] - first["running"]
        sums["finish_s"] += ckpts[-1] - ckpts[0]
        sums["contigs_s"] += first["done"] - ckpts[-1]
    n = max(len(journals), 1)
    m = {f"service.{k}": v / n for k, v in sums.items()}
    m["service.checkpoints"] = checkpoints
    m["service.attempts"] = attempts
    m["service.supervisor_passes"] = passes
    return m
