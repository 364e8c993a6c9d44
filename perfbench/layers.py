"""Per-layer metrics of a traced replay.

Times come from the spans of :mod:`tracing`, counts from the per-kind
counter deltas of the replay (``q.*``: the answers' ``QueryStats``;
``ws.*``: the live workspaces' ``BackendStats``, ``CacheStats``,
``PageTracker``, ``ShardStats`` and ``MaintenanceStats``).  Span times and
the stats blocks' own wall times (``shard.*_ms``, ``routing.build_s``) are
both speed-scaled per operation, so they read on one scale.  Each metric is
listed with the end-to-end metric it should move in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from stats import percentile, ratio
from tracing import Tracer

UNITS: Dict[str, str] = {
    "index.page_reads_per_query": "count",
    "index.buffer_hit_rate": "ratio",
    "index.update_ms_per_op": "ms",
    "service.retrieval_ms_per_query": "ms",
    "service.cache_hit_rate": "ratio",
    "service.cache_fetched_per_query": "count",
    "service.apply_self_ms": "ms",
    "query.plan_ms_per_query": "ms",
    "query.execute_self_ms": "ms",
    "core.cplc_ms_per_query": "ms",
    "core.split_solves_per_query": "count",
    "core.prune_ratio": "ratio",
    "core.npe_per_query": "count",
    "core.noe_per_query": "count",
    "core.svg_size_per_query": "count",
    "core.ior_rounds_per_query": "count",
    "routing.traverse_ms_per_query": "ms",
    "routing.settled_per_query": "count",
    "routing.replay_rate": "ratio",
    "routing.attach_ms_per_query": "ms",
    "routing.graphs_built_per_query": "count",
    "routing.build_s": "s",
    "obstacles.materialize_ms_per_query": "ms",
    "obstacles.rows_bulk_per_query": "count",
    "obstacles.repair_ms_per_removal": "ms",
    "obstacles.repair_retests_per_removal": "count",
    "geometry.kernel_ms_per_query": "ms",
    "geometry.kernel_launches_per_query": "count",
    "geometry.edges_tested_per_query": "count",
    "geometry.prefilter_skip_ratio": "ratio",
    "monitor.notify_ms_per_update": "ms",
    "monitor.noop_rate": "ratio",
    "monitor.repairs_per_update": "count",
    "monitor.reruns_per_update": "count",
    "shard.route_ms_per_query": "ms",
    "shard.reexec_ms_per_query": "ms",
    "shard.merge_build_ms_per_query": "ms",
    "shard.fanout_ratio": "ratio",
    "shard.expansion_rate": "ratio",
    "shard.merge_reuse_rate": "ratio",
    "trace.overhead_ms": "ms",
    "trace.spans_per_op": "count",
}

UPDATE_KINDS = ("AddSite", "RemoveSite", "AddObstacle", "RemoveObstacle")


def span_totals(ops: Sequence, scale: Sequence[float], tracer: Tracer
                ) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """``kind -> span name -> (outer ms, self ms)`` summed over the ops of
    each kind (``query``, ``update`` and each update class), each op's
    spans scaled by its speed ``scale``."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for op_id, rows in tracer.by_op().items():
        if op_id < 0:
            continue
        op = ops[op_id]
        ms = 1000.0 * scale[op_id]
        kinds = (("query",) if op.kind == "query"
                 else ("update", type(op.payload).__name__))
        for kind in kinds:
            acc = out.setdefault(kind, {})
            for name, (outer, own, _calls) in rows.items():
                cell = acc.setdefault(name, [0.0, 0.0])
                cell[0] += outer * ms
                cell[1] += own * ms
    return {k: {n: tuple(v) for n, v in rows.items()}
            for k, rows in out.items()}


def per_layer(ops: Sequence, traced, tracer: Tracer,
              plain_query_ms: List[float]) -> Dict[str, float]:
    """Every metric of :data:`UNITS` for one traced replay."""
    spans = span_totals(ops, traced.scale, tracer)
    q = traced.counts.get("query", Counter())
    upd: Counter = Counter()
    for kind in UPDATE_KINDS:
        upd.update(traced.counts.get(kind, Counter()))
    removals = traced.counts.get("RemoveObstacle", Counter())
    nq, nu, nr = q["ops"], upd["ops"], removals["ops"]

    def outer(kind: str, name: str) -> float:
        return spans.get(kind, {}).get(name, (0.0, 0.0))[0]

    def own(kind: str, name: str) -> float:
        return spans.get(kind, {}).get(name, (0.0, 0.0))[1]

    prunes = (q["q.lemma1_prunes"] + q["q.lemma6_prunes"]
              + q["q.lemma7_cutoffs"] + q["q.global_bound_cutoffs"])
    runs = q["q.backend.dijkstra_runs"] + q["q.backend.dijkstra_replays"]
    merges = q["q.shard.merges_built"] + q["q.shard.merge_reuses"]
    monitor_steps = (upd["ws.monitor.noops"] + upd["ws.monitor.repairs"]
                     + upd["ws.monitor.reruns"])
    traced_ms = [v * 1000.0 for v in traced.latency["query"]]
    metrics = {
        "index.page_reads_per_query": ratio(q["q.io.logical_reads"], nq),
        "index.buffer_hit_rate": ratio(
            q["q.io.logical_reads"] - q["q.io.page_faults"],
            q["q.io.logical_reads"]),
        "index.update_ms_per_op": ratio(outer("update", "index.update"), nu),
        "service.retrieval_ms_per_query": ratio(
            outer("query", "service.retrieval"), nq),
        "service.cache_hit_rate": ratio(
            q["q.cache_hits"], q["q.cache_hits"] + q["q.cache_misses"]),
        "service.cache_fetched_per_query": ratio(q["ws.cache.fetched"], nq),
        "service.apply_self_ms": ratio(own("update", "service.apply"), nu),
        "query.plan_ms_per_query": ratio(outer("query", "query.plan"), nq),
        "query.execute_self_ms": ratio(own("query", "query.execute"), nq),
        "core.cplc_ms_per_query": ratio(own("query", "core.cplc"), nq),
        "core.split_solves_per_query": ratio(q["q.split_solves"], nq),
        "core.prune_ratio": ratio(prunes, prunes + q["q.split_solves"]),
        "core.npe_per_query": ratio(q["q.npe"], nq),
        "core.noe_per_query": ratio(q["q.noe"], nq),
        "core.svg_size_per_query": ratio(q["q.svg_size"], nq),
        "core.ior_rounds_per_query": ratio(
            q["q.cache_hits"] + q["q.cache_misses"], nq),
        "routing.traverse_ms_per_query": ratio(
            own("query", "routing.traverse"), nq),
        "routing.settled_per_query": ratio(q["q.backend.nodes_settled"], nq),
        "routing.replay_rate": ratio(q["q.backend.dijkstra_replays"], runs),
        "routing.attach_ms_per_query": ratio(
            outer("query", "routing.attach"), nq),
        "routing.graphs_built_per_query": ratio(
            q["q.backend.graphs_built"], nq),
        "routing.build_s": q["q.backend.build_time_s"]
        + upd["ws.backend.build_time_s"],
        "obstacles.materialize_ms_per_query": ratio(
            outer("query", "obstacles.materialize"), nq),
        "obstacles.rows_bulk_per_query": ratio(
            q["q.backend.rows_bulk_materialized"], nq),
        "obstacles.repair_ms_per_removal": ratio(
            outer("RemoveObstacle", "obstacles.repair"), nr),
        "obstacles.repair_retests_per_removal": ratio(
            removals["ws.backend.repair_retested_pairs"], nr),
        "geometry.kernel_ms_per_query": ratio(
            outer("query", "geometry.kernel"), nq),
        "geometry.kernel_launches_per_query": ratio(
            q["q.backend.batch_visibility_calls"], nq),
        "geometry.edges_tested_per_query": ratio(
            q["q.backend.batched_edges_tested"], nq),
        "geometry.prefilter_skip_ratio": ratio(
            q["q.backend.kernel_pruned_edges"],
            q["q.backend.kernel_pruned_edges"]
            + q["q.backend.batched_edges_tested"]),
        "monitor.notify_ms_per_update": ratio(
            outer("update", "monitor.notify"), nu),
        "monitor.noop_rate": ratio(upd["ws.monitor.noops"], monitor_steps),
        "monitor.repairs_per_update": ratio(upd["ws.monitor.repairs"], nu),
        "monitor.reruns_per_update": ratio(upd["ws.monitor.reruns"], nu),
        "shard.route_ms_per_query": ratio(
            q["q.shard.route_time_s"] * 1000.0, nq),
        "shard.reexec_ms_per_query": ratio(
            q["q.shard.reexec_time_s"] * 1000.0, nq),
        "shard.merge_build_ms_per_query": ratio(
            q["q.shard.merge_build_time_s"] * 1000.0, nq),
        "shard.fanout_ratio": ratio(q["q.shard.fanout"],
                                    q["q.shard.queries"]),
        "shard.expansion_rate": ratio(q["q.shard.border_expansions"],
                                      q["q.shard.queries"]),
        "shard.merge_reuse_rate": ratio(q["q.shard.merge_reuses"], merges),
        "trace.overhead_ms": percentile(traced_ms, 50)
        - percentile(plain_query_ms, 50),
        "trace.spans_per_op": ratio(len(tracer), len(ops)),
    }
    assert metrics.keys() == UNITS.keys()
    return metrics
