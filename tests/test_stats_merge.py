"""Every counter of every stats block sums under ``merge``.

The blocks merge through one ``dataclasses.fields`` loop, so a counter
added later is summed without anyone remembering to list it.
(``BackendStats`` has its own check in ``test_routing_backends``.)  These tests
fill every numeric field (nested blocks included) with distinct values and
check each one sums.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

from repro.core.stats import QueryStats
from repro.shard.stats import ShardStats


def _fill(block, start: int) -> int:
    """Give every numeric field of ``block`` (recursively) a distinct value."""
    n = start
    for f in fields(block):
        value = getattr(block, f.name)
        if is_dataclass(value):
            n = _fill(value, n)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        else:
            n += 1
            setattr(block, f.name, type(value)(n))
    return n


def _leaves(block, prefix: str = ""):
    """``{dotted name: value}`` of every numeric field, recursively."""
    out = {}
    for f in fields(block):
        value = getattr(block, f.name)
        if is_dataclass(value):
            out.update(_leaves(value, f"{prefix}{f.name}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix + f.name] = value
    return out


def _assert_sums(merged, a, b):
    got, la, lb = _leaves(merged), _leaves(a), _leaves(b)
    assert set(got) == set(la) == set(lb)
    for name in got:
        assert got[name] == la[name] + lb[name], name


def test_query_stats_merge_sums_every_field():
    a, b = QueryStats(), QueryStats()
    a.shard, b.shard = ShardStats(), ShardStats()
    n = _fill(a, 0)
    _fill(b, n)
    a.shard.by_shard = {0: 1, 2: 5}
    b.shard.by_shard = {2: 7, 3: 1}
    b.backend_name = "shared-vg"
    before = QueryStats()
    before.shard = ShardStats()
    _fill(before, 0)
    a.merge(b)
    _assert_sums(a, before, b)
    # The loop reaches the routing block's newest counters too.
    assert {"backend.region_waves", "backend.bounded_rows"} <= \
        set(_leaves(a))
    assert a.shard.by_shard == {0: 1, 2: 12, 3: 1}
    assert a.backend_name == "shared-vg"


def test_query_stats_merge_creates_and_skips_absent_blocks():
    a, b = QueryStats(backend_name="per-query-vg"), QueryStats()
    b.shard = ShardStats(queries=2, by_shard={1: 2}, route_time_s=0.5)
    a.merge(b)
    assert a.shard == b.shard and a.shard is not b.shard
    assert a.backend_name == "per-query-vg"
    a.merge(QueryStats())
    assert a.shard.queries == 2


def test_shard_merge_sums_every_field():
    a, b, before = ShardStats(), ShardStats(), ShardStats()
    n = _fill(a, 0)
    _fill(before, 0)
    _fill(b, n)
    a.merge(b)
    _assert_sums(a, before, b)
