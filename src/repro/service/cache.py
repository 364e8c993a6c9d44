"""Cross-query obstacle caching: the heart of the service layer.

IOR (Algorithm 1) retrieves obstacles per query, so a workload of many
correlated queries over one dataset — continuous/moving queries, trajectory
legs, batches — pays the same obstacle-tree I/O over and over.
:class:`ObstacleCache` amortizes it across queries: every obstacle ever
pulled from the tree is kept, together with *coverage capsules* recording
which regions of the plane have been exhaustively fetched, and later
retrieval rounds whose footprint provably falls inside a recorded capsule
are served entirely from memory.

Soundness of the coverage test.  A capsule ``(spine s, radius r)`` asserts
"every obstacle of the dataset whose MBR lies within mindist ``r`` of ``s``
is cached".  A request ``(q, r')`` (all obstacles within ``r'`` of segment
``q``) is contained in that capsule when::

    max(dist(q.start, s), dist(q.end, s)) + r' <= r

because ``dist(., s)`` is convex along ``q``, so the endpoint maximum bounds
``dist(x, s)`` for every ``x`` within ``r'`` of ``q``.  When no capsule
contains the request, the per-query view falls back to a best-first tree
scan — exactly the cold path of :class:`~repro.core.ior.ObstacleRetriever` —
and the scanned footprint becomes a new capsule.

Staleness under index mutations.  A capsule is a statement about the
*dataset*, so any mutation of the obstacle tree can silently falsify it.
The cache therefore records the tree's mutation counter
(:attr:`~repro.index.rstar.RStarTree.version`) and re-checks it before
every coverage decision: an unannounced mutation triggers a guarded full
:meth:`~ObstacleCache.invalidate` — never silent staleness.  Mutations
routed through :meth:`Workspace.add_obstacle` /
:meth:`Workspace.remove_obstacle` instead announce themselves via
:meth:`~ObstacleCache.note_obstacle_insert` /
:meth:`~ObstacleCache.note_obstacle_remove`, which maintain the cache
*surgically*: an inserted obstacle is patched into the cached set (every
capsule that covers its footprint regains completeness), a removed one is
evicted, and any capsule whose completeness can no longer be proven is
dropped.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Set, Tuple

from ..core.ior import TreeObstacleFetcher
from ..core.stats import QueryStats
from ..geometry.predicates import EPS
from ..geometry.rectangle import Rect, segment_mindist_lower
from ..geometry.segment import Segment
from ..index.rstar import RStarTree
from ..obstacles.obstacle import Obstacle
from ..obstacles.visgraph import LocalVisibilityGraph
from .concurrency import CountingRLock

MAX_CAPSULES = 128
"""Coverage capsules kept per cache; the oldest go first (their obstacles
stay cached — only the *proof of exhaustiveness* is dropped)."""


class Capsule(NamedTuple):
    """A coverage capsule: every obstacle within ``radius`` of the spine
    segment ``(ax, ay) - (bx, by)`` is resident in the cache."""

    ax: float
    ay: float
    bx: float
    by: float
    radius: float

    @property
    def spine(self) -> Segment:
        """The capsule's spine segment."""
        return Segment(self.ax, self.ay, self.bx, self.by)

    def contains(self, qseg: Segment, radius: float) -> bool:
        """Does this capsule contain the capsule ``(qseg, radius)``?"""
        da = self.spine.dist_point(qseg.ax, qseg.ay)
        db = self.spine.dist_point(qseg.bx, qseg.by)
        return max(da, db) + radius <= self.radius + EPS

    def covers_rect(self, rect: Rect) -> bool:
        """Does this capsule's region intersect ``rect``?

        True when an obstacle with MBR ``rect`` falls under the capsule's
        completeness claim (``mindist(rect, spine) <= radius``).
        """
        return (rect.mindist_segment(self.ax, self.ay, self.bx, self.by)
                <= self.radius + EPS)


_Capsule = Capsule
"""Backward-compatible alias for the pre-NamedTuple type name."""


def rect_capsule(rect: Rect, margin: float) -> Tuple[Segment, float]:
    """The capsule (spine, radius) covering ``rect`` grown by ``margin``.

    Spined along the rectangle's longer axis.  Shared by
    :meth:`ObstacleCache.prefetch` and the batch executor's covered-check,
    which must predict exactly which capsule a prefetch would record.
    """
    xlo, ylo = rect.xlo - margin, rect.ylo - margin
    xhi, yhi = rect.xhi + margin, rect.yhi + margin
    if xhi - xlo >= yhi - ylo:
        yc = 0.5 * (ylo + yhi)
        return Segment(xlo, yc, xhi, yc), 0.5 * (yhi - ylo)
    xc = 0.5 * (xlo + xhi)
    return Segment(xc, ylo, xc, yhi), 0.5 * (xhi - xlo)


@dataclass
class CacheStats:
    """Cumulative counters for one :class:`ObstacleCache` (all queries)."""

    hits: int = 0
    """Retrieval rounds served without touching the obstacle tree."""

    misses: int = 0
    """Retrieval rounds that had to scan the obstacle tree."""

    served: int = 0
    """Obstacles handed to visibility graphs straight from the cache."""

    fetched: int = 0
    """Entries popped from the obstacle tree (including re-pops of cached ones)."""

    inserted: int = 0
    """Distinct obstacles resident in the cache."""

    prefetch_calls: int = 0
    """Number of :meth:`ObstacleCache.prefetch`-family invocations."""

    prefetched: int = 0
    """Obstacles loaded into the cache by prefetching."""

    patched: int = 0
    """Obstacle-tree inserts patched into the cached set surgically."""

    evicted: int = 0
    """Obstacle-tree removals evicted from the cached set surgically."""

    invalidations: int = 0
    """Guarded full invalidations (unannounced obstacle-tree mutations)."""

    @property
    def hit_rate(self) -> float:
        """Fraction of retrieval rounds served from cache (0 when none ran)."""
        rounds = self.hits + self.misses
        return self.hits / rounds if rounds else 0.0


class ObstacleCache:
    """A per-dataset obstacle cache shared by every query of a workspace.

    Args:
        obstacle_tree: the obstacle R*-tree (2T) or the unified tree (1T —
            non-:class:`~repro.obstacles.obstacle.Obstacle` payloads are
            ignored when fetching).
    """

    def __init__(self, obstacle_tree: RStarTree):
        self.tree = obstacle_tree
        self.fetcher = TreeObstacleFetcher(obstacle_tree)
        self.stats = CacheStats()
        self.epoch = 0
        """Bumped on every insertion/eviction; views use it to refresh
        rankings."""
        self._seen: Set[Obstacle] = set()
        self._obstacles: List[Obstacle] = []
        self._mbrs: List[Rect] = []
        self._capsules: List[Capsule] = []
        self._ranked_memo = None  # (qseg key, epoch, LazyRanking)
        self._tree_version = obstacle_tree.version
        self.lock = CountingRLock()
        """Guards every coverage decision and cached-set mutation.  Held
        for whole ``ensure`` rounds by :class:`CachedObstacleView`, so a
        round's covered-check, serving, and capsule recording are atomic
        with respect to concurrent queries; its ``contended`` counter
        feeds :class:`~repro.query.parallel.ConcurrencyStats`."""

    # ----------------------------------------------------------- maintenance
    def _validate(self) -> None:
        """Guard against unannounced tree mutations: invalidate on mismatch.

        Every coverage decision and every serving path funnels through this
        check, so a tree mutated behind the workspace's back can never be
        answered from stale capsules — the one-shot fallback is a full
        invalidation, after which every round is a (correct) cold miss.
        """
        if self.tree.version != self._tree_version:
            self.invalidate()

    def invalidate(self) -> None:
        """Drop every cached obstacle and every coverage capsule.

        Cached obstacles must go together with the capsules: a capsule
        recorded *after* a mutation would prove coverage over a cached set
        still containing obstacles deleted from the tree.
        """
        with self.lock:
            self._seen.clear()
            self._obstacles.clear()
            self._mbrs.clear()
            self._capsules.clear()
            self._ranked_memo = None
            self.epoch += 1
            self.stats.invalidations += 1
            self._tree_version = self.tree.version

    def sync_tree_version(self) -> None:
        """Adopt the tree's current version without invalidating.

        For mutations that provably cannot affect obstacle coverage — data
        point inserts/deletes on a 1T unified tree, where the cache's backing
        tree also indexes non-obstacle payloads.
        """
        with self.lock:
            self._tree_version = self.tree.version

    def _absorb_announced_mutation(self) -> bool:
        """Common version bookkeeping of the two ``note_obstacle_*`` hooks.

        Returns True when the surgical path may proceed; False when foreign
        (unannounced) mutations interleaved and a full invalidation already
        handled everything.
        """
        if self.tree.version != self._tree_version + 1:
            # More happened to the tree than the one announced mutation:
            # surgical repair cannot prove anything, fall back hard.
            self.invalidate()
            return False
        self._tree_version = self.tree.version
        return True

    def note_obstacle_insert(self, obstacle: Obstacle) -> None:
        """Announce that ``obstacle`` was just inserted into the tree.

        The obstacle is patched into the cached set, which keeps every
        recorded capsule valid: a capsule covering its footprint regains
        completeness the moment the obstacle is resident, and a capsule not
        covering it never claimed it.
        """
        with self.lock:
            if not self._absorb_announced_mutation():
                return
            if self.add(obstacle):
                self.stats.patched += 1

    def note_obstacle_remove(self, obstacle: Obstacle) -> None:
        """Announce that ``obstacle`` was just deleted from the tree.

        The obstacle is evicted from the cached set; capsules stay valid
        (their claim quantifies over the dataset, which shrank in lockstep
        with the cache).  If the obstacle was *not* resident yet its
        footprint lies under some capsule, that capsule's completeness was
        never real — those capsules are dropped.
        """
        with self.lock:
            if not self._absorb_announced_mutation():
                return
            mbr = obstacle.mbr()
            if any(item == obstacle for item in self.tree.range_search(mbr)):
                # A duplicate entry survived the delete: the dataset still
                # contains the obstacle, so the cached copy and every capsule
                # remain exactly right — evicting here would under-serve.
                return
            if self._evict(obstacle):
                return
            kept = [cap for cap in self._capsules
                    if not cap.covers_rect(mbr)]
            if len(kept) != len(self._capsules):
                self._capsules = kept

    def _evict(self, obstacle: Obstacle) -> bool:
        """Remove one obstacle from the cached set; True when it was there."""
        if obstacle not in self._seen:
            return False
        self._seen.discard(obstacle)
        idx = next(i for i, o in enumerate(self._obstacles) if o == obstacle)
        del self._obstacles[idx]
        del self._mbrs[idx]
        self._ranked_memo = None
        self.epoch += 1
        self.stats.evicted += 1
        return True

    # ------------------------------------------------------------ population
    def add(self, obstacle: Obstacle) -> bool:
        """Insert one obstacle; returns False when it was already cached."""
        with self.lock:
            if obstacle in self._seen:
                return False
            self._seen.add(obstacle)
            self._obstacles.append(obstacle)
            self._mbrs.append(obstacle.mbr())
            self.stats.inserted += 1
            self.epoch += 1
            return True

    def __len__(self) -> int:
        return len(self._obstacles)

    @property
    def obstacles(self) -> Sequence[Obstacle]:
        """Every obstacle currently resident in the cache (live list)."""
        return self._obstacles

    def resident(self) -> List[Obstacle]:
        """A point-in-time copy of the resident obstacle set.

        The concurrency-safe sibling of :attr:`obstacles` — callers that
        seed visibility graphs while other queries may be appending must
        copy under the cache lock.
        """
        with self.lock:
            return list(self._obstacles)

    # -------------------------------------------------------------- coverage
    def covered(self, qseg: Segment, radius: float) -> bool:
        """True when every obstacle within ``radius`` of ``qseg`` is cached."""
        with self.lock:
            self._validate()
            return any(cap.contains(qseg, radius) for cap in self._capsules)

    def record_coverage(self, qseg: Segment, radius: float) -> None:
        """Register that ``(qseg, radius)`` has been exhaustively fetched."""
        if radius <= 0.0:
            return
        with self.lock:
            new = Capsule(qseg.ax, qseg.ay, qseg.bx, qseg.by, float(radius))
            kept = [cap for cap in self._capsules
                    if not new.contains(cap.spine, cap.radius)]
            if not any(cap.contains(qseg, radius) for cap in kept):
                kept.append(new)
            self._capsules = kept[-MAX_CAPSULES:]

    @property
    def coverage_regions(self) -> int:
        """Number of coverage capsules currently recorded."""
        with self.lock:
            self._validate()
            return len(self._capsules)

    @property
    def capsules(self) -> Tuple[Capsule, ...]:
        """The recorded coverage capsules as ``(ax, ay, bx, by, radius)``.

        Ordered oldest to newest; the query planner reads them to estimate
        obstacle I/O and the batch executor calibrates its prefetch margins
        from the newest one.
        """
        with self.lock:
            self._validate()
            return tuple(self._capsules)

    # --------------------------------------------------------------- serving
    def ranked(self, qseg: Segment) -> "LazyRanking":
        """Cached obstacles keyed by ``mindist(MBR, qseg)``, ascending.

        The key function matches the tree scan's exactly (both evaluate
        ``Rect.mindist_segment`` on the obstacle's MBR), so a cache-served
        round admits precisely the obstacles a tree scan would have.  The
        ranking is lazy (see :class:`LazyRanking`): a view reading only
        the obstacles under its radius pays exact keys for about those.
        The last ranking is memoized together with its refined prefix, so
        a run of queries over one segment — the repeated-query workload the
        cache targets — ranks once, not once per view.
        """
        with self.lock:
            self._validate()
            key = (qseg.ax, qseg.ay, qseg.bx, qseg.by)
            memo = self._ranked_memo
            if memo is not None and memo[0] == key and memo[1] == self.epoch:
                return memo[2]
            ranked = LazyRanking(self._obstacles, self._mbrs, qseg)
            self._ranked_memo = (key, self.epoch, ranked)
            return ranked

    def view(self, qseg: Segment, vg: LocalVisibilityGraph,
             stats: QueryStats) -> "CachedObstacleView":
        """Open a per-query obstacle feed over this cache."""
        with self.lock:
            self._validate()
        return CachedObstacleView(self, qseg, vg, stats)

    # ------------------------------------------------------------ prefetching
    def prefetch_segment(self, qseg: Segment, radius: float) -> int:
        """Warm the cache with every obstacle within ``radius`` of ``qseg``.

        Returns:
            Number of obstacles newly inserted.
        """
        with self.lock:
            self._validate()
            self.stats.prefetch_calls += 1
            scan = self.fetcher.open_scan(qseg)
            added = 0
            while True:
                key = scan.peek_key()
                if math.isinf(key) or key > radius:
                    break
                _d, payload, _rect = scan.pop()
                self.stats.fetched += 1
                if isinstance(payload, Obstacle) and self.add(payload):
                    added += 1
            self.record_coverage(qseg, radius)
            self.stats.prefetched += added
            return added

    def prefetch(self, rect: Rect, margin: float = 0.0) -> int:
        """Warm the cache for a rectangular region of interest.

        The rectangle (grown by ``margin`` on every side) is covered by a
        capsule spined along its longer axis, so any later query whose
        retrieval footprint stays inside the capsule never touches the
        obstacle tree.

        Returns:
            Number of obstacles newly inserted.
        """
        spine, radius = rect_capsule(rect, margin)
        return self.prefetch_segment(spine, radius)

    def prefetch_all(self) -> int:
        """Drain the whole obstacle tree into the cache.

        Records an infinite coverage capsule, after which *no* query of the
        workspace ever reads the obstacle tree again.
        """
        return self.prefetch_segment(Segment(0.0, 0.0, 0.0, 0.0), math.inf)

    # ------------------------------------------------------------- snapshots
    def read_view(self) -> "CacheReadView":
        """A point-in-time descriptor of the cache's serving state.

        Pinned by :class:`~repro.service.snapshot.WorkspaceSnapshot`: the
        epoch and tree version say exactly which cached set a snapshot's
        queries were answered from, without copying the obstacles
        themselves.
        """
        with self.lock:
            return CacheReadView(self.epoch, len(self._obstacles),
                                 len(self._capsules), self._tree_version)


class CacheReadView(NamedTuple):
    """A frozen descriptor of one :class:`ObstacleCache` serving state."""

    epoch: int
    """Cache mutation epoch at pin time."""

    resident: int
    """Obstacles resident at pin time."""

    capsules: int
    """Coverage capsules recorded at pin time."""

    tree_version: int
    """The backing obstacle tree's mutation counter at pin time."""


class LazyRanking(Sequence):
    """Obstacles in ascending ``(mindist(MBR, qseg), index)`` order, keyed
    on demand.

    Holds a snapshot of the cached obstacles.  Every entry starts on a heap
    keyed by the cheap
    :func:`~repro.geometry.rectangle.segment_mindist_lower` bound; reading
    position ``i`` refines heads (exact
    ``Rect.mindist_segment`` swapped in place) until ``i + 1`` entries are
    exactly keyed and out.  Because the bound never exceeds the exact key,
    item ``i`` is exactly item ``i`` of the eagerly sorted
    ``[(mindist, index)]`` list — the same argument as
    :class:`~repro.index.nearest.IncrementalNearest`'s lazy keys.

    Reading mutates the heap, so a ranking shared through the memo is read
    only under the cache lock (views read it inside ``ensure`` rounds).
    """

    __slots__ = ("_qseg", "_obstacles", "_mbrs", "_heap", "_out")

    def __init__(self, obstacles: Sequence[Obstacle], mbrs: Sequence[Rect],
                 qseg: Segment):
        self._qseg = (qseg.ax, qseg.ay, qseg.bx, qseg.by)
        self._obstacles = tuple(obstacles)
        self._mbrs = tuple(mbrs)
        lower = segment_mindist_lower(*self._qseg)
        # (key, index, exact): indices are unique, so ``exact`` is never
        # compared.
        self._heap = [(lower(mbr), i, False)
                      for i, mbr in enumerate(self._mbrs)]
        heapq.heapify(self._heap)
        self._out: List[Tuple[float, Obstacle]] = []

    def __len__(self) -> int:
        return len(self._obstacles)

    def __getitem__(self, i: int) -> Tuple[float, Obstacle]:
        if not 0 <= i < len(self._obstacles):
            raise IndexError(i)
        out = self._out
        heap = self._heap
        while len(out) <= i:
            key, j, exact = heap[0]
            if exact:
                heapq.heappop(heap)
                out.append((key, self._obstacles[j]))
            else:
                heapq.heapreplace(
                    heap, (self._mbrs[j].mindist_segment(*self._qseg), j,
                           True))
        return out[i]


class CachedObstacleView:
    """Per-query obstacle feed over a shared :class:`ObstacleCache`.

    Implements the :class:`~repro.core.ior.ObstacleSource` protocol
    (``radius`` + ``ensure``), so it plugs into ``ior_fixpoint`` and the
    engine's coverage validation exactly like the cold
    :class:`~repro.core.ior.ObstacleRetriever`.  Each ``ensure`` round is
    served from the cache when a coverage capsule contains it, and from a
    lazily opened persistent tree scan otherwise.
    """

    def __init__(self, cache: ObstacleCache, qseg: Segment,
                 vg: LocalVisibilityGraph, stats: QueryStats):
        self._cache = cache
        self._qseg = qseg
        self._vg = vg
        self._stats = stats
        self.radius = 0.0
        self._scan = None
        self._ranked: Sequence[Tuple[float, Obstacle]] = ()
        self._cursor = 0
        self._epoch = -1

    def _refresh_ranked(self) -> None:
        """Re-rank cached obstacles if the cache grew since the last hit.

        Entries at or below the already-ensured radius are skipped: the
        ``ensure`` invariant guarantees they are in the graph (and the graph
        deduplicates regardless).  ``radius == 0`` means no round ran yet —
        nothing may be skipped then, or obstacles touching the query segment
        (``mindist == 0``) would never be served.
        """
        if self._epoch == self._cache.epoch:
            return
        self._ranked = self._cache.ranked(self._qseg)
        self._epoch = self._cache.epoch
        self._cursor = 0
        if self.radius > 0.0:
            while (self._cursor < len(self._ranked) and
                   self._ranked[self._cursor][0] <= self.radius):
                self._cursor += 1

    def ensure(self, radius: float) -> int:
        """Grow coverage to ``radius``; return number of obstacles added.

        The whole round runs under the cache lock, so the covered-check,
        the serving (or tree scan), and the capsule recording are one
        atomic step with respect to concurrent queries — a parallel
        neighbor can never observe a capsule whose obstacles are still in
        flight.  Engine compute (Dijkstra, envelope merging) happens
        outside ``ensure``, so only retrieval rounds serialize.
        """
        if radius <= self.radius:
            return 0
        with self._cache.lock:
            return self._ensure_locked(radius)

    def _ensure_locked(self, radius: float) -> int:
        cache = self._cache
        if cache.covered(self._qseg, radius):
            self._stats.cache_hits += 1
            cache.stats.hits += 1
            self._refresh_ranked()
            batch: List[Obstacle] = []
            while (self._cursor < len(self._ranked) and
                   self._ranked[self._cursor][0] <= radius):
                batch.append(self._ranked[self._cursor][1])
                self._cursor += 1
            added = self._vg.add_obstacles(batch)
            self._stats.cache_served += added
            cache.stats.served += added
        else:
            self._stats.cache_misses += 1
            cache.stats.misses += 1
            if self._scan is None:
                self._scan = cache.fetcher.open_scan(self._qseg)
            batch = []
            while True:
                key = self._scan.peek_key()
                if math.isinf(key) or key > radius:
                    break
                _d, payload, _rect = self._scan.pop()
                cache.stats.fetched += 1
                if isinstance(payload, Obstacle):
                    cache.add(payload)
                    batch.append(payload)
            added = self._vg.add_obstacles(batch)
            cache.record_coverage(self._qseg, radius)
        self._stats.noe += added
        self.radius = radius
        return added
