"""Immutable workspace snapshots: the unit of isolation for serving.

A :class:`WorkspaceSnapshot` pins one version of a workspace — the
workspace mutation counter, the backing trees' mutation counters, an
obstacle-cache read view, and the shared visibility graph's generation —
and executes queries *against exactly that version*:

* every execution entry point first enters the workspace's read lock
  (updates drain and block for the duration — the epoch guard), then
  verifies the pinned versions still match; a workspace that moved on
  raises :class:`~repro.service.concurrency.SnapshotExpired` instead of
  silently answering for a dataset the caller no longer holds;
* :meth:`execute_many` fans a batch out over a worker pool (see
  :mod:`repro.query.parallel`) under **one** read hold, so every query of
  the batch observes the same frozen state no matter how updates and
  batches interleave across threads.

Snapshots are cheap — a handful of integers and one capsule count, no
copying — because the heavy structures (R*-trees, obstacle cache, shared
graph) are only ever mutated under the write lock, which a snapshot's read
hold excludes.  The paper's CONN/COkNN answers are pure functions of the
(sites, obstacles) state, so "pin versions + exclude writers" *is*
snapshot isolation for this workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from ..query.planner import QueryPlan, tree_versions
from ..query.queries import Query
from ..query.results import QueryResult
from .cache import CacheReadView
from .concurrency import SnapshotExpired

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .workspace import Workspace


class WorkspaceSnapshot:
    """A frozen, executable view of one workspace version.

    Obtained from :meth:`Workspace.snapshot`.  All read-side workspace
    surface (``layout``, trees, ``cache``, ``backend``, ``service``,
    ``backend_for``) is exposed unchanged, so planner,
    executor, and engines run against a snapshot exactly as they would
    against the live workspace — the snapshot's job is pinning *when* they
    run (inside a read hold) and refusing to run once the pinned version
    is gone.
    """

    def __init__(self, workspace: "Workspace"):
        self._ws = workspace
        with workspace.read_lock():
            self.workspace_version: int = workspace.version
            self.tree_versions: Tuple[int, ...] = tree_versions(workspace)
            self.cache_view: CacheReadView = workspace.cache.read_view()
            self.vg_generation: int = workspace.routing.generation
        workspace.snapshots_taken += 1

    # ------------------------------------------------------------ delegation
    @property
    def workspace(self) -> "Workspace":
        """The live workspace this snapshot pins."""
        return self._ws

    def __getattr__(self, name: str):
        # Read-side delegation: trees, cache, backend, service, layout,
        # backend_for, routing...  Mutating entry points are
        # explicitly blocked below.
        if name in ("apply", "add_site", "remove_site", "add_obstacle",
                    "remove_obstacle"):
            raise AttributeError(
                f"snapshots are immutable: apply {name!r} on the workspace")
        return getattr(self._ws, name)

    # ------------------------------------------------------------ lifecycle
    @property
    def expired(self) -> bool:
        """True once the workspace mutated past the pinned version."""
        ws = self._ws
        return (ws.version != self.workspace_version
                or tree_versions(ws) != self.tree_versions)

    def verify(self) -> None:
        """Raise :class:`SnapshotExpired` when :attr:`expired`.

        Call under the read lock: the verdict is then stable for the whole
        hold (writers are excluded), not merely for the calling instant.
        """
        if self.expired:
            raise SnapshotExpired(
                f"workspace moved from version {self.workspace_version} to "
                f"{self._ws.version} (trees {self.tree_versions} -> "
                f"{tree_versions(self._ws)}); take a fresh snapshot")

    # ------------------------------------------------------------- execution
    def plan(self, query: Query, backend: Optional[str] = None) -> QueryPlan:
        """Plan ``query`` against the pinned version."""
        with self._ws.read_lock():
            self.verify()
            return self._ws.plan(query, backend=backend)

    def execute(self, query: Query | QueryPlan) -> QueryResult:
        """Execute one query against the pinned version.

        Raises:
            SnapshotExpired: the workspace mutated since :meth:`__init__`.
        """
        from ..query.executor import execute as _execute

        with self._ws.read_lock():
            self.verify()
            return _execute(self._ws, query)

    def execute_many(self, queries: Iterable[Query], *,
                     schedule: str = "locality", workers: int = 1,
                     mode: str = "thread") -> List[QueryResult]:
        """Execute a batch against the pinned version, optionally parallel.

        With ``workers > 1`` the batch's locality buckets are partitioned
        across a worker pool (``mode="thread"`` shares this process's
        caches; ``mode="fork"`` fans out over forked worker processes —
        each a literal memory snapshot).  One read hold covers the whole
        batch, results come back in submission order, and the aggregated
        :class:`~repro.query.parallel.ConcurrencyStats` is available on
        the executor used by :meth:`Workspace.execute_many`.
        """
        from ..query.parallel import execute_many_parallel

        return execute_many_parallel(self, queries, schedule=schedule,
                                     workers=workers, mode=mode)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "expired" if self.expired else "live"
        return (f"WorkspaceSnapshot(version={self.workspace_version}, "
                f"trees={self.tree_versions}, cache_epoch="
                f"{self.cache_view.epoch}, vg_gen={self.vg_generation}, "
                f"{state})")
