"""Immutable workspace snapshots: the unit of isolation for serving.

A :class:`WorkspaceSnapshot` pins one version of a workspace — the counters
the workspace reports: a plain :class:`~repro.service.workspace.Workspace`
its mutation counter and its backing trees' counters, a
:class:`~repro.shard.ShardedWorkspace` its own counter plus every shard's
counter and tree counters — and executes queries *against exactly that
version*:

* every execution entry point first enters the workspace's read lock
  (updates drain and block for the duration — the epoch guard), then
  verifies the pinned versions still match; a workspace that moved on
  raises :class:`~repro.service.concurrency.SnapshotExpired` instead of
  silently answering for a dataset the caller no longer holds;
* execution goes through the workspace's own ``execute`` /
  ``execute_many``, so a batch fans out over a worker pool (see
  :mod:`repro.query.parallel` and
  :meth:`ShardedWorkspace.execute_many <repro.shard.ShardedWorkspace.execute_many>`)
  under **one** read hold, and every query of the batch observes the
  same frozen state no matter how updates and batches interleave across
  threads.

Snapshots are cheap — a handful of integers, no copying — because the
heavy structures (R*-trees, obstacle caches, shared graphs) are only ever
mutated under the write lock, which a snapshot's read hold excludes.
The paper's CONN/COkNN answers are pure functions of the (sites,
obstacles) state, so "pin versions + exclude writers" *is* snapshot
isolation for this workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from ..query.planner import QueryPlan
from ..query.queries import Query
from ..query.results import QueryResult
from .concurrency import SnapshotExpired

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .workspace import Workspace


class WorkspaceSnapshot:
    """A frozen, executable view of one workspace version.

    Obtained from ``snapshot()`` on a :class:`Workspace` or a
    :class:`~repro.shard.ShardedWorkspace`.  All read-side workspace
    surface (``layout``, trees, ``cache``, ``backend``, ``service``,
    ``shards``...) is exposed unchanged, so planner, executor, and engines
    run against a snapshot exactly as they would against the live
    workspace — the snapshot's job is pinning *when* they run (inside a
    read hold) and refusing to run once the pinned version is gone.
    """

    def __init__(self, workspace: "Workspace"):
        self._ws = workspace
        with workspace.read_lock():
            self.workspace_version, *pinned = workspace._versions()
        self.tree_versions: Tuple[int, ...] = tuple(pinned)
        """The backing trees' counters (on a sharded workspace, each
        shard's version followed by its tree versions)."""
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
        return self._ws._versions() != (self.workspace_version,
                                        *self.tree_versions)

    def verify(self) -> None:
        """Raise :class:`SnapshotExpired` when :attr:`expired`.

        Call under the read lock: the verdict is then stable for the whole
        hold (writers are excluded), not merely for the calling instant.
        """
        if self.expired:
            raise SnapshotExpired(
                f"workspace moved from version {self.workspace_version} to "
                f"{self._ws.version} (trees {self.tree_versions} -> "
                f"{self._ws._versions()[1:]}); take a fresh snapshot")

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
        with self._ws.read_lock():
            self.verify()
            return self._ws.execute(query)

    def execute_many(self, queries: Iterable[Query],
                     **options: Any) -> List[QueryResult]:
        """Execute a batch against the pinned version, optionally parallel.

        ``options`` are the workspace's ``execute_many`` options
        (``workers`` and ``mode`` on both classes, ``schedule`` on a plain
        workspace).  One read hold covers the whole batch and results come
        back in submission order.

        Raises:
            SnapshotExpired: the workspace mutated since :meth:`__init__`.
        """
        with self._ws.read_lock():
            self.verify()
            return self._ws.execute_many(queries, **options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "expired" if self.expired else "live"
        return (f"WorkspaceSnapshot(version={self.workspace_version}, "
                f"trees={self.tree_versions}, {state})")
