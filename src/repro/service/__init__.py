"""Query service layer: cross-query obstacle caching behind a facade.

The core algorithms (:mod:`repro.core`) answer one query at a time, paying
incremental obstacle retrieval (IOR) from zero on every call.  This package
amortizes that cost across a workload:

* :class:`Workspace` — owns one dataset's indexes (2T or 1T) plus a
  per-dataset :class:`ObstacleCache`, warmable via ``prefetch``, and the
  execution target of the declarative API (``plan`` / ``execute`` /
  ``execute_many`` / ``stream``, see :mod:`repro.query`, whose executor
  runs every plan);
* :class:`QueryService` — the asynchronous front (``serve`` / ``submit``)
  over ``Workspace.execute``;
* :class:`CachedObstacleView` — the per-query obstacle feed, a drop-in
  sibling of :class:`repro.core.ior.ObstacleRetriever`, which serves
  obstacle retrieval rounds from the cache whenever its coverage
  bookkeeping proves the cached set complete for the requested footprint.

The free functions ``repro.conn`` / ``repro.coknn`` / ... are thin wrappers
over a one-shot workspace, so the cold path and the classic API coincide.
"""

from .cache import (
    CachedObstacleView,
    CacheReadView,
    CacheStats,
    Capsule,
    ObstacleCache,
)
from .concurrency import CountingRLock, ReadWriteLock, SnapshotExpired
from .snapshot import WorkspaceSnapshot
from .updates import (
    AddObstacle,
    AddSite,
    RemoveObstacle,
    RemoveSite,
    Update,
)
from .workspace import QueryService, Workspace

__all__ = [
    "AddObstacle",
    "AddSite",
    "CachedObstacleView",
    "CacheReadView",
    "CacheStats",
    "Capsule",
    "CountingRLock",
    "ObstacleCache",
    "QueryService",
    "ReadWriteLock",
    "RemoveObstacle",
    "RemoveSite",
    "SnapshotExpired",
    "Update",
    "Workspace",
    "WorkspaceSnapshot",
]
