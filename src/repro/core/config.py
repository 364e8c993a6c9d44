"""Tunable switches for CONN query processing.

Every pruning rule from the paper can be disabled independently, which the
test suite uses to prove pruning never changes results and the ablation
benchmark uses to measure each rule's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConnConfig:
    """Feature switches for the CONN/COkNN engine.

    Attributes:
        use_lemma1: endpoint-dominance pruning inside envelope merges (skip
            the quadratic solve when the incumbent wins at both interval ends
            and its control point is nearer the query line, Lemma 1).
        use_lemma5: subtract the Dijkstra predecessor's visible region before
            evaluating a node as control point (Lemma 5).
        use_lemma6: drop visible-region holes whose triangle excludes the
            node (Lemma 6).  **Off by default**: the paper's proof implicitly
            assumes the blocking obstacle's silhouette vertex can see the
            whole hole, which fails in dense scenes (holes shadowed by
            several obstacles), and the pruned node can then be a genuine
            control point — this reproduction found concrete counterexamples
            (see ``tests/test_core_cplc.py::TestLemma6Finding``).  Enable for
            paper-faithful ablation runs.
        use_lemma7: stop CPLC's graph traversal at CPLMAX (Lemma 7).  The
            traversal is aimed at ``q`` and settles in ``f = dist_v +
            dist(v, q)`` order, and it stops at the first node with
            ``f >= CPLMAX``: ``f`` bounds from below everything that node,
            and every later one, can contribute.
        use_euclid_prefilter: inside CPLC, skip a node entirely when its
            Euclidean lower bound ``dist_v + dist(v, q)`` already reaches
            CPLMAX.  Exact: the incumbent envelope is <= CPLMAX everywhere
            (piece convexity puts each piece's maximum at an endpoint) while
            the challenger is >= the bound everywhere, and ties keep the
            incumbent — so the skipped merge could never change the result.
        use_rlmax: terminate the data scan once the next candidate's mindist
            exceeds RLMAX (Lemma 2).
        use_global_bound: extend Lemma 2's RLMAX from the data scan into
            each point's evaluation: IOR's and CPLC's shared traversal
            stops at the first node with ``f >= RLMAX`` (``f = dist_v +
            dist(v, q)``), and CPLC skips nodes whose contribution cannot
            beat the envelope's k-th level.  Exact: a claimed path of
            length L < RLMAX ends on ``q``, so every obstacle that could
            invalidate it lies within RLMAX of ``q`` and is covered by
            retrieval; claims >= RLMAX lose (or tie, keeping the
            incumbent) at every envelope level.  The first k evaluations,
            before RLMAX is finite, are bounded too: IOR stops once S and
            E are settled, and on a query segment no obstacle crosses,
            CPLC and coverage validation stop just above the point's tent
            ``(dS + dE + L) / 2``, which bounds its own CPLMAX.
        validate_coverage: after CPLC, extend obstacle retrieval to the
            maximum claimed distance and recompute until stable (this
            library's strengthening of IOR; see DESIGN.md).
    """

    use_lemma1: bool = True
    use_lemma5: bool = True
    use_lemma6: bool = False
    use_lemma7: bool = True
    use_euclid_prefilter: bool = True
    use_rlmax: bool = True
    use_global_bound: bool = True
    validate_coverage: bool = True

    @classmethod
    def paper_faithful(cls) -> "ConnConfig":
        """Every optimization exactly as published, including Lemma 6."""
        return cls(use_lemma6=True)

    @classmethod
    def no_pruning(cls) -> "ConnConfig":
        """All optional pruning off (correctness baseline / ablation anchor)."""
        return cls(use_lemma1=False, use_lemma5=False, use_lemma6=False,
                   use_lemma7=False, use_euclid_prefilter=False,
                   use_rlmax=False, use_global_bound=False)


DEFAULT_CONFIG = ConnConfig()
