"""Critical-path search for the slicing algorithm (paper Figure 1, step 3).

A *candidate path* runs through unassigned expanded-graph nodes from a
release-anchored node to a deadline-anchored node; the critical path is the
candidate minimizing the slicing metric R. The paper finds it with a
breadth-first traversal; we use an equivalent dynamic program over the
topological order that is exact for the paper's metrics:

* PURE-family metrics (``uses_count = True``) depend on a path only through
  ``release + Σc'`` and the node count, so per (node, count) a single best
  state — maximum ``release + Σc'`` — suffices.
* NORM (``uses_count = False``) depends on ``release`` and ``Σc``
  separately; per node we keep the Pareto frontier over (release, Σc),
  larger-is-better in both coordinates. The dominance argument is exact
  whenever candidate end-to-end windows are non-negative; with negative
  windows (over-constrained sub-problems) the pruning may return a
  near-critical path, which only affects already-infeasible cases.

Ties between equal-R candidates are broken deterministically (the paper
breaks them arbitrarily): by fewer nodes, then by the path's id sequence.
That is a total order over candidates (equal ratio, count and id sequence
means the same path), so the winner does not depend on the order in which
candidates are met.

Incremental search
------------------
The slicing loop re-finds the critical path after every slice.
:class:`CriticalPathSearch` keeps the DP between slices instead of
re-running it over every unassigned node:

* A node's states depend only on its release anchor, its virtual cost and
  the states of its *unassigned* predecessors. Slicing path P removes P's
  nodes (their states vanish) and may raise the release anchors of P's
  unassigned successors. So after a slice, exactly the unassigned nodes
  reachable from P through unassigned nodes — P's unassigned descendants,
  the *dirty set* — can hold different states. Every other node's states,
  and every state its parent chain reaches, are unchanged: a node outside
  the dirty set has no dirty or sliced predecessor. The dirty set is
  recomputed in topological order, exactly as a fresh search would.
* A node's candidate (its best state under the total order) depends on
  its states and its deadline anchor. Slicing P may tighten the deadline
  anchors of P's unassigned predecessors, so besides the dirty set only
  those nodes are re-scored.
* The winner is the minimum of the cached candidates under the same total
  order. Candidates sit in a heap keyed on (ratio, count), invalidated
  lazily; equal-key entries at the top are compared by id sequence.

Because every cached value is what a fresh search over the same anchors
would compute, each slice's result is bit-identical to the one-shot
search. The caching requires the metric's ``ratio`` and ``virtual_cost``
to be pure during one distribution and ``ratio`` never to return NaN
(docs/EXTENDING.md).

The search runs on the expansion's dense integer ids; id-sequence ties
compare via the expansion's precomputed lexicographic ranks, which orders
exactly like the string sequences did. :func:`find_critical_path_indexed`
and the string-keyed :func:`find_critical_path` are one-shot searches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.expanded import ExpandedGraph
from repro.core.metrics import SlicingMetric
from repro.errors import DistributionError
from repro.types import Time


@dataclass(frozen=True)
class CriticalPath:
    """The outcome of one critical-path search."""

    nodes: Tuple[str, ...]
    ratio: float
    release: Time
    deadline: Time
    #: Dense expanded-graph ids of ``nodes`` (same order); empty when the
    #: path was built outside the indexed search.
    indices: Tuple[int, ...] = field(default=(), compare=False)

    @property
    def end_to_end(self) -> Time:
        return self.deadline - self.release

    def __len__(self) -> int:
        return len(self.nodes)


# A partial path ending at a node is a plain tuple
#   (release, cost, count, node, parent)
# with ``parent`` the predecessor state tuple (or None); tuples keep the
# inner DP loop allocation-light. ``_state_path`` rebuilds the node-id
# sequence by walking the parent chain.
_State = tuple

# A node's cached candidate is the heap entry
#   (ratio, count, seq, node, state)
# ``seq`` is unique, so heap comparisons never reach ``state``; an entry
# is live while it is the node's current candidate (identity check).
_Entry = tuple

_BY_RELEASE = itemgetter(0)
_BY_COST = itemgetter(1)


def _state_path(state) -> Tuple[int, ...]:
    nodes: List[int] = []
    while state is not None:
        nodes.append(state[3])
        state = state[4]
    return tuple(reversed(nodes))


class CriticalPathSearch:
    """The critical-path DP, kept live across slicing iterations.

    ``unassigned`` (one byte per dense id), the ``has_*`` / ``*_anchor``
    arrays and ``vcost`` are the caller's live arrays: the search reads
    the anchors when :meth:`best` runs, so the caller may update them
    after :meth:`consume` and before the next :meth:`best`. ``vcost``
    holds the metric's per-node virtual costs.

    ``recomputed`` and ``reused`` count, over every :meth:`best` call,
    the unassigned nodes whose states were recomputed and those whose
    states were kept; their sum is the number of node visits the
    from-scratch search would have made.
    """

    def __init__(
        self,
        expanded: ExpandedGraph,
        metric: SlicingMetric,
        unassigned: bytearray,
        has_release: bytearray,
        release_anchor: List[Time],
        has_deadline: bytearray,
        deadline_anchor: List[Time],
        vcost: List[Time],
    ) -> None:
        n = len(expanded.by_index)
        self.expanded = expanded
        self.metric = metric
        self.unassigned = unassigned
        self.has_release = has_release
        self.release_anchor = release_anchor
        self.has_deadline = has_deadline
        self.deadline_anchor = deadline_anchor
        self.vcost = vcost
        self._states: List[Optional[List[_State]]] = [None] * n
        self._cand: List[Optional[_Entry]] = [None] * n
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        # Dirty nodes awaiting recomputation (flagged in ``_dirty``) and
        # clean nodes awaiting a re-score; at first every unassigned node
        # is dirty.
        self._pending: List[int] = [
            i for i in expanded.topo_indices if unassigned[i]
        ]
        self._dirty = bytearray(n)
        for i in self._pending:
            self._dirty[i] = 1
        self._rescore: Set[int] = set()
        #: Unassigned nodes left.
        self.n_remaining = len(self._pending)
        self.recomputed = 0
        self.reused = 0

    # ------------------------------------------------------------------
    def consume(self, indices: Iterable[int]) -> None:
        """Mark the sliced nodes ``indices`` assigned.

        Clears their ``unassigned`` bytes, drops their states and
        candidates, flags their unassigned descendants dirty and their
        unassigned predecessors for a re-score. Anchor updates the slice
        causes may follow; they are read by the next :meth:`best`.
        """
        unassigned = self.unassigned
        states = self._states
        cand = self._cand
        indices = list(indices)
        for i in indices:
            unassigned[i] = 0
            states[i] = None
            cand[i] = None
        self.n_remaining -= len(indices)
        succ_lists = self.expanded.succ_lists
        dirty = self._dirty
        pending = self._pending
        stack = list(indices)
        while stack:
            for s in succ_lists[stack.pop()]:
                if unassigned[s] and not dirty[s]:
                    dirty[s] = 1
                    pending.append(s)
                    stack.append(s)
        pred_lists = self.expanded.pred_lists
        rescore = self._rescore
        for i in indices:
            for p in pred_lists[i]:
                if unassigned[p] and not dirty[p]:
                    rescore.add(p)

    def best(self) -> CriticalPath:
        """The candidate path minimizing the metric over the unassigned
        nodes and the current anchors.

        Raises :class:`DistributionError` when no candidate path exists —
        which cannot happen for a validated graph and indicates corrupted
        anchor bookkeeping.
        """
        pending = self._pending
        self.recomputed += len(pending)
        self.reused += self.n_remaining - len(pending)
        if pending:
            pending.sort(key=self.expanded.topo_pos.__getitem__)
            self._recompute(pending)
            pending.clear()
        if self._rescore:
            states = self._states
            has_deadline = self.has_deadline
            for i in self._rescore:
                if states[i] and has_deadline[i]:
                    self._score(i, states[i])
                else:
                    self._cand[i] = None
            self._rescore.clear()
        entry = self._winner()
        indices = _state_path(entry[4])
        eids = self.expanded.eids
        return CriticalPath(
            nodes=tuple(eids[i] for i in indices),
            ratio=entry[0],
            release=entry[4][0],
            deadline=self.deadline_anchor[entry[3]],
            indices=indices,
        )

    # ------------------------------------------------------------------
    def _recompute(self, order: List[int]) -> None:
        """Recompute the states (and candidates) of ``order``, which must
        be topologically ordered and hold every dirty node."""
        states = self._states
        cand = self._cand
        dirty = self._dirty
        pred_lists = self.expanded.pred_lists
        uses_count = self.metric.uses_count
        vcost = self.vcost
        has_release = self.has_release
        release_anchor = self.release_anchor
        has_deadline = self.has_deadline
        score = self._score

        for i in order:
            dirty[i] = 0
            vc = vcost[i]
            if uses_count:
                # Merge incoming states in place: per path length, the
                # single state maximizing release + cost, first-seen
                # winning ties (self-anchor before predecessors,
                # predecessors in adjacency order). The slots are mutated,
                # not reallocated, so the inner loop allocates only on a
                # strict improvement's parent swap.
                by_count: dict = {}
                if has_release[i]:
                    r = release_anchor[i]
                    by_count[1] = [r + vc, r, vc, None]
                for p in pred_lists[i]:
                    plist = states[p]
                    if plist:
                        for s in plist:
                            cost = s[1] + vc
                            val = s[0] + cost
                            c = s[2] + 1
                            cur = by_count.get(c)
                            if cur is None:
                                by_count[c] = [val, s[0], cost, s]
                            elif val > cur[0]:
                                cur[0] = val
                                cur[1] = s[0]
                                cur[2] = cost
                                cur[3] = s
                if not by_count:
                    states[i] = None
                    cand[i] = None
                    continue
                # No need to order by count: downstream merges key on the
                # count stored in each state, and the winner is the
                # minimum of a total order — both are invariant to the
                # order of this list (dict order is deterministic).
                kept: List[_State] = [
                    (slot[1], slot[2], c, i, slot[3])
                    for c, slot in by_count.items()
                ]
            else:
                incoming: List[_State] = []
                if has_release[i]:
                    incoming.append((release_anchor[i], vc, 1, i, None))
                for p in pred_lists[i]:
                    plist = states[p]
                    if plist:
                        for s in plist:
                            incoming.append((s[0], s[1] + vc, s[2] + 1, i, s))
                if not incoming:
                    states[i] = None
                    cand[i] = None
                    continue
                kept = _pareto(incoming)
            states[i] = kept
            if has_deadline[i]:
                score(i, kept)
            else:
                cand[i] = None

    def _score(self, i: int, kept: List[_State]) -> None:
        """Cache node ``i``'s best state under the total order as its
        candidate (replacing any previous one)."""
        deadline = self.deadline_anchor[i]
        ratio_of = self.metric.ratio
        lex_rank = self.expanded.lex_rank
        best_r = 0.0
        best_c = 0
        best_s: Optional[_State] = None
        for s in kept:
            ratio = ratio_of(deadline - s[0], s[1], s[2])
            if best_s is None or ratio < best_r:
                best_r, best_c, best_s = ratio, s[2], s
            elif ratio == best_r:
                c = s[2]
                if c < best_c or (
                    c == best_c and _lex_less(lex_rank, s, best_s)
                ):
                    best_r, best_c, best_s = ratio, c, s
        entry = (best_r, best_c, next(self._seq), i, best_s)
        self._cand[i] = entry
        heappush(self._heap, entry)

    def _winner(self) -> _Entry:
        """The minimum live candidate; the heap is left holding it."""
        heap = self._heap
        cand = self._cand
        while heap and cand[heap[0][3]] is not heap[0]:
            heappop(heap)
        if not heap:
            raise DistributionError(
                "no candidate path between anchors; anchor bookkeeping is corrupt"
            )
        # Entries with the top's (ratio, count) pop next, in order; the
        # id sequence decides among the live ones.
        winner = heappop(heap)
        ratio, count = winner[0], winner[1]
        ties = [winner]
        while heap and heap[0][0] == ratio and heap[0][1] == count:
            entry = heappop(heap)
            if cand[entry[3]] is entry:
                ties.append(entry)
        lex_rank = self.expanded.lex_rank
        for entry in ties:
            if entry is not winner and _lex_less(lex_rank, entry[4], winner[4]):
                winner = entry
            heappush(heap, entry)
        return winner


def _lex_less(lex_rank: List[int], a: _State, b: _State) -> bool:
    """Whether state ``a``'s path id sequence precedes ``b``'s."""
    return ([lex_rank[j] for j in _state_path(a)]
            < [lex_rank[j] for j in _state_path(b)])


def find_critical_path_indexed(
    expanded: ExpandedGraph,
    metric: SlicingMetric,
    remaining: Sequence[int],
    has_release: bytearray,
    release_anchor: List[Time],
    has_deadline: bytearray,
    deadline_anchor: List[Time],
    vcost: List[Time],
) -> CriticalPath:
    """Return the candidate path minimizing ``metric``, on dense ids.

    A one-shot :class:`CriticalPathSearch` over the unassigned dense ids
    ``remaining``. ``has_*`` / ``*_anchor`` carry the current anchors
    (static application anchors plus anchors inherited from already-sliced
    neighbours) and ``vcost`` the metric's precomputed per-node virtual
    costs. Raises :class:`DistributionError` when no candidate path
    exists.
    """
    unassigned = bytearray(len(expanded.by_index))
    for i in remaining:
        unassigned[i] = 1
    return CriticalPathSearch(
        expanded, metric, unassigned,
        has_release, release_anchor,
        has_deadline, deadline_anchor,
        vcost,
    ).best()


def find_critical_path(
    expanded: ExpandedGraph,
    metric: SlicingMetric,
    unassigned: Set[str],
    pending_release: Mapping[str, Time],
    pending_deadline: Mapping[str, Time],
) -> CriticalPath:
    """String-keyed wrapper over :func:`find_critical_path_indexed`.

    ``pending_release``/``pending_deadline`` carry the current anchors,
    keyed by expanded node id; ``unassigned`` restricts the search.
    """
    n = len(expanded.by_index)
    eids = expanded.eids
    has_release = bytearray(n)
    release_anchor: List[Time] = [0.0] * n
    has_deadline = bytearray(n)
    deadline_anchor: List[Time] = [0.0] * n
    for eid, t in pending_release.items():
        i = expanded.nodes[eid].index
        has_release[i] = 1
        release_anchor[i] = t
    for eid, t in pending_deadline.items():
        i = expanded.nodes[eid].index
        has_deadline[i] = 1
        deadline_anchor[i] = t
    remaining = [i for i in range(n) if eids[i] in unassigned]
    vcost = [metric.virtual_cost(nd) for nd in expanded.by_index]
    return find_critical_path_indexed(
        expanded, metric, remaining,
        has_release, release_anchor,
        has_deadline, deadline_anchor,
        vcost,
    )


def _pareto(incoming: List[_State]) -> List[_State]:
    """Pareto frontier over (release, cost), larger-is-better.

    Order contract: the frontier is sorted by (release desc, cost desc),
    ties keeping first-incoming order — downstream Pareto merges tie-break
    on that order, so it is part of the deterministic-output contract.
    """
    if len(incoming) == 1:
        return incoming
    # Two stable C-level passes == one sort by (-release, -cost): reverse
    # sorts keep the original order of equal elements.
    incoming.sort(key=_BY_COST, reverse=True)
    incoming.sort(key=_BY_RELEASE, reverse=True)
    kept: List[_State] = []
    best_cost = float("-inf")
    for s in incoming:
        if s[1] > best_cost:
            kept.append(s)
            best_cost = s[1]
    return kept
