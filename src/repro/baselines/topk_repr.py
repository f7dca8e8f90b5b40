"""Top-k Representative baseline (Section 5.1).

Returns the k active elements with the highest singleton
representativeness scores δ(e,x), retrieved from the ranked lists with
threshold pruning.  Only 1/k-approximate for k-SIR: word and influence
overlaps between the selected elements are ignored, which is exactly
the quality gap the paper's Figure 10 exhibits.
"""
from __future__ import annotations

import heapq

from repro.core.query import QueryResult, best_result, open_query
from repro.core.ranked_lists import Traversal
from repro.core.state import SIRStream

__all__ = ["topk_representative"]


def topk_representative(state: SIRStream, query, k: int) -> QueryResult:
    """Threshold-pruned top-k by δ(e,x) over the ranked lists."""
    w, topics, weights, new = open_query(state, query, k)
    trav = Traversal(state.rl, topics, weights)
    best: list[tuple[float, int]] = []  # min-heap of (δ, eid), size ≤ k
    n_eval = 0
    while True:
        ub = trav.upper_bound()
        if ub <= 0 or (len(best) == k and ub < best[0][0]):
            break
        popped = trav.pop_best()
        if popped is None:
            break
        eid, _ = popped
        d = w.delta_x(eid, topics, weights)
        n_eval += 1
        if len(best) < k:
            heapq.heappush(best, (d, eid))
        elif d > best[0][0]:
            heapq.heapreplace(best, (d, eid))
    eids = [eid for _, eid in sorted(best, reverse=True)]
    # Report the true set score f(S,x) so quality is comparable
    cov = new()
    for eid in eids:
        cov.add(w.store[eid])
    return best_result([cov], n_eval, trav.n_retrieved)
