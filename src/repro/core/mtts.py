"""MULTI-TOPIC THRESHOLDSTREAM (Algorithm 2).

A thresholding sieve over the ranked lists: candidates S_φ for a
geometric progression of OPT estimates φ = (1+ε)^j each admit an element
whose marginal gain reaches φ/2k; elements are fed in decreasing
x_i·δ_i(e) order via the ranked-list traversal, and the scan terminates
as soon as the unevaluated upper bound UB(x) drops below the minimum
admission threshold TH.  Guarantees a (1/2 − ε)-approximation
(Theorem 2) while evaluating each active element at most once.

Lower thresholds admit the same elements, so many candidates hold an
equal S; those share one coverage state (:func:`~repro.core.query.offer`)
and Δ(e|S) is evaluated once per distinct S, not once per guess.
"""
from __future__ import annotations

import math

from repro.core.query import _EPS, QueryResult, best_result, offer, open_query, refit_lattice
from repro.core.ranked_lists import Traversal
from repro.core.scoring import CoverageState
from repro.core.state import SIRStream

__all__ = ["mtts", "QueryResult"]


def mtts(state: SIRStream, query, k: int, eps: float = 0.1) -> QueryResult:
    """Process k-SIR query ``query`` (.topics/.weights) over ``state``."""
    w, topics, weights, new = open_query(state, query, k)
    trav = Traversal(state.rl, topics, weights)
    cands: dict[int, CoverageState] = {}
    delta_max = 0.0
    th = -math.inf  # TH = least φ/2k of an unfilled S_φ; none refuses yet
    n_eval = 0

    def _threshold(j: int) -> float:
        return (1.0 + eps) ** j / (2.0 * k)

    while True:
        ub = trav.upper_bound()
        if ub < th or ub <= _EPS:
            break
        popped = trav.pop_best()
        if popped is None:
            break
        eid, _ = popped
        e = w.store[eid]
        dex = w.delta_x(eid, topics, weights)
        n_eval += 1
        if dex > delta_max:
            delta_max = dex
            refit_lattice(cands, delta_max, k, eps, new)
        elif dex < th:
            continue  # δ(e,x) < TH: every unfilled S_φ refuses e, Φ is unchanged
        # S_φ admits e iff Δ(e|S_φ) ≥ φ/2k; δ(e,x) < φ/2k rules it out unevaluated
        offer(cands, e, k, lambda j, _: t if dex >= (t := _threshold(j)) else math.inf)
        unfilled = [j for j, c in cands.items() if len(c.S) < k]
        th = _threshold(min(unfilled)) if unfilled else math.inf
        if cands and not unfilled:
            break  # every candidate full: no element can be admitted

    return best_result(cands.values(), n_eval, trav.n_retrieved)
