"""SieveStreaming [Badanidiyuru et al., KDD'14].

The streaming baseline: a single pass over *all* active elements in
arbitrary order, maintaining candidates for a geometric progression of
OPT guesses; (1/2 − ε)-approximate.  Unlike MTTS it has no ranked-list
ordering, so it cannot terminate early — every active element is
evaluated.
"""
from __future__ import annotations

from repro.core.query import QueryResult, best_result, offer, open_query, refit_lattice
from repro.core.scoring import CoverageState, singleton_delta
from repro.core.state import SIRStream

__all__ = ["sieve_streaming"]


def sieve_streaming(state: SIRStream, query, k: int, eps: float = 0.1) -> QueryResult:
    """One pass over A_t with the classic sieve admission rule
    Δ(e|S_v) ≥ (v/2 − f(S_v)) / (k − |S_v|)."""
    w, topics, weights, new = open_query(state, query, k)
    cands: dict[int, CoverageState] = {}
    m = 0.0
    n_eval = 0
    for eid in sorted(w.active):  # arbitrary but deterministic order
        e = w.store[eid]
        d = singleton_delta(e, w, topics, weights, state.lam, state.eta)
        n_eval += 1
        if d <= 0:
            continue
        if d > m:
            m = d
            refit_lattice(cands, m, k, eps, new)
        offer(cands, e, k, lambda j, c: ((1.0 + eps) ** j / 2.0 - c.value) / (k - len(c.S)))
    return best_result(cands.values(), n_eval, 0)
