"""Query set-up, result type and OPT-guess lattice shared by the k-SIR
query algorithms: MTTS, MTTD and the CELF, SieveStreaming and Top-k
Representative baselines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from repro.core.scoring import CoverageState

__all__ = ["QueryResult", "open_query", "refit_lattice", "offer", "best_result"]

_EPS = 1e-12


@dataclass
class QueryResult:
    """Result of one k-SIR query: selected eids, f(S,x), and work counters."""

    eids: list[int]
    value: float
    n_evaluated: int  # elements scored (the n'_t of the complexity analysis)
    n_retrieved: int  # tuples pulled off the ranked lists


def open_query(state, query, k: int):
    """Check ``k`` and normalise x = ``query`` (.topics/.weights).

    Returns ``(window, topics, weights, new)``, where ``new()`` builds an
    empty :class:`CoverageState` (S = ∅) for this query.
    """
    if k < 1:
        raise ValueError("k must be positive")
    w = state.window
    topics = [int(i) for i in query.topics]
    weights = [float(x) for x in query.weights]
    return w, topics, weights, partial(CoverageState, w, topics, weights, state.lam, state.eta)


def refit_lattice(cands: dict, m: float, k: int, eps: float, new) -> None:
    """Refit ``cands`` (j → candidate) to Φ = {(1+ε)^j : m ≤ (1+ε)^j ≤ 2·k·m}.

    Candidates whose guess left Φ are dropped; the guesses opened here
    all share one empty candidate from ``new()`` (see :func:`offer`).
    """
    log_base = math.log1p(eps)
    j_lo = math.ceil(math.log(m) / log_base - 1e-9)
    j_hi = math.floor(math.log(2.0 * k * m) / log_base + 1e-9)
    for j in list(cands):
        if j < j_lo or j > j_hi:
            del cands[j]
    empty = None
    for j in range(j_lo, j_hi + 1):
        if j not in cands:
            if empty is None:
                empty = new()
            cands[j] = empty


def offer(cands: dict, e, k: int, need) -> None:
    """Offer ``e`` to every guess of the lattice ``cands`` (j → state).

    Guess j admits e iff |S_j| < k and Δ(e|S_j) ≥ ``need(j, state)``;
    ``math.inf`` refuses e without evaluating Δ.  Guesses whose S is
    equal share one :class:`CoverageState`, so Δ(e|S) is evaluated once
    per distinct state.  The guesses admitting e from one state move
    together to its successor S ∪ {e}; a state that some guess keeps is
    copied first, so every guess still sees its own S.
    """
    holders: dict[CoverageState, list[int]] = {}
    for j, cand in cands.items():
        if len(cand.S) < k:  # a full S is every holder's, and admits nothing
            holders.setdefault(cand, []).append(j)
    for cand, js in holders.items():
        needs = [need(j, cand) for j in js]
        if min(needs) == math.inf:
            continue
        g = cand.gain(e)
        take = [j for j, t in zip(js, needs) if g >= t]
        if not take:
            continue
        if len(take) < len(js):
            cand = cand.copy()
            for j in take:
                cands[j] = cand
        cand.add(e)


def best_result(cands, n_eval: int, n_retrieved: int) -> QueryResult:
    """The candidate of highest f(S,x) (the first on ties) as a result."""
    best = max(cands, key=lambda c: c.value, default=None)
    if best is None:
        return QueryResult([], 0.0, n_eval, n_retrieved)
    return QueryResult(list(best.S), best.value, n_eval, n_retrieved)
