"""Query set-up, result type and OPT-guess lattice shared by the k-SIR
query algorithms: MTTS, MTTD and the CELF, SieveStreaming and Top-k
Representative baselines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from repro.core.scoring import CoverageState

__all__ = ["QueryResult", "open_query", "refit_lattice", "best_result"]

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

    Candidates whose guess left Φ are dropped; each new guess gets an
    empty candidate from ``new()``.
    """
    log_base = math.log1p(eps)
    j_lo = math.ceil(math.log(m) / log_base - 1e-9)
    j_hi = math.floor(math.log(2.0 * k * m) / log_base + 1e-9)
    for j in list(cands):
        if j < j_lo or j > j_hi:
            del cands[j]
    for j in range(j_lo, j_hi + 1):
        if j not in cands:
            cands[j] = new()


def best_result(cands, n_eval: int, n_retrieved: int) -> QueryResult:
    """The candidate of highest f(S,x) (the first on ties) as a result."""
    best = max(cands, key=lambda c: c.value, default=None)
    if best is None:
        return QueryResult([], 0.0, n_eval, n_retrieved)
    return QueryResult(list(best.S), best.value, n_eval, n_retrieved)
