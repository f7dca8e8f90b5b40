"""White-box tests of MTTS/MTTD internals and the QueryResult contract.

Candidate-set management in MTTS (Φ range, threshold admission),
threshold descent and buffering in MTTD (retrieve(τ), lazy re-
evaluation), and determinism of both algorithms.  MTTS and
SieveStreaming share coverage states between OPT guesses; they are
checked against reference loops with one independent state per guess,
and the cached traversal heads against a fresh scan of the lists.
"""
import math

import pytest

from repro.baselines import sieve_streaming
from repro.core import mttd, mtts
from repro.core.mtts import QueryResult
from repro.core.query import best_result, open_query
from repro.core.ranked_lists import RankedLists, Traversal
from repro.core.state import SIRStream
from repro.core.scoring import make_element, singleton_delta

import numpy as np


def _mini_state():
    """Three disjoint-word single-topic elements with known scores."""
    phi = np.zeros((1, 6))
    phi[0] = [0.3, 0.25, 0.2, 0.15, 0.07, 0.03]
    specs = [
        (0, 1, [0, 1]),  # highest σ words → biggest score
        (1, 1, [2, 3]),
        (2, 1, [4, 5]),
    ]
    els = [
        make_element(eid, ts, np.array(ws), np.ones(len(ws)), [0], [1.0], np.array([]), phi)
        for eid, ts, ws in specs
    ]
    st = SIRStream(T=10, L=1, lam=1.0, eta=1.0)  # semantic-only
    st.load(els)
    st.run_all(1)
    return st


class _Q:
    topics = np.array([0])
    weights = np.array([1.0])


def test_mtts_picks_disjoint_elements():
    st = _mini_state()
    res = mtts(st, _Q(), 3, eps=0.1)
    assert sorted(res.eids) == [0, 1, 2]  # no overlap: all admitted
    total = sum(st.window.delta_x(e, [0], [1.0]) for e in range(3))
    assert res.value == pytest.approx(total)


def test_mttd_descends_to_all_elements():
    st = _mini_state()
    res = mttd(st, _Q(), 3, eps=0.1)
    assert sorted(res.eids) == [0, 1, 2]


def test_mtts_duplicate_words_rejected_by_threshold():
    """A clone of the best element has zero marginal gain — high-φ
    candidates must refuse it, so the result has no duplicates."""
    phi = np.zeros((1, 4))
    phi[0] = [0.4, 0.3, 0.2, 0.1]
    els = [
        make_element(0, 1, np.array([0, 1]), np.ones(2), [0], [1.0], np.array([]), phi),
        make_element(1, 1, np.array([0, 1]), np.ones(2), [0], [1.0], np.array([]), phi),
        make_element(2, 1, np.array([2]), np.ones(1), [0], [1.0], np.array([]), phi),
    ]
    st = SIRStream(T=10, L=1, lam=1.0, eta=1.0)
    st.load(els)
    st.run_all(1)
    res = mttd(st, _Q(), 2, eps=0.1)
    assert 2 in res.eids  # the distinct-word element wins over the clone
    assert sorted(res.eids) != [0, 1]


def test_empty_state_returns_empty():
    st = SIRStream(T=10, L=1, lam=0.5, eta=1.0)
    st.load([])
    st.run_all(1)
    for alg in (mtts, mttd):
        res = alg(st, _Q(), 5)
        assert res.eids == [] and res.value == 0.0
        assert res.n_evaluated == 0


def test_query_vector_with_unknown_topic():
    st = _mini_state()

    class Q:
        topics = np.array([7])  # no ranked list for this topic
        weights = np.array([1.0])

    assert mtts(st, Q(), 3).eids == []
    assert mttd(st, Q(), 3).eids == []


def test_determinism():
    st = _mini_state()
    a = mtts(st, _Q(), 2, eps=0.2)
    b = mtts(st, _Q(), 2, eps=0.2)
    assert a.eids == b.eids and a.value == b.value
    c = mttd(st, _Q(), 2, eps=0.2)
    d = mttd(st, _Q(), 2, eps=0.2)
    assert c.eids == d.eids and c.value == d.value


def test_queries_do_not_mutate_state(tiny_state, tiny_queries):
    """Query processing is read-only over window + ranked lists."""
    rl_before = {i: list(lst) for i, lst in tiny_state.rl.lists.items()}
    active_before = set(tiny_state.window.active)
    for q in tiny_queries[:4]:
        mtts(tiny_state, q, 5)
        mttd(tiny_state, q, 5)
    assert {i: list(lst) for i, lst in tiny_state.rl.lists.items()} == rl_before
    assert tiny_state.window.active == active_before


def test_mtts_eps_controls_candidate_granularity(small_state, small_queries):
    """Smaller ε ⇒ more candidates ⇒ no worse result value (usually
    better); at minimum the (1/2−ε) guarantee tightens."""
    q = small_queries[0]
    tight = mtts(small_state, q, 10, eps=0.05)
    loose = mtts(small_state, q, 10, eps=0.5)
    assert tight.value >= loose.value * 0.8  # same ballpark, never collapse


def test_mttd_evaluation_accounting(small_state, small_queries):
    """MTTD may re-evaluate buffered elements (n_evaluated is not tied to
    n_retrieved), while MTTS evaluates exactly once per retrieved tuple."""
    for q in small_queries:
        res = mttd(small_state, q, 10)
        assert res.n_evaluated >= len(res.eids)
        assert res.n_retrieved >= len(res.eids)
        mt = mtts(small_state, q, 10)
        assert mt.n_evaluated == mt.n_retrieved


def test_query_result_fields():
    r = QueryResult([1, 2], 3.5, 10, 12)
    assert r.eids == [1, 2] and r.value == 3.5
    assert r.n_evaluated == 10 and r.n_retrieved == 12


def test_traversal_snapshot_isolation():
    """Two traversals over the same lists are independent."""
    rl = RankedLists()
    for eid, d in [(1, 3.0), (2, 2.0), (3, 1.0)]:
        rl.upsert(0, eid, d)
    t1 = Traversal(rl, [0], [1.0])
    t2 = Traversal(rl, [0], [1.0])
    assert t1.pop_best() == (1, 0)
    assert t2.pop_best() == (1, 0)  # unaffected by t1's visited set


def test_mtts_value_matches_bound_shape(small_state, small_queries):
    """MTTS value never exceeds MTTD+CELF ceiling by construction."""
    from repro.baselines import celf

    for q in small_queries[:5]:
        v_celf = celf(small_state, q, 10).value
        v_mtts = mtts(small_state, q, 10).value
        # greedy (1−1/e) vs sieve (1/2−ε): CELF should not lose to MTTS
        # by more than the theory allows in aggregate; sanity ceiling:
        assert v_mtts <= v_celf / (1 - 1 / math.e) + 1e-9


# -- shared candidate states: equal to one independent state per guess ----

def _ref_refit(cands, m, k, eps, new):
    """Φ = {(1+ε)^j : m ≤ (1+ε)^j ≤ 2km}, each new guess its own S = ∅."""
    log_base = math.log1p(eps)
    j_lo = math.ceil(math.log(m) / log_base - 1e-9)
    j_hi = math.floor(math.log(2.0 * k * m) / log_base + 1e-9)
    for j in list(cands):
        if j < j_lo or j > j_hi:
            del cands[j]
    for j in range(j_lo, j_hi + 1):
        if j not in cands:
            cands[j] = new()


def _ref_mtts(state, query, k, eps):
    """Algorithm 2 with one independent CoverageState per OPT guess."""
    w, topics, weights, new = open_query(state, query, k)
    trav = Traversal(state.rl, topics, weights)
    cands = {}
    delta_max, th, n_eval = 0.0, 0.0, 0
    while True:
        ub = trav.upper_bound()
        if ub < th or ub <= 1e-12:
            break
        popped = trav.pop_best()
        if popped is None:
            break
        e = w.store[popped[0]]
        dex = w.delta_x(e.eid, topics, weights)
        n_eval += 1
        if dex > delta_max:
            delta_max = dex
            _ref_refit(cands, delta_max, k, eps, new)
        for j in sorted(cands):
            t_j = (1.0 + eps) ** j / (2.0 * k)
            if dex < t_j:
                break
            cand = cands[j]
            if len(cand.S) < k and cand.gain(e) >= t_j:
                cand.add(e)
        unfilled = [j for j, c in cands.items() if len(c.S) < k]
        th = (1.0 + eps) ** min(unfilled) / (2.0 * k) if unfilled else math.inf
        if cands and not unfilled:
            break
    return best_result(cands.values(), n_eval, trav.n_retrieved)


def _ref_sieve(state, query, k, eps):
    """SieveStreaming with one independent CoverageState per OPT guess."""
    w, topics, weights, new = open_query(state, query, k)
    cands = {}
    m, n_eval = 0.0, 0
    for eid in sorted(w.active):
        e = w.store[eid]
        d = singleton_delta(e, w, topics, weights, state.lam, state.eta)
        n_eval += 1
        if d <= 0:
            continue
        if d > m:
            m = d
            _ref_refit(cands, m, k, eps, new)
        for j, cand in cands.items():
            if len(cand.S) >= k:
                continue
            need = ((1.0 + eps) ** j / 2.0 - cand.value) / (k - len(cand.S))
            if cand.gain(e) >= need:
                cand.add(e)
    return best_result(cands.values(), n_eval, 0)


@pytest.mark.parametrize("k", [1, 5, 10])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
def test_shared_states_match_independent_candidates(small_state, small_queries, eps, k):
    for alg, ref in ((mtts, _ref_mtts), (sieve_streaming, _ref_sieve)):
        for q in small_queries:
            got, want = alg(small_state, q, k, eps), ref(small_state, q, k, eps)
            assert got.eids == want.eids
            assert got.value.hex() == float(want.value).hex()
            assert (got.n_evaluated, got.n_retrieved) == (want.n_evaluated, want.n_retrieved)


def test_coverage_copy_is_independent(small_state, small_queries):
    q = small_queries[0]
    w, topics, _, new = open_query(small_state, q, 3)
    ranked = [eid for _, eid in small_state.rl.lists[topics[0]]]
    a, b, c = (w.store[eid] for eid in ranked[:3])
    orig = new()
    orig.add(a)
    before = (list(orig.S), orig.value, orig.gain(b), orig.gain(c))
    dup = orig.copy()
    assert (dup.S, dup.value, dup.gain(b)) == (orig.S, orig.value, before[2])
    dup.add(b)
    dup.add(c)
    assert (orig.S, orig.value, orig.gain(b), orig.gain(c)) == before
    fresh = new()
    for e in (a, b, c):
        fresh.add(e)
    assert dup.S == fresh.S and dup.value == fresh.value


def _scan_head(rl, topic, visited):
    for negd, eid in rl.lists.get(topic, ()):
        if eid not in visited:
            return eid, -negd
    return None


def _assert_drains_like_scan(rl, topics, weights):
    trav = Traversal(rl, topics, weights)
    visited = set()
    while True:
        heads = [_scan_head(rl, i, visited) for i in topics]
        assert [trav.head(i) for i in topics] == heads
        ub = 0.0
        for x, h in zip(weights, heads):
            if h is not None:
                ub += x * h[1]
        assert trav.upper_bound() == ub
        popped = trav.pop_best()
        if popped is None:
            assert all(h is None for h in heads)
            return
        visited.add(popped[0])


def test_traversal_cached_heads_match_fresh_scan(small_state, small_queries):
    rl = RankedLists()
    # e1 heads RL_0 and RL_1 at once; e4 sits in all three lists
    for topic, eid, d in [(0, 1, 5.0), (1, 1, 4.0), (0, 2, 3.0), (1, 3, 3.5),
                          (2, 4, 2.0), (0, 4, 1.0), (1, 4, 0.5), (2, 5, 1.5)]:
        rl.upsert(topic, eid, d)
    _assert_drains_like_scan(rl, [0, 1, 2], [0.5, 0.3, 0.2])
    _assert_drains_like_scan(rl, [1, 9, 0], [1.0, 1.0, 1.0])  # 9: no list
    for q in small_queries[:3]:
        _assert_drains_like_scan(small_state.rl, [int(i) for i in q.topics],
                                 [float(x) for x in q.weights])
