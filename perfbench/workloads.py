"""The in-process workloads: ingest-reddit, query-aminer and live-twitter.

Each takes the seed, the measuring time and a tracer (None for an
untraced run) and returns an :class:`~common.Outcome`.  Inputs come from
``repro.corpus`` with the seed; the program only ever sees the
generated arrays, elements and queries.

Every timed unit (a bucket, a query) is run several times in
interleaved passes over identical work, and its time is the best of
those passes.  The host's contention comes in millisecond bursts, so
one pass's figure moves with the neighbours; the best of a few does
not.  The number of passes follows from ``--seconds`` by a fixed rate,
never from the clock.
"""
from __future__ import annotations

import bisect
import copy
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

import repro.core as core
from repro.baselines.celf import celf
from repro.core import SIRStream, build_elements
from repro.corpus import (
    AMINER, REDDIT, TWITTER, StreamProfile, generate_queries, generate_stream,
)

from common import (
    EPS, K, L, T, Z, Outcome, bound_problem, bucket_slices, materialise, pct, prebuilt_state,
    quality, result_problem, state_diff, state_digest, state_gauges, state_problems,
)

ALGS = ("mtts", "mttd")

# ingest-reddit and query-aminer run the same rounds on one stream of
# SPAN: replays of every bucket into a fresh state, interleaved with
# passes of MTTS and of MTTD over their query sets on the final window.  A
# workload's mix sets the profile, the stream's size, and how many
# replays and queries each second of measuring time buys, so that a
# slower program gets the same work, not less.
SPAN = 3 * T
QUERY_PASSES = 10
QUERY_WARMUP = 20


@dataclass(frozen=True)
class Mix:
    profile: StreamProfile
    n_elements: int
    replays_per_s: float
    #: queries per second for each algorithm, each run in QUERY_PASSES
    #: passes; MTTD is much cheaper than MTTS, and its latency spreads
    #: widely over queries, so it gets more of them to pin its p50
    queries_per_s: dict


#: Reddit has the most elements per bucket (83 per 15 min, Table 3) and
#: the shortest documents: a replay of its 23.9k elements takes about
#: 0.75 s, MTTS about 7 ms and MTTD about 1.6 ms.  At 20 s: 13 replays
#: (10 s), 10 passes over 120 MTTS queries (8.4 s) and 300 MTTD queries
#: (4.8 s).
INGEST_REDDIT = Mix(REDDIT, 83 * SPAN // L, replays_per_s=0.64,
                    queries_per_s={"mtts": 60, "mttd": 150})
#: AMiner has the longest documents and about 3.7 references per element:
#: a replay of 12k elements takes about 0.6 s, MTTS about 23 ms and MTTD
#: about 3 ms.  At 20 s: 10 replays (6 s), 10 passes over 64 MTTS queries
#: (14.7 s) and 240 MTTD queries (7.2 s).
QUERY_AMINER = Mix(AMINER, 12_000, replays_per_s=0.5,
                   queries_per_s={"mtts": 32, "mttd": 120})

# live-twitter: after a prefix of T built in set-up, LIVE_SPAN of stream
# time is replayed open loop at STREAM_MIN_PER_S stream minutes per wall
# second, i.e. one bucket due every 75 ms and a query every 30 ms on
# average, which keeps the server busy about a fifth of the time.  A
# request whose best latency over the replays exceeds LATENCY_LIMIT_MS
# counts as failed: the code did not sustain the rate.  Only the p50s
# are metrics here: a p95 is whichever request happened to fall due just
# behind an MTTS query or a bucket, which changes with the seed, so the
# p95s go to the record.
TWITTER_PER_BUCKET = 60
LIVE_SPAN = T
STREAM_MIN_PER_S = 200
LIVE_QUERIES = 240
LATENCY_LIMIT_MS = 500.0
LIVE_LEAD_S = 0.05  # the first event is due this long after a replay starts


def _ms(seconds) -> np.ndarray:
    return 1e3 * np.asarray(seconds, dtype=float)


def _passes(rate: float, seconds: float) -> int:
    return max(2, round(rate * seconds))


def _run_query(alg: str, state, q, tracer, qid):
    fn = getattr(core, alg)  # looked up per call so the traced wrapper is seen
    with tracer.request("query", qid, alg=alg) if tracer else nullcontext():
        return fn(state, q, K, EPS)


def _same_answer(a, b) -> bool:
    return a.eids == b.eids and a.value == b.value


def _check_answer(out: Outcome, alg: str, qid, state, q, res, ratios, ref: float) -> None:
    """f(S,x) recomputed and the approximation bound against CELF's ``ref``."""
    problem = result_problem(state, q, res) or bound_problem(alg, res.value, ref)
    if problem is None:
        ratios[alg].append(quality(res.value, ref))
    else:
        out.fail(f"{alg} query {qid}: {problem}")


def _batch_reference(stream) -> SIRStream:
    ref = SIRStream(T=T, L=L, lam=stream.profile.lam, eta=stream.profile.eta)
    ref.load(build_elements(stream))
    ref.run_all()
    return ref


# -- ingest-reddit and query-aminer --------------------------------------------

def _replay(stream, buckets, out: Outcome, tracer=None):
    """One replay of every bucket into a fresh SIRStream.

    Returns (state, per-bucket service seconds).
    """
    state = SIRStream(T=T, L=L, lam=stream.profile.lam, eta=stream.profile.eta)
    lat = np.empty(len(buckets))
    clock = time.perf_counter
    for j, (b, lo, hi) in enumerate(buckets):
        t0 = clock()
        try:
            with tracer.request("bucket", b, n=hi - lo) if tracer else nullcontext():
                state.ingest_bucket(materialise(stream, lo, hi), b)
        except Exception:
            out.fail(f"bucket {b}: {traceback.format_exc(limit=3)}")
        lat[j] = clock() - t0
    return state, lat


def _ingest_metrics(n_elements: int, best) -> dict:
    return {"ingest_elems_per_s": n_elements / float(np.sum(best)),
            "bucket_p50_ms": pct(_ms(best), 50), "bucket_p95_ms": pct(_ms(best), 95)}


def _query_metrics(best) -> dict:
    return {f"{alg}_p{q}_ms": pct(_ms(best[alg]), q) for alg in ALGS for q in (50, 95)}


def _query_pass(state, queries: dict, out: Outcome, lat, first, evals, tracer=None) -> None:
    """One pass of each algorithm over its queries, ``queries[alg]``.

    Writes each query's seconds to ``lat[alg][qid]``, its n_evaluated /
    n_active to ``evals[alg]``, and its answer to ``first`` if it has
    none yet; an answer that differs from the one in ``first`` fails.
    """
    clock = time.perf_counter
    for alg in ALGS:
        for qid, q in enumerate(queries[alg]):
            t0 = clock()
            try:
                res = _run_query(alg, state, q, tracer, qid)
            except Exception:
                out.fail(f"{alg} query {qid}: {traceback.format_exc(limit=3)}")
                res = None
            lat[alg][qid] = clock() - t0
            if res is None:
                continue
            evals[alg].append(res.n_evaluated / state.window.n_active)
            prev = first.setdefault((alg, qid), res)
            if prev is not res and not _same_answer(res, prev):
                out.fail(f"{alg} query {qid}: answer changed between passes")
    out.attempted += sum(len(v) for v in queries.values())


def _rounds(stream, buckets, snapshot, queries, out: Outcome, reps: int, first: dict,
            tracer=None):
    """QUERY_PASSES rounds, each a share of the ``reps`` replays of every
    bucket into a fresh state, then one pass of every query on
    ``snapshot``.

    The host's speed changes over seconds, so each bucket's and each
    query's best time is taken over passes spread across the whole run.
    Returns (last replayed state, best seconds per bucket, replay
    digests, best seconds per query per algorithm, mean n_evaluated /
    n_active per algorithm).
    """
    r_lat = np.empty((reps, len(buckets)))
    q_lat = {alg: np.empty((QUERY_PASSES, len(queries[alg]))) for alg in ALGS}
    evals, digests, state = {alg: [] for alg in ALGS}, [], None
    for p in range(QUERY_PASSES):
        for r in range(reps * p // QUERY_PASSES, reps * (p + 1) // QUERY_PASSES):
            state, r_lat[r] = _replay(stream, buckets, out, tracer)
            digests.append(state_digest(state))
        _query_pass(snapshot, queries, out, {alg: v[p] for alg, v in q_lat.items()},
                    first, evals, tracer)
    out.attempted += reps * len(buckets)
    return (state, r_lat.min(axis=0), digests, {alg: v.min(axis=0) for alg, v in q_lat.items()},
            {alg: float(np.mean(v)) for alg, v in evals.items() if v})


def ingest_and_query(mix: Mix, seed: int, seconds: float, tracer=None) -> Outcome:
    """Replays of the whole stream interleaved with query passes on its
    final window.

    Set-up generates the stream and builds the batch state of the whole
    stream (``run_all`` over ``build_elements``), which is both the
    snapshot the queries run on and the reference the replays must end in.
    """
    out = Outcome()

    def setup():
        stream = generate_stream(mix.profile, n_elements=mix.n_elements, z=Z, duration=SPAN,
                                 seed=seed)
        return stream, _batch_reference(stream)

    stream, snapshot = out.setup(setup)
    buckets = bucket_slices(stream)
    reps = _passes(mix.replays_per_s, seconds)
    n_queries = {alg: max(QUERY_WARMUP, round(rate * seconds / QUERY_PASSES))
                 for alg, rate in mix.queries_per_s.items()}
    pool = generate_queries(stream, max(n_queries.values()), seed=seed, t_min=T)
    queries = {alg: pool[:n] for alg, n in n_queries.items()}

    # Warm-up: the first replay and the first queries in a process run
    # markedly slower than later ones.
    start = time.perf_counter()
    _replay(stream, buckets, out)
    for q in pool[:QUERY_WARMUP]:
        for alg in ALGS:
            getattr(core, alg)(snapshot, q, K, EPS)
    out.warmup_s = time.perf_counter() - start

    first = {}
    state, best, digests, q_best, _ = _rounds(stream, buckets, snapshot, queries, out, reps, first)
    out.metrics.update(_ingest_metrics(stream.n, best))
    q_metrics = _query_metrics(q_best)
    out.metrics.update({k: v for k, v in q_metrics.items() if "_p50_" in k})
    out.info["query_p95_ms"] = {k: v for k, v in q_metrics.items() if "_p95_" in k}
    out.samples.update(bucket=len(buckets), replays=reps, passes=QUERY_PASSES, **n_queries)

    # Checks: every replay ended in the batch state, whose δ and lists
    # equal values recomputed from scratch; each answer is recomputed and
    # held against CELF (every pass gave the same answer).
    problems = state_diff(state, snapshot) + state_problems(state)
    if problems:
        out.fail(f"final state: {problems[:3]}", len(buckets))
    if len(set(digests)) != 1:
        out.fail("replays ended in different states", len(buckets))
    ratios, celf_values = {alg: [] for alg in ALGS}, {}
    for (alg, qid), res in sorted(first.items()):
        q = pool[qid]
        if qid not in celf_values:
            celf_values[qid] = celf(snapshot, q, K).value
        _check_answer(out, alg, qid, snapshot, q, res, ratios, celf_values[qid])
    for alg in ALGS:
        out.metrics[f"{alg}_quality"] = sum(ratios[alg]) / max(1, len(ratios[alg]))
        out.samples[f"{alg}_quality"] = len(ratios[alg])

    if tracer is not None:
        # The traced rounds must repeat the untraced answers and states.
        with tracer.active():
            t_state, t_best, t_digests, tq_best, evals = _rounds(
                stream, buckets, snapshot, queries, out, reps, first, tracer)
        if set(t_digests) != {digests[-1]}:
            out.fail("a traced replay ended in a different state", len(buckets))
        out.traced = {**_ingest_metrics(stream.n, t_best), **_query_metrics(tq_best)}
        out.layers = tracer.layer_metrics(reps, QUERY_PASSES)
        out.layers.update({f"{alg}.eval_ratio": v for alg, v in evals.items()})
        out.layers.update(state_gauges(t_state))
    out.info.update(n_elements=stream.n, n_buckets=len(buckets), n_queries=len(pool),
                    n_active=snapshot.window.n_active, gauges=state_gauges(state))
    return out


# -- live-twitter ---------------------------------------------------------------

def _live_events(stream, queries) -> list:
    """(due seconds, kind, payload) in service order.

    Bucket b is due when its boundary passes, query i at its own ts; at
    equal due times the bucket goes first, so a query is answered on the
    state after the last boundary at or before its ts.
    """
    events = [((b - T) / STREAM_MIN_PER_S, 0, (b, lo, hi))
              for b, lo, hi in bucket_slices(stream, T)]
    events += [((q.ts - T) / STREAM_MIN_PER_S, 1, (i, q)) for i, q in enumerate(queries)]
    events.sort(key=lambda e: (e[0], e[1], e[2][0]))
    return events


def _wait_until(t: float) -> None:
    """Spin until ``t``: a sleeping server wakes late and on a cold core."""
    while time.perf_counter() < t:
        pass


def _live_replay(stream, prefix, events, out: Outcome, tracer=None):
    """One open-loop replay from a copy of the T prefix; a single server
    takes the events in due order.

    Returns (state, seconds from due to done per event, seconds from due
    to start per event, largest backlog, {query id: (answer, n_active)}).
    """
    state = copy.deepcopy(prefix)
    dues = [e[0] for e in events]
    lat, late = np.empty(len(events)), np.empty(len(events))
    backlog, answers = 0, {}
    clock = time.perf_counter
    start = clock() + LIVE_LEAD_S
    for j, (due, kind, payload) in enumerate(events):
        t_due = start + due
        _wait_until(t_due)
        begin = clock()
        late[j] = begin - t_due
        backlog = max(backlog, bisect.bisect_right(dues, begin - start) - j)
        try:
            if kind == 0:
                b, lo, hi = payload
                with tracer.request("bucket", b, n=hi - lo) if tracer else nullcontext():
                    state.ingest_bucket(materialise(stream, lo, hi), b)
            else:
                qid, q = payload
                res = _run_query(ALGS[qid % 2], state, q, tracer, qid)
                answers[qid] = (res, state.window.n_active)
        except Exception:
            out.fail(f"event {j}: {traceback.format_exc(limit=3)}")
        lat[j] = clock() - t_due
    return state, lat, late, backlog, answers


def _live_replays(stream, prefix, events, out: Outcome, n: int, tracer=None):
    """``n`` replays; returns (best seconds per event, lateness of every
    event, largest backlog, answers per replay, final-state digests)."""
    lat = np.empty((n, len(events)))
    late, backlogs, answers, digests = [], [], [], []
    for r in range(n):
        state, lat[r], rep_late, backlog, rep_answers = _live_replay(stream, prefix, events, out, tracer)
        late.extend(rep_late)
        backlogs.append(backlog)
        answers.append(rep_answers)
        digests.append(state_digest(state))
    out.attempted += n * len(events)
    return lat.min(axis=0), late, max(backlogs), answers, digests


def _live_metrics(events, best) -> dict:
    groups = {"bucket": [], "mtts": [], "mttd": []}
    for (_, kind, payload), s in zip(events, best):
        groups["bucket" if kind == 0 else ALGS[payload[0] % 2]].append(s)
    return {f"{g}_p{q}_ms": pct(_ms(v), q) for g, v in groups.items() for q in (50, 95)}


def live_twitter(seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    duration = T + LIVE_SPAN
    n = TWITTER_PER_BUCKET * duration // L

    def setup():
        stream = generate_stream(TWITTER, n_elements=n, z=Z, duration=duration, seed=seed)
        return stream, prebuilt_state(stream, T)

    stream, prefix = out.setup(setup)
    queries = sorted(generate_queries(stream, LIVE_QUERIES, seed=seed, t_min=T),
                     key=lambda q: q.ts)
    events = _live_events(stream, queries)
    n_buckets = len(events) - len(queries)

    # Warm-up and checks: one closed-loop pass over the same events.  Each
    # answer is checked on the state it was computed on, and the final
    # state against a batch run_all over the same stream.  Every timed
    # replay must then give the same answers and end in the same state.
    start = time.perf_counter()
    ratios = {alg: [] for alg in ALGS}
    state, ref = copy.deepcopy(prefix), {}
    for j, (_, kind, payload) in enumerate(events):
        try:
            if kind == 0:
                b, lo, hi = payload
                state.ingest_bucket(materialise(stream, lo, hi), b)
            else:
                qid, q = payload
                ref[qid] = _run_query(ALGS[qid % 2], state, q, None, qid)
                _check_answer(out, ALGS[qid % 2], qid, state, q, ref[qid], ratios,
                              celf(state, q, K).value)
        except Exception:
            out.fail(f"event {j}: {traceback.format_exc(limit=3)}")
    out.warmup_s = time.perf_counter() - start
    out.attempted += len(events)
    for alg in ALGS:
        out.metrics[f"{alg}_quality"] = sum(ratios[alg]) / max(1, len(ratios[alg]))
        out.samples[f"{alg}_quality"] = len(ratios[alg])
    problems = state_diff(state, _batch_reference(stream)) + state_problems(state)
    if problems:
        out.fail(f"final state: {problems[:3]}", n_buckets)
    digest = state_digest(state)

    def replays(tracer=None):
        best, late, backlog, answers, digests = _live_replays(
            stream, prefix, events, out, reps, tracer)
        for a in answers:
            for qid, (res, _) in a.items():
                if qid not in ref or not _same_answer(res, ref[qid]):
                    out.fail(f"query {qid}: a timed replay gave another answer")
        if set(digests) != {digest}:
            out.fail("a timed replay ended in another state", n_buckets)
        return best, late, backlog, answers

    reps = _passes(STREAM_MIN_PER_S / LIVE_SPAN, seconds)
    best, late, backlog, _ = replays()
    latency = _live_metrics(events, best)
    out.metrics.update({k: v for k, v in latency.items() if "_p50_" in k})
    out.info["p95_ms"] = {k: v for k, v in latency.items() if "_p95_" in k}
    out.samples.update(bucket=n_buckets, replays=reps,
                       mtts=len(queries[::2]), mttd=len(queries[1::2]))
    out.info.update(late_p95_ms=pct(_ms(late), 95), backlog_max=backlog)
    for (_, kind, payload), s in zip(events, best):
        if 1e3 * s > LATENCY_LIMIT_MS:
            out.fail(f"{'bucket' if kind == 0 else 'query'} {payload[0]}: "
                     f"best latency {1e3 * s:.1f} ms over the {LATENCY_LIMIT_MS} ms limit")

    if tracer is not None:
        with tracer.active():
            t_best, _, _, t_answers = replays(tracer)
        out.traced = _live_metrics(events, t_best)
        out.layers = tracer.layer_metrics(reps)
        for alg in ALGS:
            evals = [res.n_evaluated / n_active for a in t_answers
                     for qid, (res, n_active) in a.items() if ALGS[qid % 2] == alg]
            out.layers[f"{alg}.eval_ratio"] = sum(evals) / max(1, len(evals))
        out.layers["loadgen.late_p95_ms"] = out.info["late_p95_ms"]
        out.layers["loadgen.backlog_max"] = backlog
        out.layers.update(state_gauges(state))
    out.info.update(n_elements=stream.n, n_events=len(events), n_queries=len(queries),
                    stream_min_per_s=STREAM_MIN_PER_S, latency_limit_ms=LATENCY_LIMIT_MS)
    return out


WORKLOADS = {
    "ingest-reddit": partial(ingest_and_query, INGEST_REDDIT),
    "query-aminer": partial(ingest_and_query, QUERY_AMINER),
    "live-twitter": live_twitter,
}
#: units of the metrics only live-twitter reports; it is run by hand and
#: is not among the workloads of BENCHMARK.json (see README.md)
LIVE_UNITS = {"loadgen.late_p95_ms": "ms", "loadgen.backlog_max": "count"}
