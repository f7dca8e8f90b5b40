"""Fixed parameters, percentiles and the output checks shared by every
workload.  Checks run outside the timed phase; each failed check is
counted against the buckets or queries it covers."""
from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.core as core
from repro.core import SIRStream, f_set_score

# Paper defaults (Table 4) shared by every workload.
Z, T, L, K, EPS = 50, 1440, 15, 10, 0.1
#: set-up is repeated this many times per run and its median reported
SETUP_REPS = 3
#: tolerance of a recomputed score, as in tests/test_spark_scores.py
REL, ABS = 1e-9, 1e-12
#: approximation factors of MTTS (Theorem 2) and MTTD (Theorem 3)
BOUND = {"mtts": 0.5 - EPS, "mttd": 1.0 - 1.0 / math.e - EPS}


def pct(values, q: float) -> float:
    """The q-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set of this Python process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)  # end-to-end, untraced phase
    samples: dict = field(default_factory=dict)  # sample count behind each percentile
    attempted: int = 0
    failed: int = 0
    setup_reps: list = field(default_factory=list)
    warmup_s: float = 0.0
    layers: dict = field(default_factory=dict)  # per-layer, traced phase
    traced: dict = field(default_factory=dict)  # end-to-end, traced phase
    spans: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(what)

    def setup(self, build: Callable[[], object]) -> object:
        """Run ``build`` SETUP_REPS times, timing each; return the last result.

        Every repetition builds from the same seed, so all results are
        equal and only the last is kept (earlier ones are released first).
        """
        result = None
        for _ in range(SETUP_REPS):
            result = None
            start = time.perf_counter()
            result = build()
            self.setup_reps.append(time.perf_counter() - start)
        return result


def bucket_slices(stream, t_from: int = 0, t_to: int | None = None):
    """[(boundary b, lo, hi)] for buckets (b−L, b] with t_from < b ≤ t_to.

    Elements lo..hi−1 (eid order = ts order) arrive in bucket b.  Empty
    buckets are kept: they still slide the window.
    """
    t_end = ((stream.t_end + L - 1) // L) * L if t_to is None else t_to
    bounds = list(range((t_from // L + 1) * L, t_end + 1, L))
    his = np.searchsorted(stream.ts, bounds, side="right")
    los = np.searchsorted(stream.ts, [b - L for b in bounds], side="right")
    return [(b, int(lo), int(hi)) for b, lo, hi in zip(bounds, los, his)]


def materialise(stream, lo: int, hi: int) -> list:
    """Elements lo..hi−1 built from the generator's arrays, as
    ``build_elements`` does.  Looks ``make_element`` up on each call so
    the traced run's wrapper is seen."""
    phi = stream.model.phi
    return [
        core.make_element(
            e, stream.ts[e], stream.docs[e][0], stream.docs[e][1],
            stream.topic_ids[e], stream.topic_probs[e], stream.refs[e], phi,
        )
        for e in range(lo, hi)
    ]


def prebuilt_state(stream, t: int) -> SIRStream:
    """A SIRStream that has ingested every bucket up to boundary ``t``."""
    state = SIRStream(T=T, L=L, lam=stream.profile.lam, eta=stream.profile.eta)
    for b, lo, hi in bucket_slices(stream, 0, t):
        state.ingest_bucket(materialise(stream, lo, hi), b)
    return state


# -- output checks ------------------------------------------------------------

def result_problem(state: SIRStream, query, res, k: int = K) -> str | None:
    """Why a query result is wrong on ``state``, or None.

    The reported value must equal f(S, x) recomputed from scratch.
    """
    w = state.window
    if len(res.eids) > k or len(set(res.eids)) != len(res.eids):
        return f"result set of size {len(res.eids)} with duplicates or > k"
    if any(e not in w.active for e in res.eids):
        return "result holds an inactive element"
    elems = [w.store[e] for e in res.eids]
    f = f_set_score(
        elems, query.topics, query.weights, state.lam, state.eta,
        {e.eid: w.children_of(e.eid) for e in elems},
    )
    if not math.isclose(res.value, f, rel_tol=REL, abs_tol=ABS):
        return f"value {res.value!r} != recomputed f(S,x) {f!r}"
    return None


def bound_problem(alg: str, value: float, celf_value: float) -> str | None:
    """MTTS/MTTD must reach their approximation factor of CELF (≤ OPT)."""
    if value < BOUND[alg] * celf_value - ABS:
        return f"{alg} value {value!r} < {BOUND[alg]:.4f}·CELF {celf_value!r}"
    return None


def quality(value: float, celf_value: float) -> float:
    return value / celf_value if celf_value > 0 else 1.0


def state_problems(state: SIRStream) -> list[str]:
    """Maintained δ and ranked lists against values recomputed from scratch."""
    w, out = state.window, []
    c_inf = (1.0 - state.lam) / state.eta
    expected: dict[int, list] = {}
    for eid in w.active:
        e = w.store[eid]
        d = w.delta.get(eid, {})
        children = w.children_of(eid)
        for i, pe in e.tp.items():
            want = state.lam * e.R[i] + c_inf * pe * sum(c.tp.get(i, 0.0) for c in children)
            if not math.isclose(d.get(i, math.nan), want, rel_tol=REL, abs_tol=ABS):
                out.append(f"delta[{eid}][{i}] = {d.get(i)!r}, recomputed {want!r}")
            expected.setdefault(i, []).append((-d.get(i, math.nan), eid))
    for i in set(expected) | set(state.rl.lists):
        if sorted(expected.get(i, [])) != state.rl.lists.get(i, []):
            out.append(f"ranked list of topic {i} differs from the active set's delta order")
    return out


def state_diff(a: SIRStream, b: SIRStream) -> list[str]:
    """Differences in time, active set, δ and ranked-list order."""
    out = []
    if a.t != b.t:
        out.append(f"time {a.t} != {b.t}")
    if a.window.active != b.window.active:
        out.append(f"active sets differ ({a.window.n_active} vs {b.window.n_active})")
    if a.window.delta != b.window.delta:
        out.append("delta scores differ")
    if a.rl.lists != b.rl.lists:
        out.append("ranked lists differ")
    return out


def state_digest(state: SIRStream) -> str:
    """Digest of time, active set, δ and ranked lists (exact floats)."""
    h = hashlib.sha256()
    h.update(repr(state.t).encode())
    h.update(repr(sorted(state.window.active)).encode())
    h.update(repr(sorted((e, sorted(d.items())) for e, d in state.window.delta.items())).encode())
    h.update(repr(sorted(state.rl.lists.items())).encode())
    return h.hexdigest()


def state_gauges(state: SIRStream) -> dict:
    """Sizes read from the state's public attributes."""
    w = state.window
    return {
        "state.store_size": len(w.store),
        "state.n_active": w.n_active,
        "state.children_entries": sum(len(v) for v in w.children.values()),
        "state.rl_entries": sum(len(v) for v in state.rl.lists.values()),
    }
