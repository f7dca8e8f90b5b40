"""In-memory tracing for the benchmark's traced run.

Wrappers are installed from here, around the public functions and
methods of each layer, for the traced phase only; nothing in the
program is edited.  Each wrapper adds its duration to the child time of
the traced call that encloses it, so a layer's self time is its
duration minus its traced children.

Per-call spans would run to millions per run (``Traversal.head`` runs
for every queried topic on every pop), so every call is folded into
per-layer totals (calls, seconds, self seconds) and a span is kept per
request — one bucket or one query — holding the calls and self time
each layer spent inside it.  Spans are written out when the run ends.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import repro.core as core
from repro.core import scoring
from repro.core.ranked_lists import RankedLists, Traversal
from repro.core.scoring import CoverageState
from repro.core.state import SIRStream
from repro.core.window import ActiveWindow

_TRAVERSAL = ("traversal.head", "traversal.upper_bound", "traversal.pop_best")


def _sites():
    """(layer name, [(owner, attribute), ...]) for every traced entry point."""
    make_sites = [(core, "make_element"), (scoring, "make_element")]
    streaming = sys.modules.get("repro.spark.streaming")
    if streaming is not None:
        make_sites.append((streaming, "make_element"))
    return [
        ("scoring.make_element", make_sites),
        ("coverage.gain", [(CoverageState, "gain")]),
        ("coverage.add", [(CoverageState, "add")]),
        ("window.ingest", [(ActiveWindow, "ingest")]),
        ("window.children_of", [(ActiveWindow, "children_of")]),
        ("window.delta_x", [(ActiveWindow, "delta_x")]),
        ("ranked_lists.upsert", [(RankedLists, "upsert")]),
        ("ranked_lists.remove", [(RankedLists, "remove")]),
        ("traversal.head", [(Traversal, "head")]),
        ("traversal.upper_bound", [(Traversal, "upper_bound")]),
        ("traversal.pop_best", [(Traversal, "pop_best")]),
        ("state.ingest_bucket", [(SIRStream, "ingest_bucket")]),
        ("mtts", [(core, "mtts")]),
        ("mttd", [(core, "mttd")]),
    ]


class Tracer:
    """Per-layer totals and per-request spans of one traced phase."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.spans: list[dict] = []
        self.distinct_gain_pairs = 0
        self._stack: list[list[float]] = [[0.0]]
        self._pairs: set = set()
        self._patches: list[tuple] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter
        pairs = self._pairs if name == "coverage.gain" else None

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                if pairs is not None:  # gain(self, e): count distinct (e, S)
                    pairs.add((args[1].eid, tuple(args[0].S)))
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]

        return traced

    def install(self) -> None:
        for name, sites in _sites():
            wrapped = self._wrap(name, getattr(*sites[0]))
            for owner, attr in sites:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def request(self, kind: str, rid, **attrs):
        """Span of one bucket or query; collects the layers it ran."""
        before = {k: (v[0], v[2]) for k, v in self.totals.items()}
        self._pairs.clear()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.distinct_gain_pairs += len(self._pairs)
            layers = {
                k: [v[0] - before[k][0], round(1e6 * (v[2] - before[k][1]), 2)]
                for k, v in self.totals.items()
                if v[0] != before[k][0]
            }
            self.spans.append({
                "run": self.run_id, "span": len(self.spans), "kind": kind, "id": rid,
                "start_s": round(start - self._t0, 6), "end_s": round(end - self._t0, 6),
                "layers_calls_self_us": layers, **attrs,
            })

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def layer_metrics(self, passes: int = 1, query_passes: int | None = None) -> dict:
        """Per-layer metrics for every layer this phase exercised.

        The phase ran ``passes`` identical passes over the same buckets
        and ``query_passes`` (default ``passes``) over the same queries;
        counts are per pass, times per call.
        """
        qp = query_passes or passes
        t, m = self.totals, {}
        n_elem = self.calls("scoring.make_element")
        if n_elem:
            m["scoring.make_element.us_per_elem"] = 1e6 * t["scoring.make_element"][1] / n_elem
            m["scoring.make_element.calls"] = n_elem // passes
            if self.calls("window.ingest"):
                m["window.ingest.self_us_per_elem"] = 1e6 * t["window.ingest"][2] / n_elem
        if self.calls("ranked_lists.upsert"):
            m["ranked_lists.upsert.us_per_call"] = 1e6 * t["ranked_lists.upsert"][1] / self.calls(
                "ranked_lists.upsert")
            m["ranked_lists.upsert.calls"] = self.calls("ranked_lists.upsert") // passes
        if self.calls("ranked_lists.remove"):
            m["ranked_lists.remove.calls"] = self.calls("ranked_lists.remove") // passes
        n_query = self.calls("mtts") + self.calls("mttd")
        if n_query:
            trav_s = sum(t[name][2] for name in _TRAVERSAL)
            m["traversal.ms_per_query"] = 1e3 * trav_s / n_query
            m["traversal.pop_best.calls"] = self.calls("traversal.pop_best") // qp
            m["traversal.upper_bound.calls"] = self.calls("traversal.upper_bound") // qp
        n_gain = self.calls("coverage.gain")
        if n_gain:
            m["coverage.gain.calls"] = n_gain // qp
            m["coverage.gain.us_per_call"] = 1e6 * t["coverage.gain"][1] / n_gain
            m["coverage.gain.distinct_ratio"] = self.distinct_gain_pairs / n_gain
            m["window.children_of.calls"] = self.calls("window.children_of") // qp
        for alg in ("mtts", "mttd"):
            if self.calls(alg):
                m[f"{alg}.self_ms_per_query"] = 1e3 * t[alg][2] / self.calls(alg)
        return m
