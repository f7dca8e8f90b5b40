"""Active window maintenance (Section 3.1 + Algorithm 1).

``ActiveWindow`` maintains, at stream time t:

* the sliding window W_t = {e | e.ts ∈ [t−T+1, t]},
* the active set A_t = W_t ∪ {parents referred to by W_t} — an element
  is active iff t_e ≥ t−T+1, where t_e = max(e.ts, last-referred ts),
* per-parent in-window children I_t(e) with per-topic probability sums
  (so singleton influence I_{i,t}(e) = p_i(e)·Σ_{c∈I_t(e)} p_i(c) is O(1)),
* per-element topic-wise scores δ_i(e) = λ·R_i(e) + (1−λ)/η·I_{i,t}(e),
  pushed into the ranked lists whenever they change.

Beyond Algorithm 1 we also *recompute parent scores when a child falls
out of W_t* (the paper notes influence "fluctuates over the sliding
window"; stale δ would invalidate the upper bounds MTTS/MTTD rely on),
and we re-activate an expired element that is referred to again — both
follow directly from the definitions of A_t and I_t.
"""
from __future__ import annotations

import heapq
from typing import Iterable

from repro.core.ranked_lists import RankedLists
from repro.core.scoring import Element

__all__ = ["ActiveWindow"]


class ActiveWindow:
    """Sliding-window state over a social stream (one instance per stream)."""

    def __init__(self, T: int, lam: float, eta: float, rl: RankedLists | None = None):
        self.T = int(T)
        self.lam = float(lam)
        self.c_inf = (1.0 - lam) / eta
        self.rl = rl if rl is not None else RankedLists()
        self.t = 0
        self.store: dict[int, Element] = {}
        self.active: set[int] = set()
        self.t_e: dict[int, int] = {}
        # children[p] = ts-ascending [(child_ts, child_eid)]; front-pruned
        self.children: dict[int, list[tuple[int, int]]] = {}
        # chsum[p][i] = Σ_{c ∈ I_t(p)} p_i(c), keyed on p's own topics
        self.chsum: dict[int, dict[int, float]] = {}
        self.delta: dict[int, dict[int, float]] = {}
        self._expiry: list[tuple[int, int]] = []  # (t_e, eid) lazy heap
        self._child_expiry: list[tuple[int, int, int]] = []  # (child_ts, parent, child)

    # -- queries over state ---------------------------------------------
    @property
    def cutoff(self) -> int:
        """Largest timestamp already outside the window (= t − T)."""
        return self.t - self.T

    def children_of(self, eid: int) -> list[Element]:
        """I_t(eid): active in-window children (the scorer's context)."""
        cut = self.cutoff
        return [self.store[c] for ts, c in self.children.get(eid, ()) if ts > cut]

    def delta_of(self, eid: int) -> dict[int, float]:
        return self.delta.get(eid, {})

    def delta_x(self, eid: int, topics, weights) -> float:
        """δ(e, x) = Σ_i x_i·δ_i(e) for a query vector."""
        d = self.delta.get(eid)
        if not d:
            return 0.0
        return sum(x * d.get(i, 0.0) for i, x in zip(topics, weights))

    @property
    def n_active(self) -> int:
        return len(self.active)

    # -- maintenance -----------------------------------------------------
    def ingest(self, elements: Iterable[Element], t: int) -> None:
        """Apply bucket B_t (elements with ts ≤ t) and slide to time t."""
        if t < self.t:
            raise ValueError("time must be monotone")
        dirty: set[int] = set()
        for e in elements:
            self.store[e.eid] = e
            self.active.add(e.eid)
            self.t_e[e.eid] = e.ts
            heapq.heappush(self._expiry, (e.ts, e.eid))
            dirty.add(e.eid)
            for p in e.refs:
                parent = self.store.get(int(p))
                if parent is None:
                    continue  # reference to an element outside the run
                self.children.setdefault(parent.eid, []).append((e.ts, e.eid))
                heapq.heappush(self._child_expiry, (e.ts, parent.eid, e.eid))
                cs = self.chsum.setdefault(parent.eid, {})
                for i in parent.tp:
                    pc = e.tp.get(i)
                    if pc:
                        cs[i] = cs.get(i, 0.0) + pc
                self.t_e[parent.eid] = e.ts
                heapq.heappush(self._expiry, (e.ts, parent.eid))
                if parent.eid not in self.active:
                    self.active.add(parent.eid)  # re-enters A_t by definition
                dirty.add(parent.eid)
        self.t = t
        self._expire(dirty)
        for eid in dirty:
            if eid in self.active:
                self._refresh(eid)

    def _expire(self, dirty: set[int]) -> None:
        cut = self.cutoff
        # 1. children leaving W_t: shrink I_t(parent), decrement chsum
        while self._child_expiry and self._child_expiry[0][0] <= cut:
            cts, p, c = heapq.heappop(self._child_expiry)
            child = self.store.get(c)
            parent = self.store.get(p)
            if child is None or parent is None:
                continue
            cs = self.chsum.get(p)
            if cs is not None:
                for i in parent.tp:
                    pc = child.tp.get(i)
                    if pc:
                        cs[i] = cs.get(i, 0.0) - pc
            lst = self.children.get(p)
            if lst:
                while lst and lst[0][0] <= cut:
                    lst.pop(0)
            if p in self.active:
                dirty.add(p)
        # 2. elements leaving A_t: t_e ≤ t − T ⇒ drop from lists
        while self._expiry and self._expiry[0][0] <= cut:
            te, eid = heapq.heappop(self._expiry)
            if self.t_e.get(eid, -1) != te:
                continue  # stale entry: t_e advanced since push
            if eid in self.active:
                self.active.discard(eid)
                e = self.store[eid]
                self.rl.remove_element(eid, e.tp.keys())
                self.delta.pop(eid, None)
                dirty.discard(eid)

    def _refresh(self, eid: int) -> None:
        """Recompute δ_i(eid) for its topics and reposition in RL_i."""
        e = self.store[eid]
        cs = self.chsum.get(eid, {})
        d: dict[int, float] = {}
        for i, pe in e.tp.items():
            inf = pe * max(cs.get(i, 0.0), 0.0)
            d[i] = self.lam * e.R[i] + self.c_inf * inf
            self.rl.upsert(i, eid, d[i])
        self.delta[eid] = d
