"""Causal span tracing for the simulated transaction lifecycle.

A :class:`Tracer` records :class:`Span` records — intervals of *simulated*
time, causally linked by parent ids — across the whole distributed
transaction lifecycle: client submit, per-operation coordinator rounds,
lock waits, participant execution, message transfers, 2PC commit/abort
rounds, replica sync and group-commit batches, view serves, elections,
catch-up and deadlock-detector sweeps.

The tracer is wall-clock-only instrumentation. It never touches the
simulation: no messages, no RNG draws, no timeouts. Sites hold
``self.tracer = None`` unless ``SystemConfig.tracing`` is on, and every
instrumentation point is gated by one falsy attribute check — the off
path allocates nothing and schedules stay byte-identical. Span ids ride
through existing message dataclasses as plain integers excluded from
``size_bytes()``, so remote work parents correctly without changing any
modeled wire cost.

Span ids start at 1; parent id 0 means "no parent" (a root or a global
span such as a detector sweep or an election).
"""

from __future__ import annotations

from typing import Any, Hashable, Optional


class Span:
    """One interval of simulated time, causally linked to a parent span."""

    __slots__ = ("sid", "parent", "name", "cat", "site", "start", "end", "labels")

    def __init__(
        self,
        sid: int,
        parent: int,
        name: str,
        cat: str,
        site: Hashable,
        start: float,
        end: Optional[float],
        labels: Optional[dict],
    ):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.site = site
        self.start = start
        self.end = end
        self.labels = labels

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def label(self, key: str) -> Any:
        return self.labels.get(key) if self.labels else None

    def to_dict(self) -> dict:
        return {
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "site": str(self.site),
            "start": self.start,
            "end": self.end,
            "labels": dict(self.labels) if self.labels else {},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            sid=d["sid"],
            parent=d.get("parent", 0),
            name=d.get("name", ""),
            cat=d.get("cat", ""),
            site=d.get("site"),
            start=d.get("start", 0.0),
            end=d.get("end"),
            labels=d.get("labels") or None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.sid}, parent={self.parent}, {self.cat}/{self.name}"
            f" @{self.site} [{self.start}, {self.end}])"
        )


class Tracer:
    """Append-only span recorder shared by every site of one cluster run.

    Span ids are list indices offset by one, so lookups are O(1) and the
    whole structure is two attributes. One tracer serves one run (like the
    message pool) — ids are meaningless across runs.
    """

    __slots__ = ("spans", "_flights")

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # Future-ended message-flight spans per transaction root: a flight
        # recorded at send time ends at arrival time, which can postdate
        # the commit when the round has already settled (bounded rounds,
        # quorum stragglers). Closing a tx root clips its registered
        # flights to the root end, keeping the committed-tree invariant —
        # a root outlives every descendant — true by construction.
        self._flights: dict[int, list[int]] = {}

    def begin(
        self,
        name: str,
        cat: str,
        site: Hashable,
        parent: int,
        t: float,
        labels: Optional[dict] = None,
    ) -> int:
        """Open a span at simulated time ``t``; returns its id."""
        sid = len(self.spans) + 1
        self.spans.append(Span(sid, parent, name, cat, site, t, None, labels))
        return sid

    def end(self, sid: int, t: float) -> None:
        """Close span ``sid`` at ``t``. Idempotent: the first close wins
        (a crash-unwound generator's ``finally`` may run late)."""
        if sid:
            span = self.spans[sid - 1]
            if span.end is None:
                span.end = t
                if span.parent == 0 and span.cat == "tx":
                    for fid in self._flights.pop(sid, ()):
                        flight = self.spans[fid - 1]
                        if flight.end is not None and flight.end > t:
                            flight.end = t

    def add(
        self,
        name: str,
        cat: str,
        site: Hashable,
        parent: int,
        start: float,
        end: float,
        labels: Optional[dict] = None,
    ) -> int:
        """Record an already-complete span (e.g. a message transfer whose
        delay the network model just returned)."""
        sid = len(self.spans) + 1
        self.spans.append(Span(sid, parent, name, cat, site, start, end, labels))
        return sid

    def add_flight(
        self,
        name: str,
        cat: str,
        site: Hashable,
        parent: int,
        start: float,
        end: float,
        labels: Optional[dict] = None,
    ) -> int:
        """Record a message flight ``[send, arrival]``.

        Like :meth:`add`, but the span's end lies in the simulated future
        — so it is registered against its transaction root and clipped if
        the root closes first (see ``_flights``)."""
        sid = self.add(name, cat, site, parent, start, end, labels)
        root = self._root_of(parent)
        if root:
            self._flights.setdefault(root, []).append(sid)
        return sid

    def live_parent(self, sid: int) -> int:
        """``sid`` if that span is still open, else 0.

        Post-hoc participant work — a stale attempt executing after its
        operation round settled, a quorum straggler applying a batch after
        the round closed — must become a global span rather than dangle
        off a tree whose root may already be closed."""
        if sid and self.spans[sid - 1].end is None:
            return sid
        return 0

    def _root_of(self, sid: int) -> int:
        """The tx-root sid above ``sid``, or 0 (global / broken chain)."""
        while sid:
            span = self.spans[sid - 1]
            if span.parent == 0:
                return sid if span.cat == "tx" else 0
            sid = span.parent
        return 0

    def set_label(self, sid: int, key: str, value: Any) -> None:
        if sid:
            span = self.spans[sid - 1]
            if span.labels is None:
                span.labels = {}
            span.labels[key] = value

    def get(self, sid: int) -> Span:
        return self.spans[sid - 1]

    def finish(self, t: float) -> None:
        """Clip every still-open span to ``t`` (end of run)."""
        for span in self.spans:
            if span.end is None:
                span.end = t


# ----------------------------------------------------------------------
# span-forest integrity checking
# ----------------------------------------------------------------------


def span_forest_errors(spans: list) -> list[str]:
    """Structural integrity errors of a recorded span forest.

    Checks, for every span: the parent reference resolves, no parent
    cycle exists, and ``end >= start``. For every *committed* transaction
    root (``cat == "tx"``, label ``status == "committed"``): the tree
    under it is singly rooted and acyclic by construction of the parent
    pointers, and the root (the commit-carrying span) ends at or after
    every descendant span — the paper-level causality statement that a
    commit is reported only once all its constituent work is done.

    Returns a list of human-readable error strings; empty means the
    forest is well-formed. Accepts :class:`Span` objects or the dicts
    produced by :meth:`Span.to_dict` (so exported files can be checked).
    """
    objs = [s if isinstance(s, Span) else Span.from_dict(s) for s in spans]
    by_id = {s.sid: s for s in objs}
    errors: list[str] = []

    roots: dict[int, Optional[int]] = {}  # sid -> root sid (None = broken)
    for s in objs:
        if s.sid in roots:
            continue
        chain = []
        cur: Optional[Span] = s
        while cur is not None:
            if cur.sid in chain:
                errors.append(f"span {s.sid}: parent cycle through {cur.sid}")
                for c in chain:
                    roots[c] = None
                break
            chain.append(cur.sid)
            if cur.parent == 0:
                for c in chain:
                    roots[c] = cur.sid
                break
            if cur.sid in roots:  # memoized suffix
                for c in chain:
                    roots[c] = roots[cur.sid]
                break
            nxt = by_id.get(cur.parent)
            if nxt is None:
                errors.append(f"span {cur.sid}: dangling parent {cur.parent}")
                for c in chain:
                    roots[c] = None
                nxt = None
            cur = nxt

    for s in objs:
        if s.end is not None and s.end < s.start:
            errors.append(f"span {s.sid}: ends ({s.end}) before it starts ({s.start})")

    # Committed transaction trees: the root must outlive every descendant.
    committed_roots = [
        s for s in objs
        if s.cat == "tx" and s.parent == 0 and s.label("status") == "committed"
    ]
    for root in committed_roots:
        if root.end is None:
            errors.append(f"tx root {root.sid}: committed but never ended")
            continue
        for s in objs:
            if s.sid != root.sid and roots.get(s.sid) == root.sid:
                if s.end is None:
                    errors.append(
                        f"tx root {root.sid}: descendant span {s.sid} never ended"
                    )
                elif s.end > root.end + 1e-9:
                    errors.append(
                        f"tx root {root.sid}: descendant span {s.sid} "
                        f"({s.cat}/{s.name}) ends at {s.end} after the "
                        f"commit-carrying root end {root.end}"
                    )
    return errors


def transaction_trees(spans: list) -> dict[int, list]:
    """Group spans into per-transaction trees: root sid -> member spans.

    Only trees rooted in a ``cat == "tx"`` span are returned (global
    spans — detector sweeps, elections, catch-up, lazy flushes — have no
    transaction root and are left out). The root span itself is included
    in its member list.
    """
    objs = [s if isinstance(s, Span) else Span.from_dict(s) for s in spans]
    by_id = {s.sid: s for s in objs}
    root_of: dict[int, int] = {}

    def find_root(s: Span) -> int:
        seen = []
        cur: Optional[Span] = s
        while cur is not None:
            if cur.sid in root_of:
                rid = root_of[cur.sid]
                break
            if cur.sid in seen:
                rid = 0
                break
            seen.append(cur.sid)
            if cur.parent == 0:
                rid = cur.sid if cur.cat == "tx" else 0
                break
            cur = by_id.get(cur.parent)
        else:
            rid = 0
        for sid in seen:
            root_of[sid] = rid
        return rid

    trees: dict[int, list] = {}
    for s in objs:
        rid = find_root(s)
        if rid:
            trees.setdefault(rid, []).append(s)
    return trees
