"""One request/reply round: fan a request out, collect the replies.

The paper has one communication pattern and uses it everywhere: the
coordinator ships an operation and waits for every response (Alg. 1 l. 13),
commit and abort wait for every participant's ack (Algs. 5-6), and the
detector collects every site's wait-for graph (Alg. 4). Replication, quorum
reads, elections, catch-up and views each add one more fan-out-and-collect.
:class:`Round` is that pattern once: who was asked, what came back, when the
round counts as settled, and the one wait the asker makes.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Optional

#: Settle rule of a round that never settles on replies: it waits out a
#: fixed window and the asker reads whatever arrived (election log tips).
NEVER = "never"

_NOT_OK = (False, "")


class Round:
    """Replies to one fanned-out request, and the event that settles it.

    ``sites`` are the peers the request went to. A reply is recorded once
    per asked site (a duplicate or a reply from a site never asked is
    ignored) and only when it carries the round's ``tag`` — the attempt
    number of an operation round, the phase of an ack round — so a stale
    attempt's or phase's reply cannot settle the current one. A reply from
    a site already dropped as down is still recorded: it was sent before
    the crash and says what the site did.

    Settle rule, by ``need``:

    * ``None`` — every asked site answered or was dropped;
    * an ``int`` n — n replies arrived (or every site answered / dropped);
    * a ``dict`` tid -> n — every transaction has n ok results across the
      replies' ``results`` maps (quorum sync), or every site answered;
    * :data:`NEVER` — not on replies: :meth:`wait` is a fixed window.

    The settle event fires with a snapshot of the replies as of settling.
    :meth:`drop` stops waiting for a crashed site, :meth:`cancel` settles
    the round at once (the asker's site crashed). The owner unregisters the
    round when its waiter resumes; replies are recorded until then.

    Bounded waits — what ends each kind's wait if a reply never comes:

    ========== ================================ ===========================
    kind       timeout                          also settled by
    ========== ================================ ===========================
    op, undo,  the round bound in lease mode;   ``drop`` on the peer's
    commit,    none under the perfect detector  ``SiteDownNotice``,
    abort                                       ``cancel`` on a crash
    sync       the round bound in lease mode    ``drop``, ``cancel``
               and for quorum writes; none for
               eager writes, perfect detector
    probe      the round bound                  ``drop``, ``cancel``
    view_read  ``CATCHUP_TIMEOUT_MS``           ``drop`` of the host,
                                                ``cancel``
    view_fetch ``CATCHUP_TIMEOUT_MS``           ``cancel``
    catchup    ``CATCHUP_TIMEOUT_MS``           ``cancel``
    election   ``ELECTION_TIMEOUT_MS`` window   (never settles on replies)
    wfg        ``detector_interval_ms``         ``drop``
    ========== ================================ ===========================

    ``view_fetch`` (a view host's hydration) and ``catchup`` rounds both
    send a ``CatchUpRequest``, through the one ``DTXSite._pull``; they stay
    two kinds because a crash cancels them at different points of its
    fixed order, which is schedule.

    The round bound is ``DTXSite._round_timeout_ms`` (2 x lease timeout +
    election timeout); the two upper-case constants live in
    :mod:`repro.config`. The unbounded waits are the perfect detector's
    oracle contract: a peer that never answers has crashed, and the
    ``SiteDownNotice`` every live site receives drops it from the round.
    """

    __slots__ = ("env", "kind", "tag", "sites", "pending", "replies", "dropped",
                 "need", "event")

    def __init__(self, env, kind: str, sites: Iterable[Hashable], need=None,
                 tag: Any = None):
        self.env = env
        self.kind = kind
        self.tag = tag
        self.sites = sites
        self.pending: set = set(sites)
        self.replies: dict = {}
        self.dropped: set = set()
        self.need = need
        self.event = None if need is NEVER else env.event()

    def reply(self, site: Hashable, msg: Any, tag: Any = None) -> None:
        """Record ``site``'s answer; settle the round if that completes it."""
        if tag != self.tag or site in self.replies:
            return
        if site in self.pending:
            self.pending.discard(site)
        elif site not in self.dropped:
            return
        self.replies[site] = msg
        self._check()

    def drop(self, site: Hashable) -> None:
        """Stop waiting for ``site`` (announced down or suspected)."""
        if site in self.pending:
            self.pending.discard(site)
            self.dropped.add(site)
            self._check()

    def cancel(self) -> None:
        """Settle now with nothing: the asking site crashed."""
        event = self.event
        if event is not None and not event.triggered:
            event.succeed({})

    def _check(self) -> None:
        event = self.event
        if event is None or event.triggered:
            return
        need = self.need
        if self.pending:
            if need is None:
                return
            if need.__class__ is int:
                if len(self.replies) < need:
                    return
            elif not all(
                sum(1 for r in self.replies.values() if r.results.get(tid, _NOT_OK)[0])
                >= count
                for tid, count in need.items()
            ):
                return
        event.succeed(dict(self.replies))

    def wait(self, timeout_ms: Optional[float] = None):
        """Wait for the round; returns the settle snapshot, ``None`` on timeout.

        Called after the request's sends, so the timeout is created after
        them — its place in the event queue is part of the schedule. A
        :data:`NEVER` round waits out ``timeout_ms`` as a plain timer.
        """
        env = self.env
        if self.event is None:
            yield timeout_ms
            return None
        if timeout_ms is None:
            return (yield self.event)
        event = self.event
        won = yield env.first_of(event, env.timeout(timeout_ms))
        return won._value if won is event else None
