"""FIFO message queues for the simulation substrate.

A :class:`Store` is the process-facing mailbox: a process ``get``\\ s from it
and anyone ``put``\\ s into it. Unbounded, FIFO, with FIFO-ordered waiters.
The participant loop of a DTX site drains one.

An :class:`Inbox` is the mailbox a site's network deliveries land in. It is
served by a plain function rather than a process: each item is handed to
the handler by a flat ``(fn, arg)`` kernel item, with no event, generator
resume or new ``get`` per message. Its queue positions are exactly those of
a :class:`Store` drained by one process looping
``handler((yield store.get()))``: a site served by an inbox dispatches what
it receives exactly when such a listener process would.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .environment import Environment
from .events import Event


class Store:
    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item (immediately if buffered)."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def clear(self) -> int:
        """Discard all buffered items (a crashed site loses its queues).

        Waiting getters are left registered: the owning process keeps
        blocking until the site receives traffic again. Returns the number
        of items dropped.
        """
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)


class Inbox:
    """A FIFO mailbox whose items are handed to one function, in order.

    The queue positions mirror a :class:`Store` with a single listener
    process looping ``handler((yield store.get()))``:

    * :meth:`serve` schedules a bootstrap item where that process's first
      tick would be; items put before it runs wait for it;
    * the first item put while the inbox is idle is scheduled at ``put``
      time, where the waiting getter's ``succeed`` was;
    * each buffered item is scheduled right after the handler returns,
      where the loop's next ``get()`` was.

    One item is *in flight* (scheduled, not yet handled) at a time;
    :meth:`clear` drops the buffered items but not that one. A handler
    that raises stops the inbox for good, as it would kill the process.
    """

    __slots__ = ("env", "_items", "_handler", "_idle")

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._handler: Optional[Callable[[Any], None]] = None
        # True exactly while a listener process would be blocked in get().
        self._idle = False

    def serve(self, handler: Callable[[Any], None]) -> None:
        """Hand every item, from now on, to ``handler`` (once per inbox)."""
        if self._handler is not None:
            raise SimulationError("inbox is already served")
        self._handler = handler
        self.env._schedule_flat(0.0, self._next, None)

    def put(self, item: Any) -> None:
        if self._idle:
            self._idle = False
            self.env._schedule_flat(0.0, self._serve, item)
        else:
            self._items.append(item)

    def _serve(self, item: Any) -> None:
        self._handler(item)
        self._next(None)

    def _next(self, _arg: None) -> None:
        items = self._items
        if items:
            self.env._schedule_flat(0.0, self._serve, items.popleft())
        else:
            self._idle = True

    def clear(self) -> int:
        """Discard all buffered items (a crashed site loses its queues);
        the item in flight, if any, is still handled. Returns the number
        of items dropped."""
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._items)
