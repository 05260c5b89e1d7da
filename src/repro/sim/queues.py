"""FIFO message stores for the simulation substrate.

A :class:`Store` is the mailbox abstraction DTX sites use: the Listener
process ``get``\\ s from its inbox; the network ``put``\\ s delivered messages
into it. Unbounded, FIFO, with FIFO-ordered waiters.
"""

from __future__ import annotations

from collections import deque
from typing import Any

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
