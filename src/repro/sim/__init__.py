"""Discrete-event simulation substrate (the paper's cluster, in software)."""

from .environment import Environment
from .events import AllOf, Event, FirstOf, Process, Timeout
from .network import Network, NetworkStats
from .queues import Inbox, Store
from .rng import substream

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "FirstOf",
    "Inbox",
    "Network",
    "NetworkStats",
    "Process",
    "Store",
    "Timeout",
    "substream",
]
