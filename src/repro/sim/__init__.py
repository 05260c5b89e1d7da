"""Discrete-event simulation substrate (the paper's cluster, in software)."""

from .environment import Environment
from .events import AllOf, AnyOf, Event, Process, Timeout
from .network import Network, NetworkStats
from .queues import Inbox, Store
from .rng import substream

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Inbox",
    "Network",
    "NetworkStats",
    "Process",
    "Store",
    "Timeout",
    "substream",
]
