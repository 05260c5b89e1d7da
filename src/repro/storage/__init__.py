"""The document store and the per-site DataManager."""

from .datamanager import DataManager
from .memory import InMemoryStore

__all__ = ["DataManager", "InMemoryStore"]
