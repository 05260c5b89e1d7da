"""DTX core: transactions, sites, coordinator/participant scheduling,
distributed commit/abort, deadlock detection, clients and cluster assembly."""

from .client import Client, ClientTxRecord
from .cluster import DTXCluster
from .detector import DeadlockDetector
from .faults import MembershipService
from .messages import TxOutcome
from .results import RunResult
from .site import DTXSite
from .transaction import Operation, OpKind, Transaction, TxId, TxState

__all__ = [
    "Client",
    "ClientTxRecord",
    "DTXCluster",
    "DTXSite",
    "DeadlockDetector",
    "MembershipService",
    "OpKind",
    "Operation",
    "RunResult",
    "Transaction",
    "TxId",
    "TxOutcome",
    "TxState",
]
