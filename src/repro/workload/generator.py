"""DTXTester: the client simulator driving the experiments (paper §3).

"Transaction concurrency is simulated when multiple clients are used. The
simulator generates the transactions according to certain parameters, sends
them to DTX and collects the results at the end of each execution."

A :class:`WorkloadSpec` captures the paper's experiment parameters: number of
clients, transactions per client (5), operations per transaction (5), the
percentage of update transactions and the percentage of update operations
within an update transaction (20 %). Generation is deterministic per seed and
client, so two protocol runs see the *same* transaction streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..core.transaction import Operation, Transaction
from ..errors import ConfigError
from ..sim.rng import substream
from ..xml.model import Document
from .queries import (
    QUERY_TEMPLATES, UPDATE_TEMPLATES, UPDATE_WEIGHTS, IdPools, TemplatePaths,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one experiment workload."""

    n_clients: int = 10
    tx_per_client: int = 5
    ops_per_tx: int = 5
    update_tx_ratio: float = 0.0  # fraction of transactions that update
    update_op_ratio: float = 0.2  # fraction of update ops inside those
    seed: int = 42

    def validate(self) -> None:
        if self.n_clients < 1 or self.tx_per_client < 1 or self.ops_per_tx < 1:
            raise ConfigError("workload counts must be >= 1")
        for ratio in (self.update_tx_ratio, self.update_op_ratio):
            if not 0.0 <= ratio <= 1.0:
                raise ConfigError("ratios must be within [0, 1]")


class DTXTester:
    """Generates per-client transaction streams over a set of documents.

    The documents' id pools are drawn once per document and tester
    (:class:`IdPools`): generate the streams before the documents change.
    The pools share one :class:`TemplatePaths`, so each template path is
    parsed once per tester and each distinct path built once.
    """

    def __init__(self, spec: WorkloadSpec, documents: Sequence[Document]):
        spec.validate()
        if not documents:
            raise ConfigError("DTXTester needs at least one document")
        self.spec = spec
        self.documents = {d.name: d for d in documents}
        self._doc_names = sorted(self.documents)
        paths = TemplatePaths()
        self._pools = {name: IdPools(d, paths) for name, d in self.documents.items()}

    def transactions_for_client(self, client_index: int) -> list[Transaction]:
        """The deterministic transaction stream of one client."""
        spec = self.spec
        rng = substream(spec.seed, "dtxtester", client_index)
        txs: list[Transaction] = []
        for t in range(spec.tx_per_client):
            is_update_tx = rng.random() < spec.update_tx_ratio
            ops: list[Operation] = []
            guard = 0
            while len(ops) < spec.ops_per_tx:
                guard += 1
                if guard > 200 * spec.ops_per_tx:  # pragma: no cover - safety
                    raise ConfigError("workload generation failed to produce operations")
                doc_name = rng.choice(self._doc_names)
                pools = self._pools[doc_name]
                make_update = is_update_tx and rng.random() < spec.update_op_ratio
                if make_update:
                    template = rng.choices(UPDATE_TEMPLATES, weights=UPDATE_WEIGHTS)[0]
                else:
                    template = rng.choice(QUERY_TEMPLATES)
                op = template(rng, doc_name, pools)
                if op is not None:
                    ops.append(op)
            # An "update transaction" must contain at least one update op
            # (the ratios are per-op probabilities, paper §3.2.2).
            if is_update_tx and not any(o.is_update for o in ops):
                doc_name = rng.choice(self._doc_names)
                pools = self._pools[doc_name]
                replacement = None
                guard = 0
                while replacement is None:
                    guard += 1
                    if guard > 500:  # pragma: no cover - safety
                        break
                    template = rng.choices(UPDATE_TEMPLATES, weights=UPDATE_WEIGHTS)[0]
                    replacement = template(rng, doc_name, pools)
                if replacement is not None:
                    ops[-1] = replacement
            tx = Transaction(ops, label=f"c{client_index}-t{t}")
            txs.append(tx)
        return txs

    def all_transactions(self) -> dict[int, list[Transaction]]:
        return {
            c: self.transactions_for_client(c) for c in range(self.spec.n_clients)
        }

    def assign_clients_to_sites(self, site_ids: Sequence[Hashable]) -> dict[int, Hashable]:
        """Round-robin client placement (clients connect to their local DTX)."""
        if not site_ids:
            raise ConfigError("no sites to place clients on")
        return {c: site_ids[c % len(site_ids)] for c in range(self.spec.n_clients)}
