"""Client sessions (the DTXTester role).

A client connects to the DTX instance at its site, submits its transactions
sequentially, records response times and — like client c2 in the paper's
§2.4 scenario — decides whether to resubmit or discard aborted transactions
(``config.max_restarts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..config import SystemConfig
from ..sim.rng import substream
from .messages import TxOutcome
from .site import DTXSite
from .transaction import Transaction


@dataclass
class ClientTxRecord:
    client_id: Hashable
    label: str
    status: str  # 'committed' | 'aborted' | 'failed'
    reason: str
    submitted_ts: float
    finished_ts: float
    restarts: int
    is_update: bool

    @property
    def response_ms(self) -> float:
        return self.finished_ts - self.submitted_ts


class Client:
    def __init__(
        self,
        client_id: Hashable,
        site: DTXSite,
        transactions: list[Transaction],
        config: SystemConfig,
    ):
        self.client_id = client_id
        self.site = site
        self.env = site.env
        self.config = config
        self.transactions = list(transactions)
        for tx in self.transactions:
            tx.client_id = client_id
        self.records: list[ClientTxRecord] = []
        self._rng = substream(config.seed, "client", str(client_id))
        self.process = self.env.process(self._run())

    @property
    def done(self):
        return self.process

    def _think(self):
        if self.config.client_think_ms > 0:
            delay = self._rng.expovariate(1.0 / self.config.client_think_ms)
            yield self.env.timeout(delay)
        else:
            yield self.env.timeout(0)

    def _run(self):
        for tx in self.transactions:
            attempt = tx
            first_submit = self.env.now
            while True:
                outcome_ev = self.env.event()
                self.site.submit(attempt, deliver=lambda o, ev=outcome_ev: ev.succeed(o))
                outcome: TxOutcome = yield outcome_ev
                # Only *aborted* transactions are resubmitted: an abort is
                # a clean undo, so the retry cannot double-apply anything.
                # A *failed* transaction is final — failure means the
                # effects may have been kept (and replicated) at some
                # sites, per the paper's fail semantics ("the application
                # is alerted"); blindly resubmitting it would commit the
                # same logical write twice. The reconciliation is the
                # application's, not the driver's.
                if outcome.status != "aborted" or (
                    attempt.stats.restarts >= self.config.max_restarts
                ):
                    self.records.append(
                        ClientTxRecord(
                            client_id=self.client_id,
                            label=attempt.label,
                            status=outcome.status,
                            reason=outcome.reason,
                            submitted_ts=first_submit,
                            finished_ts=self.env.now,
                            restarts=attempt.stats.restarts,
                            is_update=attempt.is_update_transaction,
                        )
                    )
                    break
                yield from self._think()
                attempt = attempt.reset_for_restart()
            yield from self._think()
        return self.records
