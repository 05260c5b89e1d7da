"""Schedule determinism: hash-seed independence and pinned deliveries.

Python randomises ``str``/``bytes`` hashes per interpreter process, so any
accidental iteration over an unordered ``set``/``dict``-keyed-by-hash on the
hot path shows up as run-to-run schedule drift between interpreters even
with a fixed simulation seed. In-process tests cannot catch this (the hash
seed is fixed at startup), so one test runs the same contended scenario in
subprocesses under three different ``PYTHONHASHSEED`` values and asserts the
final state digest *and* the simulated duration are identical.

The other pins the message schedule of five small sweeps: per cluster, the
number and SHA-256 of the ``Network._deliver`` items of its dispatch trace
(time, source, destination, message class). Unlike a full trace these
name no process, so renaming or merging generators leaves them alone while
any moved, added or dropped message changes them — the check for a
refactor that must keep every schedule.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import run_sweep
from repro.sim.environment import Environment
from repro.verify import TraceRecorder, trace_digest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

# Small contended scenario: remote coordinator, conflicting writer groups,
# replicated hot document — exercises locking, wake-ups, 2PC and sync paths.
_SCENARIO = """
import hashlib
from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.update import ChangeOp
from repro.xml import E, doc, serialize_document

cfg = SystemConfig().with_(client_think_ms=0.0)
cluster = DTXCluster(protocol="xdgl", config=cfg)
hot = doc("hot", E("hot", *[E(f"v{i}", text="0") for i in range(3)]))
cluster.add_site("s1", [hot])
cluster.add_site("s2", [hot])
cluster.add_site("s3", [])
n = 0
for g in range(3):
    for c in range(2):
        txs = [
            Transaction(
                [Operation.update("hot", ChangeOp(f"/hot/v{g}", "x")) for _ in range(2)],
                label=f"g{g}c{c}t{t}",
            )
            for t in range(2)
        ]
        cluster.add_client(f"c{n}", "s3", txs)
        n += 1
result = cluster.run()
digest = hashlib.sha256()
for sid in ("s1", "s2"):
    digest.update(serialize_document(cluster.document_at(sid, "hot")).encode())
print(f"{digest.hexdigest()} {result.duration_ms!r} {len(result.committed)}")
"""


def _run_under_hash_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, f"scenario failed under PYTHONHASHSEED={seed}:\n{proc.stderr}"
    return proc.stdout.strip()


def test_schedule_is_hash_seed_independent():
    outcomes = {seed: _run_under_hash_seed(seed) for seed in ("0", "1", "42")}
    digests = set(outcomes.values())
    assert len(digests) == 1, (
        "state digest / schedule drifts with the interpreter hash seed:\n"
        + "\n".join(f"  PYTHONHASHSEED={s}: {o}" for s, o in outcomes.items())
    )
    # Sanity: the scenario actually committed work.
    committed = next(iter(digests)).rsplit(" ", 1)[1]
    assert int(committed) == 12


#: sweep, overrides -> one (deliveries, digest) per cluster the sweep built.
_PINNED_DELIVERIES = [
    ("availability", dict(mode=("lazy",), crashes=(1,)), [
        (327, "c814ad2450e9d97b490827eea5d378af6cdd19373d2fd0f82b1047d2c392326c"),
    ]),
    ("quorum", dict(regime=("quorum-r2w2",), fault=("crash",)), [
        (3709, "8638dd861b495a162865832799a8915033009e5f55a4fc93fdff5e6897731f55"),
    ]),
    ("views", {}, [
        (440, "349a63863f597a47e3c018b92eb2378050a5445abc9a21c14d9a7cbdf3959100"),
        (604, "dc07a0e6b7d0ebe2fd94d9175066d04f92407afbe233a16f8121c10deac7485d"),
        (600, "7f3196c6acd1b11cc005ae8a5afff6c9f2cbd964e214cd7babc6cb5664eb67c3"),
    ]),
    ("replication", dict(factor=(2,), update_ratio=(0.5,)), [
        (797, "803326570034737df855b8a58d4b086a6e4505b6dda2207b6d97909becf7967e"),
    ]),
    # Hash-ring placement plus its join and leave rebalances: 3 migrations,
    # 2 cutovers.
    ("scale", dict(sites=(3,), clients=(6,)), [
        (250, "a3ced450654067e57eac7048b706ca4af0c1a4a32e5235cb803a43e3009cba53"),
    ]),
]


@pytest.mark.parametrize(
    "sweep, overrides, pinned", _PINNED_DELIVERIES, ids=[p[0] for p in _PINNED_DELIVERIES]
)
def test_delivery_fingerprints_are_pinned(monkeypatch, sweep, overrides, pinned):
    recorders = []
    init = Environment.__init__

    def recording_init(env, *args, **kwargs):
        init(env, *args, **kwargs)
        recorders.append(TraceRecorder().attach(env))

    monkeypatch.setattr(Environment, "__init__", recording_init)
    run_sweep(sweep, **overrides)
    fingerprints = []
    for recorder in recorders:
        deliveries = [
            item for item in recorder.entries if item[1].startswith("call:Network._deliver:")
        ]
        fingerprints.append((len(deliveries), trace_digest(deliveries)))
    assert fingerprints == pinned
