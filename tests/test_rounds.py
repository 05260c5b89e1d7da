"""The reply round (``repro.core.rounds.Round``) and "no round left behind".

Unit cases pin each settle rule, the reply filters (duplicate, never-asked
site, stale tag, dropped site) and ``drop``/``cancel``. The cluster cases
run one scenario per round kind, crash either the awaited peer or the
waiting site while that kind's first round is open, and check that once the
run has settled no round is registered anywhere and no process still waits
on a round's event.
"""

from __future__ import annotations

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.core.messages import ReplicaSyncBatchAck
from repro.core.rounds import NEVER, Round
from repro.sim.environment import Environment
from repro.sim.events import AllOf, FirstOf
from repro.update import ChangeOp, InsertOp

from .conftest import make_people_doc


def _ack(site, **results):
    return ReplicaSyncBatchAck(site=site, doc_name="d1", batch_id=1, results=results)


def _run_wait(env, rnd, timeout_ms=None):
    """Run ``rnd.wait`` as a process; returns (process, outcome holder)."""
    out = {}

    def waiter():
        out["value"] = yield from rnd.wait(timeout_ms)
        out["at"] = env.now

    return env.process(waiter()), out


class TestSettleRules:
    def test_all_settles_on_the_last_reply_with_a_snapshot(self):
        env = Environment()
        rnd = Round(env, "op", ["a", "b"])
        _, out = _run_wait(env, rnd)
        rnd.reply("a", "ra")
        env.run()
        assert "value" not in out
        rnd.reply("b", "rb")
        rnd.reply("late", "x")  # never asked: ignored
        env.run()
        assert out["value"] == {"a": "ra", "b": "rb"}
        assert rnd.replies == {"a": "ra", "b": "rb"}

    def test_at_least_n(self):
        env = Environment()
        rnd = Round(env, "probe", ["a", "b", "c"], need=2)
        rnd.reply("a", 1)
        assert not rnd.event.triggered
        rnd.reply("c", 3)
        assert rnd.event.triggered and rnd.event.value == {"a": 1, "c": 3}

    def test_at_least_n_with_fewer_asked_settles_when_all_answered(self):
        env = Environment()
        rnd = Round(env, "probe", ["a", "b"], need=3)
        rnd.reply("a", 1)
        assert not rnd.event.triggered
        rnd.reply("b", 2)
        assert rnd.event.triggered

    def test_per_transaction_ok_counts(self):
        env = Environment()
        rnd = Round(env, "sync", ["a", "b", "c"], need={"t1": 2, "t2": 1})
        rnd.reply("a", _ack("a", t1=(True, ""), t2=(False, "refused")))
        assert not rnd.event.triggered
        rnd.reply("b", _ack("b", t1=(False, "stale-epoch"), t2=(True, "")))
        assert not rnd.event.triggered  # t1 has one ok of two
        rnd.reply("c", _ack("c", t1=(True, "")))
        assert rnd.event.triggered

    def test_per_transaction_counts_settle_before_the_stragglers(self):
        env = Environment()
        rnd = Round(env, "sync", ["a", "b", "c"], need={"t1": 1})
        rnd.reply("b", _ack("b", t1=(True, "")))
        assert rnd.event.triggered and rnd.pending == {"a", "c"}

    def test_never_waits_out_the_window_as_a_plain_timer(self):
        env = Environment()
        rnd = Round(env, "election", ["a", "b"], need=NEVER)
        assert rnd.event is None
        _, out = _run_wait(env, rnd, 4.0)
        rnd.reply("a", 1)
        rnd.reply("b", 2)  # everyone answered: still not settled
        rnd.cancel()  # nothing to fire
        env.run()
        assert out == {"value": None, "at": 4.0}
        assert rnd.replies == {"a": 1, "b": 2}

    def test_timeout_first_returns_none(self):
        env = Environment()
        rnd = Round(env, "catchup", ["a"], need=1)
        _, out = _run_wait(env, rnd, 5.0)
        env.run()
        assert out == {"value": None, "at": 5.0}

    def test_settled_first_returns_the_snapshot(self):
        env = Environment()
        rnd = Round(env, "catchup", ["a"], need=1)
        _, out = _run_wait(env, rnd, 5.0)
        env.schedule_call(2.0, rnd.reply, "a", "resp")
        env.run()
        assert out["value"] == {"a": "resp"} and out["at"] == 2.0


class TestReplyFilters:
    def test_duplicate_reply_keeps_the_first(self):
        env = Environment()
        rnd = Round(env, "op", ["a", "b"])
        rnd.reply("a", "first")
        rnd.reply("a", "second")
        assert rnd.replies == {"a": "first"} and rnd.pending == {"b"}

    def test_unasked_site_is_ignored(self):
        env = Environment()
        rnd = Round(env, "op", ["a"])
        rnd.reply("z", "x")
        assert rnd.replies == {} and not rnd.event.triggered

    def test_stale_tag_is_fenced(self):
        env = Environment()
        rnd = Round(env, "op", ["a"], tag=3)
        rnd.reply("a", "old", 2)
        assert not rnd.replies and not rnd.event.triggered
        rnd.reply("a", "new", 3)
        assert rnd.event.triggered and rnd.replies == {"a": "new"}

    def test_phase_tag_fences_other_ack_rounds(self):
        env = Environment()
        rnd = Round(env, "commit", ["a"], tag="commit")
        rnd.reply("a", "undo-ack", "undo")
        assert not rnd.replies
        rnd.reply("a", "commit-ack", "commit")
        assert rnd.event.triggered

    def test_dropped_site_reply_is_recorded_but_not_awaited(self):
        env = Environment()
        rnd = Round(env, "op", ["a", "b", "c"])
        rnd.drop("a")
        assert rnd.dropped == {"a"} and rnd.pending == {"b", "c"}
        rnd.reply("a", "sent-before-the-crash")
        assert rnd.replies == {"a": "sent-before-the-crash"}
        assert not rnd.event.triggered
        rnd.reply("b", 1)
        rnd.reply("c", 2)
        assert rnd.event.triggered


class TestDropAndCancel:
    def test_drop_settles_with_what_arrived(self):
        env = Environment()
        rnd = Round(env, "op", ["a", "b"])
        _, out = _run_wait(env, rnd)
        rnd.reply("a", 1)
        rnd.drop("b")
        env.run()
        assert out["value"] == {"a": 1}

    def test_drop_of_an_answered_or_unasked_site_is_a_no_op(self):
        env = Environment()
        rnd = Round(env, "op", ["a", "b"])
        rnd.reply("a", 1)
        rnd.drop("a")
        rnd.drop("zz")
        assert rnd.dropped == set() and rnd.pending == {"b"}

    def test_drop_of_everyone_settles_empty(self):
        env = Environment()
        rnd = Round(env, "view_read", ["host"], need=1)
        rnd.drop("host")
        assert rnd.event.triggered and rnd.event.value == {}

    def test_cancel_settles_empty_once(self):
        env = Environment()
        rnd = Round(env, "sync", ["a"])
        _, out = _run_wait(env, rnd, 10.0)
        rnd.cancel()
        rnd.cancel()
        env.run()
        assert out == {"value": {}, "at": 0.0}

    def test_cancel_after_settle_keeps_the_settled_value(self):
        env = Environment()
        rnd = Round(env, "op", ["a"])
        rnd.reply("a", 1)
        rnd.cancel()
        assert rnd.event.value == {"a": 1}


# ---------------------------------------------------------------------------
# no round left behind: one scenario per kind, peer or waiter crashed mid-round
# ---------------------------------------------------------------------------

#: Sweeps only where a scenario wants them: a periodic WFG round would
#: otherwise be open whenever the run happens to stop.
QUIET = dict(client_think_ms=0.0, detector_initial_delay_ms=1e6)
PERFECT = SystemConfig().with_(
    **QUIET, replication_factor=3, replica_read_policy="nearest",
    replica_write_policy="primary",
)
LEASE = PERFECT.with_(
    failure_detector="lease", lease_timeout_ms=4.0, lock_wait_timeout_ms=100.0,
)
QUORUM = PERFECT.with_(replica_read_policy="quorum", replica_write_policy="quorum")
VIEWS = PERFECT.with_(
    replication_factor=2, replica_read_policy="primary", view_staleness_ms=50.0,
    view_refresh_ms=2.0,
)


def _cluster(config, sites, placement):
    cluster = DTXCluster(protocol="xdgl", config=config)
    for s in sites:
        cluster.add_site(s)
    cluster.replicate_document(make_people_doc(), placement)
    return cluster


def _insert(marker):
    return Transaction(
        [Operation.update("d1", InsertOp(f"<person><id>{marker}</id></person>", "/people"))]
    )


def _scenario_op():
    cluster = _cluster(PERFECT, ["s1", "s2"], ["s2"])
    cluster.add_client("c", "s1", [_insert(1)])
    return cluster


def _scenario_undo():
    # Write-all copies at s1, s2 and s3, and writers of the same leaf
    # coordinated at s1 and s2: each reaches its own copy first, so the
    # requests cross, each executes where the other blocks, and the
    # partial execution is backed out (Alg. 1 l. 16).
    cfg = PERFECT.with_(replica_write_policy="all", replica_read_policy="all",
                        lock_wait_timeout_ms=50.0, max_restarts=3)
    cluster = _cluster(cfg, ["s1", "s2", "s3"], ["s1", "s2", "s3"])
    change = "/people/person[id='1']/name"
    for client, site in (("a", "s1"), ("b", "s2")):
        cluster.add_client(client, site, [
            Transaction([Operation.update("d1", ChangeOp(change, f"{client}{i}"))])
            for i in range(6)
        ])
    return cluster


def _scenario_commit():
    cluster = _cluster(PERFECT, ["s1", "s2"], ["s2"])
    cluster.add_client("c", "s1", [_insert(1)])
    return cluster


def _scenario_abort():
    cluster = _scenario_commit()
    cluster.site("s2").refuse_commit.add("*")  # commit refused -> abort round
    return cluster


def _scenario_sync():
    cluster = _cluster(PERFECT, ["s1", "s2", "s3"], ["s1", "s2", "s3"])
    cluster.add_client("c", "s1", [_insert(1)])
    return cluster


def _scenario_probe():
    cluster = _cluster(QUORUM, ["s1", "s2", "s3", "s4"], ["s1", "s2", "s3"])
    cluster.add_client("c", "s4", [Transaction([Operation.query("d1", "/people/person")])])
    return cluster


def _scenario_election():
    # Five replicas: with the primary and one more site down, three of
    # five still elect, so every election ends.
    sites = ["s1", "s2", "s3", "s4", "s5"]
    cluster = _cluster(LEASE, sites, sites)
    cluster.schedule_crash("s1", at_ms=20.0)
    return cluster


def _scenario_catchup():
    cluster = _cluster(PERFECT, ["s1", "s2", "s3"], ["s1", "s2", "s3"])
    cluster.schedule_crash("s3", at_ms=5.0, recover_at_ms=30.0)
    return cluster


def _scenario_view_fetch():
    cluster = _cluster(VIEWS, ["s1", "s2", "s3"], ["s1", "s2"])
    cluster.register_view("v", "//person", ["d1"], host="s3")
    return cluster


def _scenario_view_read():
    cluster = _scenario_view_fetch()
    cluster.add_client("c", "s2", [Transaction([Operation.query("d1", "/people/person")])])
    return cluster


def _scenario_wfg():
    cfg = PERFECT.with_(detector_initial_delay_ms=10.0, detector_interval_ms=200.0)
    return _cluster(cfg, ["s1", "s2"], ["s1"])


SCENARIOS = {
    "op": _scenario_op,
    "undo": _scenario_undo,
    "commit": _scenario_commit,
    "abort": _scenario_abort,
    "sync": _scenario_sync,
    "probe": _scenario_probe,
    "election": _scenario_election,
    "catchup": _scenario_catchup,
    "view_fetch": _scenario_view_fetch,
    "view_read": _scenario_view_read,
    "wfg": _scenario_wfg,
}

#: Every scenario is over well before this (a hung round would not be:
#: the horizon turns a hang into a failure). It falls between two sweeps
#: of the WFG scenario.
HORIZON_MS = 500.0


def _owner(cluster, rnd):
    for site in cluster.sites.values():
        if rnd in site._rounds.values():
            return site.site_id
        if any(rec.round is rnd for rec in site.coordinators.values()):
            return site.site_id
    detector = cluster.detector
    if detector is not None and detector.round is rnd:
        return detector.site.site_id
    raise AssertionError(f"round {rnd.kind} is registered nowhere")


def _still_waited_on(rnd):
    """Whether some process still blocks on ``rnd``'s event (a fired
    condition's or ``first_of``'s leftover callback does not count)."""
    event = rnd.event
    if event is None or event.triggered:
        return False
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, (AllOf, FirstOf)) and owner.triggered:
            continue
        return True
    return False


@pytest.mark.parametrize("victim", ["peer", "waiter"])
@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_no_round_left_behind(kind, victim, monkeypatch):
    cluster = SCENARIOS[kind]()
    made: list = []
    struck: dict = {}
    round_init = Round.__init__

    def strike(rnd):
        owner = _owner(cluster, rnd)
        if victim == "waiter":
            target = owner
        else:
            peers = [s for s in rnd.sites if s != owner and cluster.site(s).alive]
            if not peers:  # e.g. an undo of the coordinator's own copy
                struck.clear()
                return
            target = peers[0]
        struck.update(round=rnd, owner=owner, target=target)
        cluster.crash_site(target)

    def recording_init(self, env, kind_, sites, need=None, tag=None):
        round_init(self, env, kind_, sites, need, tag)
        made.append(self)
        if kind_ == kind and not struck:
            struck["pending"] = True
            env.schedule_call(0.0, strike, self)

    monkeypatch.setattr(Round, "__init__", recording_init)
    cluster.run(until=HORIZON_MS)

    rnd = struck.get("round")
    assert rnd is not None, f"the scenario opened no {kind} round"
    if victim == "peer":
        assert struck["target"] not in rnd.replies
    for site in cluster.sites.values():
        assert not site._rounds, f"{site.site_id} keeps {list(site._rounds)}"
        assert all(rec.round is None for rec in site.coordinators.values())
    assert cluster.detector.round is None
    assert not [r.kind for r in made if _still_waited_on(r)]
    assert all(client.process.triggered for client in cluster.clients)
