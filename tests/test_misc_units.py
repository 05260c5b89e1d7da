"""Unit tests for configuration, results aggregation, messages, client
behaviour, detector wiring and the CLI."""

import io
import json
from dataclasses import replace
from itertools import product

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.cli import main as cli_main
from repro.config import CostConfig, NetworkConfig
from repro.core.client import ClientTxRecord
from repro.core.messages import (
    ClientRequest,
    CommitRequest,
    RemoteOpRequest,
    TxOutcome,
    WfgResponse,
)
from repro.core.results import RunResult
from repro.core.transaction import Operation as Op
from repro.core.transaction import Transaction as Tx
from repro.core.transaction import TxId
from repro.errors import ConfigError
from repro.experiments import SWEEPS, FigureParams
from repro.update import ChangeOp

from .conftest import make_people_doc


class TestConfig:
    def test_defaults_validate(self):
        SystemConfig().validate()

    def test_with_replaces_and_validates(self):
        cfg = SystemConfig().with_(client_think_ms=5.0)
        assert cfg.client_think_ms == 5.0
        assert SystemConfig().client_think_ms != 5.0 or True  # original untouched

    @pytest.mark.parametrize(
        "kw",
        [
            {"detector_interval_ms": 0.0},
            {"detector_interval_ms": -1.0},
            {"detector_initial_delay_ms": -1.0},
            {"client_think_ms": -0.1},
            {"lock_wait_timeout_ms": -5.0},
            {"max_restarts": -1},
        ],
    )
    def test_invalid_top_level(self, kw):
        with pytest.raises(ConfigError):
            SystemConfig().with_(**kw)

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: SystemConfig().with_(**kw),
            lambda **kw: SystemConfig.preset("eager", **kw),
        ],
        ids=["with_", "preset"],
    )
    def test_unknown_field_named_at_the_boundary(self, build):
        with pytest.raises(ConfigError) as err:
            build(seed=7, no_such_knob=1)
        message = str(err.value)
        assert "no_such_knob" in message  # names the offender...
        assert "seed" in message and "tracing" in message  # ...lists the valid fields
        assert build(seed=7).seed == 7

    def test_invalid_network(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_(network=NetworkConfig(latency_ms=-1))

    def test_invalid_costs(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_(costs=CostConfig(lock_op_ms=-0.1))


class TestTxId:
    def test_ordering_by_start_time(self):
        a = TxId("s1", 1, 10.0)
        b = TxId("s2", 1, 20.0)
        assert a < b
        assert max([a, b]) is b

    def test_tie_break_deterministic(self):
        a = TxId("s1", 1, 10.0)
        b = TxId("s2", 1, 10.0)
        assert (a < b) != (b < a)

    def test_str(self):
        assert str(TxId("s1", 3, 1.0)) == "t3@s1"

    def test_equal_fields_are_one_key(self):
        a = TxId("s1", 3, 1.5)
        b = TxId(site="s1", seq=3, start_ts=1.5)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: "x"}[b] == "x"
        # The value the frozen dataclass hashed to: sets of ids keep their
        # iteration order across the change of representation.
        assert hash(a) == hash(("s1", 3, 1.5))
        assert a != TxId("s1", 3, 2.5) and a != TxId("s2", 3, 1.5) and a != TxId("s1", 4, 1.5)
        assert (a.site, a.seq, a.start_ts) == ("s1", 3, 1.5)

    def test_is_a_plain_tuple_to_everything_else(self):
        # Deliberate consequences of the tuple representation: an id equals
        # (and is the same dict key as) the bare field tuple, unpacks, and
        # JSON writes it as a list without consulting ``default=``.
        import json

        tid = TxId("s1", 1, 0.0)
        assert tid == ("s1", 1, 0.0) and {tid: "x"}[("s1", 1, 0.0)] == "x"
        site, seq, start_ts = tid
        assert (site, seq, start_ts) == ("s1", 1, 0.0)
        assert json.dumps({"tid": tid}, default=str) == '{"tid": ["s1", 1, 0.0]}'

    def test_all_four_comparisons_follow_start_time(self):
        # Field order would put "s1" < "s2" first; start time must win.
        older, newer = TxId("s2", 1, 10.0), TxId("s1", 1, 20.0)
        assert older < newer and older <= newer
        assert newer > older and newer >= older
        assert not (newer < older or newer <= older or older > newer or older >= newer)
        same = TxId("s2", 1, 10.0)
        assert older <= same and older >= same and not (older < same or older > same)
        # Ties on start time: str(site), then seq.
        assert TxId("s1", 9, 5.0) < TxId("s2", 1, 5.0)
        assert TxId("s1", 1, 5.0) < TxId("s1", 2, 5.0)
        assert TxId(2, 1, 5.0) > TxId(10, 1, 5.0)  # "2" > "10": sites compare as text
        ids = [TxId("s1", 1, 20.0), TxId("s2", 1, 10.0), TxId("s3", 2, 10.0), TxId("s1", 7, 15.0)]
        assert sorted(ids) == sorted(ids, key=lambda t: (t.start_ts, str(t.site), t.seq))

    def test_newest_transaction_picks_latest_start(self):
        from repro.deadlock import newest_transaction

        cycle = [TxId("s9", 9, 1.0), TxId("s1", 1, 7.0), TxId("s5", 5, 3.0)]
        assert newest_transaction(cycle) == TxId("s1", 1, 7.0)

    def test_repr_is_pinned(self):
        # find_any_cycle orders its search by repr, and the victim comes
        # out of the cycle it finds: this string is part of the schedule.
        assert repr(TxId("s3", 5, 1.5)) == "TxId(site='s3', seq=5, start_ts=1.5)"
        assert repr(TxId(site=2, seq=10, start_ts=0.0)) == "TxId(site=2, seq=10, start_ts=0.0)"

    def test_immutable(self):
        tid = TxId("s1", 1, 0.0)
        for name in ("site", "seq", "start_ts", "other"):
            with pytest.raises(AttributeError):
                setattr(tid, name, 1)


class TestTransactionModel:
    def test_empty_transaction_rejected(self):
        with pytest.raises(ValueError):
            Tx([])

    def test_indices_assigned(self):
        tx = Tx([Op.query("d", "/a"), Op.query("d", "/b")])
        assert [o.index for o in tx.operations] == [0, 1]

    def test_is_update_transaction(self):
        assert not Tx([Op.query("d", "/a")]).is_update_transaction
        assert Tx([Op.update("d", ChangeOp("/a", "x"))]).is_update_transaction

    def test_update_factory_rejects_non_update(self):
        with pytest.raises(TypeError):
            Op.update("d", "/a/b")

    def test_reset_for_restart_counts(self):
        tx = Tx([Op.query("d", "/a")], label="L")
        fresh = tx.reset_for_restart()
        assert fresh.stats.restarts == 1
        assert fresh.label == "L"
        assert fresh.operations[0].payload is tx.operations[0].payload
        assert not fresh.operations[0].executed

    def test_next_unexecuted(self):
        tx = Tx([Op.query("d", "/a"), Op.query("d", "/b")])
        assert tx.next_unexecuted().index == 0
        tx.operations[0].executed = True
        assert tx.next_unexecuted().index == 1


class TestMessageSizes:
    def test_remote_op_request_size_scales_with_payload(self):
        tid = TxId("s1", 1, 0.0)
        small = RemoteOpRequest(tid, "s1", Op.query("d", "/a"), 1)
        big = RemoteOpRequest(tid, "s1", Op.query("d", "/a/b/c[price>=100]/name"), 1)
        assert big.size_bytes() > small.size_bytes() > 0

    def test_wfg_response_size_scales_with_edges(self):
        empty = WfgResponse("s1", [])
        full = WfgResponse("s1", [("a", "b")] * 10)
        assert full.size_bytes() > empty.size_bytes()

    def test_client_request_size_scales_with_ops(self):
        one = ClientRequest(Tx([Op.query("d", "/a")]))
        three = ClientRequest(Tx([Op.query("d", "/a")] * 3))
        assert three.size_bytes() > one.size_bytes()

    def test_outcome_committed_flag(self):
        tid = TxId("s1", 1, 0.0)
        assert TxOutcome(tid, "committed").committed
        assert not TxOutcome(tid, "aborted").committed

    def test_commit_request_constant_size(self):
        tid = TxId("s1", 1, 0.0)
        assert CommitRequest(tid, "s1").size_bytes() > 0


def _record(status="committed", submitted=0.0, finished=10.0, restarts=0):
    return ClientTxRecord(
        client_id="c",
        label="t",
        status=status,
        reason="",
        submitted_ts=submitted,
        finished_ts=finished,
        restarts=restarts,
        is_update=False,
    )


class TestRunResult:
    def test_partitions(self):
        r = RunResult(records=[_record(), _record("aborted"), _record("failed")])
        assert len(r.committed) == 1
        assert len(r.aborted) == 1
        assert len(r.failed) == 1

    def test_mean_response(self):
        r = RunResult(records=[_record(finished=10), _record(finished=30)])
        assert r.mean_response_ms() == 20.0
        assert RunResult().mean_response_ms() == 0.0

    def test_max_response(self):
        r = RunResult(records=[_record(finished=10), _record(finished=30)])
        assert r.max_response_ms() == 30.0

    def test_throughput_series_buckets(self):
        r = RunResult(records=[_record(finished=5), _record(finished=15), _record(finished=16)])
        series = r.throughput_series(10.0)
        assert series == [(10.0, 1), (20.0, 2)]

    def test_throughput_series_empty(self):
        assert RunResult().throughput_series(10.0) == []

    def test_throughput_series_invalid_bucket(self):
        with pytest.raises(ValueError):
            RunResult().throughput_series(0)

    def test_concurrency_series_counts_inflight(self):
        r = RunResult(
            records=[
                _record(submitted=0, finished=25),
                _record(submitted=5, finished=9),
            ]
        )
        series = r.concurrency_series(10.0)
        assert series[0] == (10.0, 2)  # both active in [0,10)
        assert series[1] == (20.0, 1)
        assert series[2] == (30.0, 1)

    def test_completion_time(self):
        r = RunResult(records=[_record(finished=7), _record("aborted", finished=99)])
        assert r.completion_time_ms() == 7.0

    def test_restarts_total(self):
        r = RunResult(records=[_record(restarts=2), _record(restarts=1)])
        assert r.total_restarts == 3

    def test_summary_mentions_counts(self):
        r = RunResult(records=[_record()], label="demo")
        out = r.summary()
        assert "1 committed" in out and "demo" in out


def _one_client(think_ms: float, n_tx: int):
    """One client of ``n_tx`` queries (labels t0, t1, ...) on a one-site
    cluster; returns the run's result and the client."""
    cluster = DTXCluster(protocol="xdgl", config=SystemConfig().with_(client_think_ms=think_ms))
    cluster.add_site("s1", [make_people_doc()])
    txs = [Transaction([Operation.query("d1", "/people")], label=f"t{i}") for i in range(n_tx)]
    client = cluster.add_client("c1", "s1", txs)
    return cluster.run(), client


class TestClientBehaviour:
    def test_think_time_spaces_transactions(self):
        res, _ = _one_client(50.0, 3)
        assert len(res.committed) == 3
        # With mean think 50 ms between 3 txs, the run cannot be instantaneous.
        assert res.duration_ms > 20.0

    def test_zero_think_time_runs_back_to_back(self):
        res, _ = _one_client(0.0, 3)
        assert len(res.committed) == 3
        assert res.duration_ms < 20.0

    def test_client_records_order_matches_submission(self):
        _, client = _one_client(0.0, 4)
        assert [r.label for r in client.records] == ["t0", "t1", "t2", "t3"]


class TestClusterGuards:
    def test_duplicate_site_rejected(self):
        cluster = DTXCluster()
        cluster.add_site("s1")
        with pytest.raises(ConfigError):
            cluster.add_site("s1")

    def test_add_site_after_start_rejected(self):
        cluster = DTXCluster()
        cluster.add_site("s1", [make_people_doc()])
        cluster.start()
        with pytest.raises(ConfigError):
            cluster.add_site("s2")

    def test_run_without_clients_until_horizon(self):
        cluster = DTXCluster()
        cluster.add_site("s1", [make_people_doc()])
        res = cluster.run(until=100.0)
        assert res.duration_ms == 100.0
        assert res.detector_sweeps >= 1

    def test_host_document_extends_placement(self):
        cluster = DTXCluster()
        cluster.add_site("s1")
        cluster.add_site("s2")
        d = make_people_doc()
        cluster.host_document("s1", d)
        cluster.host_document("s2", d)
        assert cluster.catalog.sites_for("d1") == ("s1", "s2")


class TestCLI:
    def test_protocols_listing(self):
        buf = io.StringIO()
        assert cli_main(["protocols"], out=buf) == 0
        assert "xdgl" in buf.getvalue()

    def test_scenario_runs(self):
        buf = io.StringIO()
        assert cli_main(["scenario"], out=buf) == 0
        out = buf.getvalue()
        # The paper's outcome: t2 is the deadlock victim, t1 and t3 commit.
        assert "t2: aborted (distributed-deadlock)" in out
        assert "t1: committed" in out and "t3: committed" in out
        assert "distributed deadlocks detected: 1" in out

    def test_fig8_via_cli(self):
        buf = io.StringIO()
        assert cli_main(["figures", "--only", "fig8"], out=buf) == 0
        assert "Fig. 8" in buf.getvalue()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["figures", "--only", "fig99"], out=io.StringIO())

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_every_sweep_runs_a_one_cell_grid_as_json(self, name, monkeypatch):
        sweep = SWEEPS[name]
        one = replace(sweep, params={
            n: replace(p, quick=p.quick[:1]) if n in sweep.axes else p
            for n, p in sweep.params.items()
        })
        monkeypatch.setitem(SWEEPS, name, one)
        buf = io.StringIO()
        assert cli_main([name, "--json"], out=buf) == 0
        payload = json.loads(buf.getvalue())
        assert payload["sweep"] == name and payload["ok"] is True
        assert payload["check_notes"]
        axes = [payload["params"][a] for a in sweep.axes]
        if sweep.phases:
            axes.append(list(sweep.phases))
        assert [tuple(c["cell"]) for c in payload["cells"]] == list(product(*axes))

    @pytest.mark.parametrize(
        "argv",
        [
            ["quorum", "--rw", "2x2"],
            ["availability", "--sites", "3", "4"],
            ["availability", "--crashes", "-1"],
            ["views", "--clients", "0"],
            ["scale", "--sites", "1"],
        ],
        ids=" ".join,
    )
    def test_bad_sweep_input_exits_2_before_any_cell_runs(self, argv, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        for name, sweep in SWEEPS.items():
            monkeypatch.setitem(SWEEPS, name, replace(sweep, run_cell=no_cell))
        buf = io.StringIO()
        assert cli_main(argv, out=buf) == 2
        assert buf.getvalue().startswith("error: ")

    def test_full_selects_the_dense_grid(self, monkeypatch):
        from repro import cli

        class Ran(Exception):
            pass

        def first_cell(params, *key):
            raise Ran(params)

        for name, sweep in SWEEPS.items():
            monkeypatch.setitem(SWEEPS, name, replace(sweep, run_cell=first_cell))
            for argv, dense in (([name], False), ([name, "--full"], True)):
                with pytest.raises(Ran) as ran:
                    cli_main(argv, out=io.StringIO())
                for n, p in sweep.params.items():
                    want = p.dense if dense and p.dense is not None else p.quick
                    assert getattr(ran.value.args[0], n) == want, (name, n, dense)
        seen = []
        monkeypatch.setitem(cli._FIGURES, "fig9", (seen.append, None, None))
        cli._run_figures(["fig9"], full=False, out=io.StringIO())
        cli._run_figures(["fig9"], full=True, out=io.StringIO())
        assert seen == [FigureParams.quick(), FigureParams.paper()]
