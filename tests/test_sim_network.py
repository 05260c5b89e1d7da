"""Unit tests for the network model and RNG substreams."""

import random

import pytest

from repro.config import NetworkConfig
from repro.errors import SimulationError
from repro.sim import Environment, Network, substream


def make_net(jitter=0.0, seed=1):
    env = Environment()
    cfg = NetworkConfig(latency_ms=0.25, per_kb_ms=0.08, jitter_ms=jitter, local_ms=0.01)
    return env, Network(env, cfg, seed=seed)


class TestDelays:
    def test_remote_delay_formula(self):
        _, net = make_net()
        net.register("s1")
        net.register("s2")
        d = net.delay_for("s1", "s2", size_bytes=2048)
        assert d == pytest.approx(0.25 + 2 * 0.08)

    def test_local_delivery_is_cheap(self):
        _, net = make_net()
        net.register("s1")
        assert net.delay_for("s1", "s1", 10_000_000) == pytest.approx(0.01)

    def test_jitter_bounded_and_seeded(self):
        _, net1 = make_net(jitter=0.5, seed=7)
        _, net2 = make_net(jitter=0.5, seed=7)
        for n in (net1, net2):
            n.register("a")
            n.register("b")
        d1 = [net1.delay_for("a", "b", 0) for _ in range(10)]
        d2 = [net2.delay_for("a", "b", 0) for _ in range(10)]
        assert d1 == d2  # same seed, same jitter draws
        base = 0.25
        assert all(base <= d <= base + 0.5 for d in d1)

    def test_bigger_messages_slower(self):
        _, net = make_net()
        net.register("a")
        net.register("b")
        assert net.delay_for("a", "b", 100_000) > net.delay_for("a", "b", 100)


class TestDelivery:
    def test_send_delivers_to_inbox(self):
        env, net = make_net()
        inbox = net.register("s2")
        net.register("s1")
        got = []
        inbox.serve(lambda msg: got.append((env.now, msg)))
        net.send("s1", "s2", {"op": "hello"}, size_bytes=1024)
        env.run()
        assert len(got) == 1
        when, msg = got[0]
        assert msg == {"op": "hello"}
        assert when == pytest.approx(0.25 + 0.08)

    def test_messages_to_unknown_site_rejected(self):
        _, net = make_net()
        with pytest.raises(SimulationError):
            net.send("a", "ghost", {})

    def test_double_register_rejected(self):
        _, net = make_net()
        net.register("s1")
        with pytest.raises(SimulationError):
            net.register("s1")

    def test_stats_accumulate(self):
        env, net = make_net()
        net.register("a")
        net.register("b")
        net.send("a", "b", "m", size_bytes=100)
        net.send("a", "a", "m", size_bytes=50)
        assert net.stats.messages == 2
        assert net.stats.bytes == 150
        assert net.stats.local_messages == 1
        assert net.stats.by_kind == {"str": 2}

    def test_payload_size_bytes_hook(self):
        env, net = make_net()
        net.register("a")
        net.register("b")

        class Msg:
            def size_bytes(self):
                return 4096

        net.send("a", "b", Msg())
        assert net.stats.bytes == 4096

    def test_ordered_delivery_same_pair(self):
        env, net = make_net()
        inbox = net.register("b")
        net.register("a")
        got = []
        inbox.serve(got.append)
        for i in range(3):
            net.send("a", "b", i, size_bytes=10)
        env.run()
        assert got == [0, 1, 2]


class TestSendArithmetic:
    """``send`` returns ``latency + size/1024 * per_kb + uniform(0, jitter)``
    exactly — compared with ``==``, against a twin of the network RNG — and
    draws jitter only for remote messages it actually sends."""

    CFG = NetworkConfig(latency_ms=0.25, per_kb_ms=0.08, jitter_ms=0.05, local_ms=0.01)

    def _check(self, net, twin, draws, dropped=(), lossy=None):
        sizes = random.Random(3)
        for i in range(draws):
            size = sizes.randrange(0, 200_000)
            if lossy is not None and i % 11 == 0:
                # b -> a loses half its messages, from the loss substream.
                delay = net.send("b", "a", "m", size_bytes=size)
                if lossy.random() < 0.5:
                    assert delay == 0.0
                    continue
                assert delay == (
                    self.CFG.latency_ms
                    + size / 1024 * self.CFG.per_kb_ms
                    + twin.uniform(0, self.CFG.jitter_ms)
                )
                continue
            if dropped and i % 5 == 0:
                src, dst = dropped[i % len(dropped)]
                assert net.send(src, dst, "m", size_bytes=size) == 0.0
                continue
            if i % 7 == 0:
                assert net.send("a", "a", "m", size_bytes=size) == self.CFG.local_ms
                continue
            expected = (
                self.CFG.latency_ms
                + size / 1024 * self.CFG.per_kb_ms
                + twin.uniform(0, self.CFG.jitter_ms)
            )
            assert net.send("a", "b", "m", size_bytes=size) == expected

    def _net(self, seed):
        env = Environment()
        net = Network(env, self.CFG, seed=seed)
        for site in "abcd":
            net.register(site)
        return net, substream(seed, "network")

    def test_send_delay_is_the_formula_exactly(self):
        net, twin = self._net(seed=11)
        self._check(net, twin, draws=2000)

    def test_down_site_partition_and_lossy_link_change_no_delay(self):
        net, twin = self._net(seed=12)
        net.set_down("d")
        net.partition(["a", "b"], ["c"])
        net.set_link_loss("a", "c", 1.0)
        net.set_link_loss("b", "a", 0.5, symmetric=False)
        dropped = [("a", "d"), ("d", "b"), ("a", "c"), ("c", "b")]
        lossy = substream(12, "network", "loss")
        self._check(net, twin, draws=2000, dropped=dropped, lossy=lossy)
        stats = net.stats
        assert stats.dropped and stats.partition_drops and stats.loss_drops


class TestSubstream:
    def test_deterministic(self):
        r1 = substream(42, "client", 1)
        r2 = substream(42, "client", 1)
        assert [r1.random() for _ in range(5)] == [r2.random() for _ in range(5)]

    def test_independent_streams(self):
        r1 = substream(42, "client", 1)
        r2 = substream(42, "client", 2)
        assert [r1.random() for _ in range(5)] != [r2.random() for _ in range(5)]

    def test_seed_changes_stream(self):
        assert substream(1, "x").random() != substream(2, "x").random()
