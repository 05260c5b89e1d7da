"""Unit tests for the wait-for graph and distributed union/victim rules."""

from repro.deadlock import WaitForGraph, newest_transaction


class TestEdges:
    def test_add_and_list(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert set(g.edges()) == {("a", "b"), ("a", "c")}
        assert g.edge_count == 2

    def test_self_edge_ignored(self):
        g = WaitForGraph()
        g.add_edge("a", "a")
        assert g.edge_count == 0

    def test_waits(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        assert g.waits("a")
        assert not g.waits("b")

    def test_clear_waits(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("c", "a")
        g.clear_waits("a")
        assert not g.waits("a")
        assert ("c", "a") in g.edges()  # incoming edges survive

    def test_remove_node_drops_both_directions(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.remove_node("b")
        assert g.edges() == []

    def test_successors(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        assert g.successors("a") == frozenset({"b"})
        assert g.successors("zzz") == frozenset()


class TestCycles:
    def test_no_cycle(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.find_any_cycle() is None
        assert g.find_cycle_from("a") is None

    def test_two_cycle(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        cycle = g.find_cycle_from("a")
        assert set(cycle) == {"a", "b"}
        assert set(g.find_any_cycle()) == {"a", "b"}

    def test_long_cycle(self):
        g = WaitForGraph()
        for a, b in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]:
            g.add_edge(a, b)
        assert set(g.find_any_cycle()) == {"a", "b", "c", "d"}

    def test_cycle_from_node_outside_cycle(self):
        g = WaitForGraph()
        g.add_edge("x", "a")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        assert g.find_cycle_from("x") is None  # x is not ON a cycle
        assert g.find_any_cycle() is not None

    def test_diamond_no_cycle(self):
        g = WaitForGraph()
        for a, b in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            g.add_edge(a, b)
        assert g.find_any_cycle() is None

    def test_cycle_detection_after_edge_removal(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        g.remove_node("b")
        assert g.find_any_cycle() is None

    def test_wait_chain_deeper_than_the_recursion_limit(self):
        # One waiter per client: a chain grows with the client count, and
        # the search runs under the kernel's own stack. A recursive DFS
        # raised RecursionError at about a thousand nodes.
        n = 5000
        g = WaitForGraph()
        for i in range(n - 1):
            g.add_edge(i, i + 1)
        assert g.find_cycle_from(0) is None
        assert g.find_any_cycle() is None
        g.add_edge(n - 1, 0)  # close the ring
        assert g.find_cycle_from(0) == list(range(n))
        assert g.find_cycle_from(n // 2) == [*range(n // 2, n), *range(n // 2)]
        assert len(g.find_any_cycle()) == n
        g.check_consistency()

    def test_a_node_is_present_exactly_while_it_has_an_edge(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("c", "b")
        g.clear_waits("a")
        assert g.nodes() == {"b", "c"}
        g.clear_waits("c")  # b lost its last waiter: gone at once
        assert g.nodes() == set() and g.edges() == []
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.remove_node("b")  # takes both neighbours' last edges with it
        assert g.nodes() == set()
        g.check_consistency()


class TestUnionAndVictim:
    def test_union_detects_distributed_cycle(self):
        # The §2.4 scenario: each site alone sees no cycle; the union does.
        site1 = WaitForGraph()
        site1.add_edge("t2", "t1")
        site2 = WaitForGraph()
        site2.add_edge("t1", "t2")
        assert site1.find_any_cycle() is None
        assert site2.find_any_cycle() is None
        merged = site1.union(site2)
        assert set(merged.find_any_cycle()) == {"t1", "t2"}

    def test_union_of_many(self):
        graphs = []
        chain = ["t1", "t2", "t3", "t4", "t1"]
        for a, b in zip(chain, chain[1:]):
            g = WaitForGraph()
            g.add_edge(a, b)
            graphs.append(g)
        merged = graphs[0].union(*graphs[1:])
        assert merged.find_any_cycle() is not None

    def test_union_does_not_mutate_inputs(self):
        g1 = WaitForGraph()
        g1.add_edge("a", "b")
        g2 = WaitForGraph()
        g2.add_edge("b", "a")
        g1.union(g2)
        assert g1.edge_count == 1

    def test_snapshot_roundtrip(self):
        g = WaitForGraph()
        g.add_edge("a", "b")
        g.add_edge("c", "d")
        restored = WaitForGraph.from_edges(g.snapshot())
        assert set(restored.edges()) == set(g.edges())

    def test_newest_transaction_victim(self):
        # Ids ordered by start timestamp: later tuple = more recent.
        t_old = (1.0, "s1", 1)
        t_mid = (2.0, "s2", 1)
        t_new = (3.0, "s1", 2)
        assert newest_transaction([t_mid, t_new, t_old]) == t_new
