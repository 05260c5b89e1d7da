"""Property-based tests (hypothesis) on the core invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import DTXCluster, SystemConfig, TxState, available_protocols
from repro.dataguide import DataGuide
from repro.deadlock import WaitForGraph
from repro.locking import XDGL_MATRIX, LockMode
from repro.errors import UpdateError
from repro.update import (
    ChangeOp,
    InsertOp,
    InsertPosition,
    RemoveOp,
    RenameOp,
    TransposeOp,
    apply_update,
    revert,
)
from repro.verify import final_state_serializable, quiescent
from repro.workload import DTXTester, WorkloadSpec, xmark_fragments
from repro.xml import (
    Document,
    E,
    Element,
    doc,
    parse_document,
    serialize_document,
    serialized_size,
)

from .conftest import (
    doc_at, example_budget, make_people_doc, make_products_doc, replicated_cluster,
    run_to_horizon,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

TAGS = st.sampled_from(["a", "b", "c", "item", "name", "price", "n1", "x-y", "_u"])
ATTR_KEYS = st.sampled_from(["id", "k", "ref", "lang"])
TEXTS = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Zs"),
        whitelist_characters="&<>\"'-.,!?",
    ),
    max_size=24,
).map(lambda s: s.strip() or None)


@st.composite
def elements(draw, max_depth=3, max_children=4):
    tag = draw(TAGS)
    attrib = draw(
        st.dictionaries(ATTR_KEYS, st.text(max_size=10).map(lambda s: s.replace("\x00", "")), max_size=2)
    )
    text = draw(TEXTS) if draw(st.booleans()) else None
    elem = Element(tag, attrib, text)
    if max_depth > 0:
        for child in draw(st.lists(elements(max_depth - 1, max_children), max_size=max_children)):
            elem.append(child)
    return elem


@st.composite
def documents(draw):
    return Document("prop", draw(elements()))


# ---------------------------------------------------------------------------
# XML round-trip
# ---------------------------------------------------------------------------


class TestXMLRoundTrip:
    @given(documents())
    @settings(max_examples=example_budget(80))
    def test_serialize_parse_roundtrip(self, document):
        text = serialize_document(document)
        reparsed = parse_document(text)
        assert serialize_document(reparsed) == text

    @given(documents())
    @settings(max_examples=example_budget(40))
    def test_pretty_and_compact_forms_agree(self, document):
        pretty = serialize_document(document, indent=2)
        compact = serialize_document(document)
        assert serialize_document(parse_document(pretty)) == compact

    @given(documents())
    @settings(max_examples=example_budget(40))
    def test_clone_preserves_serialization(self, document):
        assert serialize_document(document.clone()) == serialize_document(document)

    @given(documents())
    @settings(max_examples=example_budget(40))
    def test_size_bytes_tracks_serialized_size(self, document):
        approx = document.size_bytes()
        actual = len(serialize_document(document))
        assert approx >= actual / 4  # rough but monotone estimate


# ---------------------------------------------------------------------------
# DataGuide invariants under random update sequences
# ---------------------------------------------------------------------------


def _base_doc():
    return doc(
        "g",
        E(
            "lib",
            E("shelf", E("book", E("title", text="t1"), E("price", text="5"))),
            E("shelf", E("book", E("title", text="t2"))),
            E("bin"),
        ),
    )


@st.composite
def update_ops(draw):
    kind = draw(st.sampled_from(["insert", "remove", "rename", "change"]))
    if kind == "insert":
        frag = draw(st.sampled_from(
            ["<book><title>new</title></book>", "<tag/>", "<note><x/></note>"]
        ))
        target = draw(st.sampled_from(["/lib", "/lib/shelf", "//book", "/lib/bin"]))
        return InsertOp(frag, target)
    if kind == "remove":
        target = draw(st.sampled_from(
            ["/lib/shelf/book[1]", "//note", "//tag", "/lib/shelf/book/price"]
        ))
        return RemoveOp(target)
    if kind == "rename":
        target = draw(st.sampled_from(["/lib/shelf", "//book/title", "/lib/bin"]))
        return RenameOp(target, draw(st.sampled_from(["row", "header", "zone"])))
    target = draw(st.sampled_from(["//title", "//price"]))
    return ChangeOp(target, draw(st.text(max_size=8).map(lambda s: s.replace("\x00", "x"))))


def revertible_ops():
    """``update_ops`` plus the sibling inserts and transposes it leaves
    out; some of these are refused part-way."""
    sibling_inserts = st.builds(
        InsertOp,
        st.sampled_from(["<tag/>", "<book><title>s</title></book>"]),
        st.sampled_from(["//book", "/lib/bin", "//title", "/lib"]),
        st.sampled_from([InsertPosition.BEFORE, InsertPosition.AFTER]),
    )
    transposes = st.builds(
        TransposeOp,
        st.sampled_from(["//book", "//title", "/lib/bin", "//price", "/lib/shelf"]),
        st.sampled_from(["/lib/bin", "/lib/shelf[1]", "/lib/shelf[2]/book", "//price"]),
    )
    return st.one_of(update_ops(), sibling_inserts, transposes)


def _revert_state(document, guide):
    """What a revert must give back: the document's bytes, its node ids
    in pre-order and registered, its tag extents as id sets, its
    serialized size; the guide's label paths and their target sets."""
    return (
        serialize_document(document),
        [n.node_id for n in document.iter()],
        sorted(document._nodes),
        {tag: set(extent) for tag, extent in document._extents.items()},
        serialized_size(document.root),
        {path: set(guide.node_for_path(path).targets) for path in guide.paths()},
    )


class TestDataGuideProperties:
    @given(st.lists(update_ops(), min_size=1, max_size=8))
    @settings(max_examples=example_budget(60), suppress_health_check=[HealthCheck.too_slow])
    def test_guide_stays_synced_under_random_updates(self, ops):
        document = _base_doc()
        guide = DataGuide.build(document)
        for op in ops:
            changes = apply_update(op, document)
            for c in changes:
                guide.apply_change(c)
        guide.validate_against(document)

    @given(st.lists(revertible_ops(), min_size=1, max_size=8))
    @settings(max_examples=example_budget(60), suppress_health_check=[HealthCheck.too_slow])
    def test_rollback_restores_document_and_guide(self, ops):
        """The revert law. Mirrors an abort in DTXSite._settle: every change
        record is reverted newest first and the guide synced with the
        reverse record. That restores the document (bytes, every node id,
        the tag extents, the serialized size) and the guide; each reverse
        record's byte delta cancels its record's; and reverting the reverse
        records, oldest first, redoes every change byte for byte."""
        document = _base_doc()
        guide = DataGuide.build(document)
        before = _revert_state(document, guide)
        changes: list = []
        for op in ops:
            prior = _revert_state(document, guide)
            try:
                made = apply_update(op, document)
            except UpdateError:
                # Refused part-way: nothing is left behind.
                assert _revert_state(document, guide) == prior
                continue
            for c in made:
                guide.apply_change(c)
            changes += made
        after = _revert_state(document, guide)
        reverses = []
        for change in reversed(changes):
            reverse = revert(change)
            guide.apply_change(reverse)
            assert change.byte_delta + reverse.byte_delta == 0
            reverses.append(reverse)
        assert _revert_state(document, guide) == before
        guide.validate_against(document)
        for reverse, change in zip(reversed(reverses), changes):
            redo = revert(reverse)
            guide.apply_change(redo)
            assert (redo.kind, redo.node, redo.byte_delta) == (
                change.kind, change.node, change.byte_delta
            )
        assert _revert_state(document, guide) == after
        guide.validate_against(document)


# ---------------------------------------------------------------------------
# serialized size: the sizing function and the applier's byte deltas
# ---------------------------------------------------------------------------

# Text that exercises every sizing rule: characters the serializer escapes,
# multi-byte characters, and the '' / None pair (``<t></t>`` vs ``<t/>``).
SIZED_TEXTS = st.one_of(
    st.none(), st.just(""), st.text(alphabet='&<>"\'a é\u65e5\U0001f600', max_size=6)
)
SIZED_TAGS = st.sampled_from(["x", "y", "z"])


@st.composite
def sized_elements(draw, depth=3):
    """Small trees over three tags, so ``//x``-style paths select many
    nodes, siblings and nested matches included."""
    attrib = draw(
        st.dictionaries(st.sampled_from(["k", "id"]), SIZED_TEXTS.map(lambda t: t or ""), max_size=2)
    )
    elem = Element(draw(SIZED_TAGS), attrib, draw(SIZED_TEXTS))
    if depth > 0:
        for child in draw(st.lists(sized_elements(depth - 1), max_size=3)):
            elem.append(child)
    return elem


def _real_size(document):
    return len(serialize_document(document).encode("utf-8"))


SIZED_PATHS = st.sampled_from(
    ["/r", "/r/x", "/r/y", "/r/*", "//x", "//y", "//z", "//x/y", "//y/*", "/r/x[1]", "//q"]
)


@st.composite
def sized_steps(draw):
    """An update operation, or ``None`` for 'roll the newest one back'."""
    kind = draw(st.sampled_from(
        ["insert", "remove", "rename", "change", "transpose", "rollback"]
    ))
    if kind == "rollback":
        return None
    if kind == "insert":
        fragment = Element("x", {"k": draw(SIZED_TEXTS) or ""}, draw(SIZED_TEXTS))
        if draw(st.booleans()):
            fragment.append(Element("y", None, draw(SIZED_TEXTS)))
        return InsertOp(fragment, draw(SIZED_PATHS), draw(st.sampled_from(list(InsertPosition))))
    if kind == "remove":
        return RemoveOp(draw(SIZED_PATHS))
    if kind == "rename":
        return RenameOp(draw(SIZED_PATHS), draw(st.sampled_from(["q", "x", "longer-name"])))
    if kind == "change":
        return ChangeOp(draw(SIZED_PATHS), draw(SIZED_TEXTS) or "")
    destination = draw(st.sampled_from(["/r", "/r/x[1]", "/r/y[1]", "//z"]))
    return TransposeOp(draw(SIZED_PATHS), destination)


class TestSerializedSizeProperties:
    @given(sized_elements())
    @settings(max_examples=example_budget(150))
    def test_sizing_function_equals_real_length(self, root):
        assert serialized_size(root) == _real_size(Document("s", root))

    @given(
        st.lists(sized_elements(2), max_size=4),
        st.lists(sized_steps(), min_size=1, max_size=12),
    )
    @settings(max_examples=example_budget(200), suppress_health_check=[HealthCheck.too_slow])
    def test_running_count_equals_real_length(self, children, steps):
        """Seed the count once, then only add the applier's deltas: it stays
        equal to the real length after *every* mutation. Intermediate states
        of a multi-target operation are visited by rolling its changes back
        one at a time, which passes through exactly those states."""
        root = Element("r")
        for child in children:
            root.append(child)
        document = Document("s", root)
        count = _real_size(document)
        applied: list[list] = []  # changes of each operation still in effect
        for op in steps:
            if op is None:
                for change in reversed(applied.pop() if applied else []):
                    revert(change)
                    count -= change.byte_delta
                    assert count == _real_size(document)
                continue
            try:
                changes = apply_update(op, document)
            except UpdateError:
                # Refused part-way (e.g. a sibling insert reaching the
                # root): the applier unwinds what it did.
                assert count == _real_size(document)
                continue
            count += sum(change.byte_delta for change in changes)
            assert count == _real_size(document)
            applied.append(changes)


# ---------------------------------------------------------------------------
# lock matrix
# ---------------------------------------------------------------------------


class TestLockMatrixProperties:
    @given(st.lists(st.sampled_from(list(LockMode)), min_size=1, max_size=4),
           st.sampled_from(list(LockMode)))
    @settings(max_examples=example_budget(100))
    def test_compatible_with_all_is_conjunction(self, held, requested):
        expected = all(XDGL_MATRIX.compatible(h, requested) for h in held)
        assert XDGL_MATRIX.compatible_with_all(held, requested) == expected

    @given(st.sampled_from(list(LockMode)), st.sampled_from(list(LockMode)))
    @settings(max_examples=example_budget(100))
    def test_symmetry(self, a, b):
        assert XDGL_MATRIX.compatible(a, b) == XDGL_MATRIX.compatible(b, a)

    @given(st.sampled_from(list(LockMode)))
    @settings(max_examples=example_budget(20))
    def test_exclusives_block_everything(self, mode):
        assert not XDGL_MATRIX.compatible(LockMode.X, mode)
        assert not XDGL_MATRIX.compatible(LockMode.XT, mode)


# ---------------------------------------------------------------------------
# wait-for graph
# ---------------------------------------------------------------------------


class TestWfgProperties:
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=25))
    @settings(max_examples=example_budget(100))
    def test_reported_cycle_is_a_real_cycle(self, edge_list):
        g = WaitForGraph()
        for a, b in edge_list:
            g.add_edge(a, b)
        cycle = g.find_any_cycle()
        if cycle is not None:
            assert len(cycle) >= 2
            for i, node in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                assert nxt in g.successors(node), (cycle, g.edges())

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
    )
    @settings(max_examples=example_budget(100))
    def test_union_contains_both_edge_sets(self, e1, e2):
        g1, g2 = WaitForGraph.from_edges(e1), WaitForGraph.from_edges(e2)
        merged = g1.union(g2)
        expected = {(a, b) for a, b in e1 if a != b} | {(a, b) for a, b in e2 if a != b}
        assert set(merged.edges()) == expected

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=25))
    @settings(max_examples=example_budget(60))
    def test_acyclic_after_removing_cycle_nodes_eventually(self, edge_list):
        g = WaitForGraph.from_edges(edge_list)
        for _ in range(20):
            cycle = g.find_any_cycle()
            if cycle is None:
                break
            g.remove_node(max(cycle))
        assert g.find_any_cycle() is None


# ---------------------------------------------------------------------------
# fragmentation
# ---------------------------------------------------------------------------


@st.composite
def two_level_documents(draw):
    """``site`` over one to three containers of id-numbered records."""
    containers = [E(f"c{j}") for j in range(draw(st.integers(1, 3)))]
    for i in range(draw(st.integers(2, 20))):
        rec = E("rec", E("id", text=str(i)))
        for _ in range(draw(st.integers(0, 4))):
            rec.append(E("pad", text="x" * draw(st.integers(1, 30))))
        draw(st.sampled_from(containers)).append(rec)
    return Document("fr", E("site", *containers))


class TestReplicatedSerializability:
    """Random workloads under replication_factor > 1 stay serializable.

    For every registered protocol: a 3-site cluster replicates both paper
    documents at two sites each (primary-copy ROWA routing), runs a seeded
    random DTXTester workload, and the committed history must match some
    serial order at *every* replica — plus all replicas of a document must
    be byte-identical.
    """

    ROWA = SystemConfig().with_(
        client_think_ms=0.0,
        detector_interval_ms=25.0,
        detector_initial_delay_ms=5.0,
        replication_factor=2,
        replica_read_policy="nearest",
        replica_write_policy="primary",
    )

    @given(
        protocol=st.sampled_from(sorted(available_protocols())),
        seed=st.integers(0, 2**16),
        update_ratio=st.sampled_from([0.3, 0.6, 1.0]),
    )
    @settings(
        max_examples=example_budget(12),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_replicated_history_is_serializable(
        self, protocol, seed, update_ratio
    ):
        initial = {"d1": make_people_doc(), "d2": make_products_doc()}
        cluster = DTXCluster(protocol=protocol, config=self.ROWA)
        for s in ("s1", "s2", "s3"):
            cluster.add_site(s)
        cluster.replicate_document(initial["d1"], ["s1", "s2"])
        cluster.replicate_document(initial["d2"], ["s2", "s3"])

        spec = WorkloadSpec(
            n_clients=3,
            tx_per_client=2,
            ops_per_tx=2,
            update_tx_ratio=update_ratio,
            update_op_ratio=0.7,
            seed=seed,
        )
        tester = DTXTester(spec, list(initial.values()))
        all_txs = []
        for c, site in tester.assign_clients_to_sites(["s1", "s2", "s3"]).items():
            txs = tester.transactions_for_client(c)
            all_txs.extend(txs)
            cluster.add_client(f"c{c}", site, txs)
        run_to_horizon(cluster)  # lock waits never time out: a lost wake-up parks

        committed = [t for t in all_txs if t.state is TxState.COMMITTED]
        for sid in ("s1", "s2", "s3"):
            site = cluster.site(sid)
            observed = {
                name: serialize_document(site.data_manager.document(name))
                for name in site.data_manager.live_documents()
            }
            site_initial = {n: d for n, d in initial.items() if n in observed}
            assert final_state_serializable(site_initial, committed, observed), (
                f"{protocol} seed={seed}: state at {sid} matches no serial order"
            )
        assert quiescent(cluster) == []


class TestPartitionProperties:
    """Randomized partition schedules never produce split-brain.

    A 4-site lease-mode cluster replicates one document at three sites
    (primary s1). A random cut isolates either the primary or a secondary
    for a random window while writers run on both sides; after the heal
    and a drain, every *committed* insert must be present exactly once at
    every replica and all replicas must be byte-identical — regardless of
    lease timeout, cut timing, or which side each writer sat on.
    """

    @given(
        seed=st.integers(0, 2**16),
        lease_timeout=st.sampled_from([3.0, 5.0, 8.0]),
        cut_at=st.floats(1.0, 8.0),
        cut_ms=st.sampled_from([6.0, 20.0, 45.0]),
        isolate_primary=st.booleans(),
    )
    @settings(
        max_examples=example_budget(10),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_partitions_never_split_brain(
        self, seed, lease_timeout, cut_at, cut_ms, isolate_primary
    ):
        from repro.core.transaction import Operation, Transaction
        from repro.update import InsertOp

        config = SystemConfig().with_(
            client_think_ms=2.0,
            replication_factor=3,
            replica_read_policy="nearest",
            replica_write_policy="primary",
            failure_detector="lease",
            lease_timeout_ms=lease_timeout,
            lock_wait_timeout_ms=100.0,
            max_restarts=2,
            seed=seed,
        )
        cluster = replicated_cluster(config)
        txs = []
        for i, site in enumerate(("s1", "s2", "s3")):
            mine = [
                Transaction(
                    [Operation.update(
                        "d1",
                        InsertOp(
                            f"<person><id>{100 + 10 * i + k}</id></person>", "/people"
                        ),
                    )],
                    label=f"w{100 + 10 * i + k}",
                )
                for k in range(3)
            ]
            txs.extend(mine)
            cluster.add_client(f"c{i}", site, mine)
        isolated = "s1" if isolate_primary else "s3"
        rest = [s for s in ("s1", "s2", "s3", "s4") if s != isolated]
        cluster.schedule_partition(
            [[isolated], rest], at_ms=cut_at, heal_at_ms=cut_at + cut_ms
        )
        result = cluster.run(drain_ms=300.0)

        assert quiescent(cluster) == [], (
            f"not settled after heal (seed={seed}, lease={lease_timeout}, "
            f"cut={cut_at}+{cut_ms}, isolated={isolated})"
        )
        text = doc_at(cluster, "s1")
        # Committed labels come from the run *records*: with max_restarts
        # set, an aborted writer is resubmitted as a fresh clone sharing
        # the label and the original object keeps its failed state — a
        # retried-then-committed writer must not escape the exactly-once
        # check (the re-ship/idempotent-replay path is exactly what could
        # duplicate it).
        committed_labels = {r.label for r in result.committed}
        assert committed_labels <= {t.label for t in txs}
        for label in sorted(committed_labels):
            marker = f"<id>{label[1:]}</id>"
            assert text.count(marker) == 1, (
                f"committed {label}: {text.count(marker)} copies "
                f"(seed={seed}, lease={lease_timeout})"
            )


class TestFragmentationProperties:
    @given(two_level_documents(), st.integers(1, 5))
    @settings(max_examples=example_budget(60))
    def test_fragments_partition_without_loss(self, document, k):
        """Every record lands in exactly one fragment, in document order
        within its container; every fragment keeps the whole skeleton, and
        the record counts differ by at most one (a round-robin deal)."""

        def ids(container):
            return [int(rec.child("id").text) for rec in container.children]

        skeleton = [c.tag for c in document.root.children]
        frags = xmark_fragments(document, k)
        assert len(frags) == k
        assert all([c.tag for c in frag.root.children] == skeleton for frag in frags)
        for j, container in enumerate(document.root.children):
            dealt = [ids(frag.root.children[j]) for frag in frags]
            assert all(mine == sorted(mine) for mine in dealt)
            assert sorted(i for mine in dealt for i in mine) == ids(container)
        counts = [sum(len(c.children) for c in frag.root.children) for frag in frags]
        assert max(counts) - min(counts) <= 1
