"""Count-equivalence guarantees of the wall-clock performance layer.

The performance overhaul (bulk-load construction, incremental
level-structure updates, caches) must be invisible to the cost model:
every message count, every benchmark row, byte for byte.  These tests
pin that contract:

* ``build_from_sorted`` + k inserts charges exactly what the plain
  constructor + the same k inserts charges, for every structure family;
* the incremental ``with_item`` fast paths produce structures
  bit-identical to a from-scratch rebuild (units, order, adjacency);
* the alive-host cache changes no observable number, and the round
  congestion summary is exactly the fold of the stored round reports;
* the fault-injection seam (``Cluster(faults=...)``) is invisible when
  left off: ``faults=None`` — implicit or explicit — reproduces every
  observable number and records zero fault tallies, for every
  structure family;
* the serial round loop replays deterministically: the same items,
  seed and batch reproduce every observable number, and a weighted
  topology re-prices messages without changing any count.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster
from repro.baselines import ChordDHT, SkipGraph
from repro.errors import HostFailedError
from repro.net.congestion import round_congestion_report
from repro.net.message import MessageKind
from repro.net.network import Network
from repro.onedim import BucketSkipWeb1D, SkipWeb1D
from repro.onedim.linked_list import SortedListStructure
from repro.spatial.geometry import HyperCube
from repro.spatial.skip_quadtree import QuadtreeStructure, SkipQuadtreeWeb
from repro.strings import DNA, LOWERCASE
from repro.strings.skip_trie import SkipTrieWeb, TrieStructure
from repro.workloads import (
    dna_reads,
    non_crossing_segments,
    uniform_keys,
    uniform_points,
)
from repro.workloads.strings import random_strings


class TestBulkLoadEquivalence:
    """Bulk-load + k inserts ≡ plain construction + the same k inserts."""

    def test_skipweb1d_costs_identical(self):
        keys = sorted(set(float(key) for key in uniform_keys(64, seed=3)))
        extra = [1_000_001.5 + index for index in range(5)]
        plain = SkipWeb1D(keys, seed=3)
        bulk = SkipWeb1D.build_from_sorted(keys, seed=3)
        assert bulk.construction_messages > 0
        insert_costs_plain = [plain.insert(key).messages for key in extra]
        insert_costs_bulk = [bulk.insert(key).messages for key in extra]
        assert insert_costs_plain == insert_costs_bulk
        rng = random.Random(11)
        queries = [rng.uniform(0.0, 2_000_000.0) for _ in range(30)]
        plain_costs = [plain.nearest(query).messages for query in queries]
        bulk_costs = [bulk.nearest(query).messages for query in queries]
        assert plain_costs == bulk_costs
        assert [plain.nearest(q).answer.nearest for q in queries] == [
            bulk.nearest(q).answer.nearest for q in queries
        ]

    def test_quadtree_and_trie_webs_cost_identical(self):
        points = uniform_points(48, dimension=2, seed=4)
        cube = HyperCube((0.0, 0.0), 1.0)
        plain_quad = SkipQuadtreeWeb(points, bounding_cube=cube, seed=4)
        bulk_quad = SkipQuadtreeWeb.build_from_sorted(points, bounding_cube=cube, seed=4)
        rng = random.Random(5)
        point_queries = [(rng.random(), rng.random()) for _ in range(20)]
        assert [plain_quad.locate(q).messages for q in point_queries] == [
            bulk_quad.locate(q).messages for q in point_queries
        ]

        strings = random_strings(48, alphabet=LOWERCASE, seed=4)
        plain_trie = SkipTrieWeb(strings, alphabet=LOWERCASE, seed=4)
        bulk_trie = SkipTrieWeb.build_from_sorted(strings, alphabet=LOWERCASE, seed=4)
        assert [plain_trie.locate(s).messages for s in strings[:20]] == [
            bulk_trie.locate(s).messages for s in strings[:20]
        ]

    def test_bucket_baseline_and_chord_costs_identical(self):
        keys = sorted(set(float(key) for key in uniform_keys(64, seed=6)))
        rng = random.Random(7)
        queries = [rng.uniform(0.0, 1_000_000.0) for _ in range(20)]

        plain_bucket = BucketSkipWeb1D(keys, memory_size=32, seed=6)
        bulk_bucket = BucketSkipWeb1D.build_from_sorted(keys, 32, seed=6)
        assert [plain_bucket.nearest(q).messages for q in queries] == [
            bulk_bucket.nearest(q).messages for q in queries
        ]

        plain_graph = SkipGraph(keys, seed=6)
        bulk_graph = SkipGraph.build_from_sorted(keys, seed=6)
        assert [plain_graph.search(q).messages for q in queries] == [
            bulk_graph.search(q).messages for q in queries
        ]

        plain_chord = ChordDHT(keys)
        bulk_chord = ChordDHT.build_from_sorted(keys)
        assert [plain_chord.lookup(k).messages for k in keys[:20]] == [
            bulk_chord.lookup(k).messages for k in keys[:20]
        ]

    def test_construction_traffic_is_construction_kind_only(self):
        keys = sorted(set(float(key) for key in uniform_keys(48, seed=8)))
        web = SkipWeb1D.build_from_sorted(keys, seed=8)
        log = web.network.message_log
        assert web.construction_messages == log.count(MessageKind.CONSTRUCTION) > 0
        assert log.count(MessageKind.QUERY) == 0
        assert log.count(MessageKind.UPDATE) == 0


class TestIncrementalStructureEquivalence:
    """The ``with_item`` fast paths match a from-scratch rebuild exactly."""

    @staticmethod
    def _assert_same(incremental, rebuilt):
        left, right = incremental.units(), rebuilt.units()
        assert [unit.key for unit in left] == [unit.key for unit in right]
        assert left == right
        assert list(incremental.items) == list(rebuilt.items)
        for unit in left:
            assert [n.key for n in incremental.neighbors(unit.key)] == [
                n.key for n in rebuilt.neighbors(unit.key)
            ]

    def test_sorted_list(self):
        rng = random.Random(1)
        keys = sorted(set(float(key) for key in uniform_keys(24, seed=1)))
        current = SortedListStructure(keys)
        grown = list(keys)
        for _ in range(8):
            key = rng.uniform(-100.0, 2_000_000.0)
            if key in grown:
                continue
            current = current.with_item(key)
            grown.append(key)
            self._assert_same(current, SortedListStructure(grown))

    def test_trie(self):
        for alphabet in (DNA, LOWERCASE):
            strings = random_strings(20, alphabet=alphabet, seed=2)
            current = TrieStructure(strings, alphabet)
            grown = list(current.items)
            for value in random_strings(30, alphabet=alphabet, seed=77):
                if value in grown:
                    continue
                current = current.with_item(value)
                grown.append(value)
                current.trie.validate()
                self._assert_same(current, TrieStructure.build(grown, alphabet=alphabet))

    def test_quadtree(self):
        rng = random.Random(3)
        for dimension in (2, 3):
            cube = HyperCube(tuple(0.0 for _ in range(dimension)), 1.0)
            points = uniform_points(20, dimension=dimension, seed=3)
            current = QuadtreeStructure(points, cube)
            grown = list(current.items)
            for _ in range(8):
                point = tuple(rng.random() for _ in range(dimension))
                if point in grown:
                    continue
                current = current.with_item(point)
                grown.append(point)
                current.tree.validate()
                self._assert_same(current, QuadtreeStructure(grown, cube))

    def test_quadtree_compression_moves(self):
        """Clustered points followed by far points move the split cell."""
        rng = random.Random(4)
        cube = HyperCube((0.0, 0.0), 1.0)
        clustered = [(0.001 + rng.random() * 0.01, 0.001 + rng.random() * 0.01) for _ in range(12)]
        current = QuadtreeStructure(clustered, cube)
        grown = list(current.items)
        for point in [(0.93, 0.91), (0.5, 0.5), (0.25, 0.7), (0.0078, 0.0055)]:
            current = current.with_item(point)
            grown.append(point)
            current.tree.validate()
            self._assert_same(current, QuadtreeStructure(grown, cube))


class TestNetworkCaches:
    """The alive-host cache and round-report bounding change no numbers."""

    def test_alive_cache_tracks_membership_changes(self):
        network = Network()
        network.add_hosts(3)
        assert network.alive_host_ids() == [0, 1, 2]
        network.fail_host(1)
        assert network.alive_host_ids() == [0, 2]
        network.recover_host(1)
        assert network.alive_host_ids() == [0, 1, 2]
        network.remove_host(2)
        assert network.alive_host_ids() == [0, 1]
        host = network.add_host()
        assert host.host_id in network.alive_host_ids()
        # The returned list is a copy: mutating it does not poison the cache.
        network.alive_host_ids().append(999)
        assert 999 not in network.alive_host_ids()

    @pytest.mark.parametrize("topology", [None, "clustered"])
    def test_round_congestion_report_is_the_fold_of_round_reports(self, topology):
        network = Network(topology=topology)
        network.add_hosts(4)
        with network.rounds():
            for round_index in range(5):
                for destination in range(1, 2 + round_index % 3):
                    network.post(0, destination)
                network.run_round()
            # A direct send after the final round gets a closing report.
            network.send(3, 2)
        reports = network.round_reports
        assert len(reports) == 6 and reports[-1].delivered == 1
        loads = [report.max_load for report in reports]
        busiest = reports[loads.index(max(loads))]
        summary = round_congestion_report(network)
        assert summary.rounds == len(reports)
        assert summary.total_messages == sum(report.delivered for report in reports)
        assert summary.per_round_max == tuple(loads)
        assert (summary.busiest_host, summary.busiest_round) == (
            busiest.max_load_host,
            busiest.index,
        )
        assert summary.topology_aware == (topology is not None)
        if topology is None:
            assert summary.total_weight == 0 and summary.per_round_max_link == ()
            assert summary.busiest_link is None and summary.busiest_cluster is None
        else:
            links = [report.max_link_load for report in reports]
            clusters = [report.max_cluster_load for report in reports]
            assert summary.total_weight == sum(report.weight for report in reports)
            assert summary.per_round_max_link == tuple(links)
            assert summary.per_round_max_cluster == tuple(clusters)
            assert summary.busiest_link == reports[links.index(max(links))].max_link
            assert (
                summary.busiest_cluster
                == reports[clusters.index(max(clusters))].max_cluster
            )
        for report in reports:
            assert report.per_host
            assert report.max_host_load == max(report.per_host.values())

    def test_topology_network_without_rounds_is_topology_aware(self):
        network = Network(topology="clustered")
        network.add_hosts(2)
        with network.rounds():
            pass
        summary = round_congestion_report(network)
        assert summary.topology_aware
        assert summary.rounds == 0
        assert summary.as_dict()["weight"] == 0.0

    def test_round_report_retention_option_is_gone(self):
        with pytest.raises(TypeError):
            Network(round_report_retention=2)

    def test_ledger_round_failure_reporting_still_works(self):
        network = Network()
        network.add_hosts(3)
        with network.rounds():
            healthy = network.post(0, 1)
            report = network.run_round()
            healthy.result()  # delivered: no exception
            assert report.delivered == 1
            network.fail_host(2)
            doomed = network.post(0, 2)
            report = network.run_round()
            with pytest.raises(HostFailedError):
                doomed.result()
            assert (report.delivered, report.dropped) == (0, 1)


#: Read-only batch scenarios for every registered family: constructor
#: items, extra Cluster kwargs, a list of search payloads, and (where the
#: family answers them) one range payload.
_FAMILY_KEYS = uniform_keys(32, seed=21)
_FAMILY_POINTS = uniform_points(24, dimension=2, seed=21)
_FAMILY_READS = dna_reads(20, seed=21)
_FAMILY_SEGMENTS = non_crossing_segments(12, seed=21)

FAMILY_SCENARIOS = {
    "skipweb1d": dict(
        items=_FAMILY_KEYS,
        kwargs={},
        searches=uniform_keys(18, seed=22),
        range=(0.0, 500_000.0),
    ),
    "bucket-skipweb1d": dict(
        items=_FAMILY_KEYS,
        kwargs={"memory_size": 16},
        searches=uniform_keys(18, seed=22),
        range=(0.0, 500_000.0),
    ),
    "skipquadtree": dict(
        items=_FAMILY_POINTS,
        kwargs={"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        searches=[tuple(point) for point in uniform_points(14, dimension=2, seed=23)],
        range=None,
    ),
    "skiptrie": dict(
        items=_FAMILY_READS,
        kwargs={"alphabet": DNA},
        searches=[read[: 3 + index % 5] for index, read in enumerate(_FAMILY_READS[:14])],
        range=None,
    ),
    "skiptrapezoid": dict(
        items=_FAMILY_SEGMENTS,
        kwargs={},
        searches=[
            (segment.left[0] + 0.25, segment.left[1] + 0.25)
            for segment in _FAMILY_SEGMENTS[:10]
        ],
        range=None,
    ),
    "skipgraph": dict(
        items=_FAMILY_KEYS,
        kwargs={},
        searches=uniform_keys(18, seed=22),
        range=(0.0, 500_000.0),
    ),
    "skipnet": dict(items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None),
    "non-skipgraph": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "family-tree": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "det-skipnet": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "bucket-skipgraph": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "chord": dict(items=_FAMILY_KEYS, kwargs={}, searches=list(_FAMILY_KEYS[:14]), range=None),
}


def _run_family_batch(name, **extra):
    """Build ``name``'s scenario cluster and run its batch."""
    scenario = FAMILY_SCENARIOS[name]
    cluster = Cluster(
        structure=name,
        items=scenario["items"],
        seed=21,
        **scenario["kwargs"],
        **extra,
    )
    operations = [("search", payload) for payload in scenario["searches"]]
    if scenario["range"] is not None:
        operations.append(("range", scenario["range"]))
    return cluster, cluster.batch(operations)


class TestFaultFreeIdentity:
    """``faults=None`` changes no pre-existing number, for any family.

    The fault-injection choke point sits inside every delivery, so its
    no-op contract is the whole subsystem's licence
    to exist: a cluster that never opted in must be byte-identical to
    one built before the subsystem landed.  The sweep pins per-operation
    stats, batch aggregates, round reports, deployment snapshots and the
    (all-zero) fault tallies across the no-kwarg and explicit
    ``faults=None`` spellings.
    """

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_matches_implicit_default(self, name):
        implicit_cluster, implicit = _run_family_batch(name)
        cluster, report = _run_family_batch(name, faults=None)

        assert cluster.faults is None
        assert len(report) == len(implicit)
        for left, right in zip(implicit, report):
            assert left.status == right.status
            assert left.messages == right.messages
            assert left.rounds == right.rounds
            assert left.retries == right.retries
            assert left.value == right.value
        assert report.summary() == implicit.summary()
        assert report.rounds == implicit.rounds
        assert report.messages == implicit.messages
        assert cluster.stats().as_dict() == implicit_cluster.stats().as_dict()
        log = cluster.network.message_log
        assert (log.dropped, log.duplicated, log.delayed) == (0, 0, 0)
        # No fault plan ⇒ the new summary keys never materialise.
        assert "timed_out" not in implicit.summary()
        assert "gave_up" not in implicit.summary()


class TestFlatTopologyIdentity:
    """An explicit ``FlatTopology`` changes no pre-refactor counter.

    The topology seam's contract mirrors the fault plan's: invisible
    until you opt in.  A cluster constructed with
    ``topology="flat"`` must reproduce every observable number of a
    cluster constructed without a topology — per-operation stats, batch
    aggregates, congestion reports, lifetime deployment snapshots — for
    every registered family; the only additions are the weighted
    observables (``latency`` equal to the message count, per-link and
    per-cluster aggregates with all weights 1).
    """

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_matches_implicit_default(self, name):
        default_cluster, default = _run_family_batch(name, topology=None)
        flat_cluster, flat = _run_family_batch(name, topology="flat")

        assert len(default) == len(flat)
        for left, right in zip(default, flat):
            assert left.status == right.status
            assert left.messages == right.messages
            assert left.rounds == right.rounds
            assert left.retries == right.retries
            assert left.cache_hits == right.cache_hits
            assert left.value == right.value
            # The weighted dimension: absent by default, messages×1 flat.
            assert left.latency == 0
            assert right.latency == right.messages

        assert default.rounds == flat.rounds
        assert default.messages == flat.messages
        assert default.max_round_congestion == flat.max_round_congestion
        assert default.latency == 0
        assert flat.latency == flat.messages

        default_congestion = default.round_congestion().as_dict()
        flat_congestion = flat.round_congestion().as_dict()
        # Every pre-refactor congestion field is identical; the explicit
        # topology only *adds* the weighted keys.
        assert {
            key: value
            for key, value in flat_congestion.items()
            if key in default_congestion
        } == default_congestion
        assert flat_congestion["weight"] == flat_congestion["messages"]

        assert default_cluster.stats().as_dict() == flat_cluster.stats().as_dict()


def _observables(cluster, report):
    """Every number a batch exposes: per-operation, per-round, lifetime."""
    return {
        "operations": [
            (
                handle.status,
                handle.kind,
                handle.origin_host,
                handle.messages,
                handle.rounds,
                handle.retries,
                handle.cache_hits,
                handle.latency,
                handle.value,
                type(handle.error),
            )
            for handle in report
        ],
        "totals": (report.rounds, report.messages, report.max_round_congestion),
        "summary": report.summary(),
        "congestion": report.round_congestion().as_dict(),
        "round_reports": [
            (entry.index, entry.delivered, entry.max_load, entry.max_load_host)
            for entry in report.raw.round_reports
        ],
        "stats": cluster.stats().as_dict(),
    }


class TestSerialReplay:
    """The serial round loop is a deterministic function of its inputs.

    Journal recovery from genesis and every byte-identity gate rely on
    it: rebuilding a cluster from the same items and seed and replaying
    the same batch must reproduce every observable number.
    """

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_replays_identically(self, name):
        first = _observables(*_run_family_batch(name))
        second = _observables(*_run_family_batch(name))
        assert first == second
        assert first["operations"]

    @pytest.mark.parametrize("topology", ["clustered", "geo"])
    def test_weighted_topology_reweights_without_recounting(self, topology):
        default_cluster, default = _run_family_batch("skipweb1d")
        weighted_cluster, weighted = _run_family_batch("skipweb1d", topology=topology)
        again_cluster, again = _run_family_batch("skipweb1d", topology=topology)

        # A weighted topology prices messages; it never adds or drops one.
        for left, right in zip(default, weighted):
            assert (left.status, left.messages, left.rounds, left.value) == (
                right.status,
                right.messages,
                right.rounds,
                right.value,
            )
        assert weighted.messages == default.messages
        assert weighted.latency > weighted.messages
        assert weighted_cluster.stats().as_dict() == default_cluster.stats().as_dict()

        # ... and the weighted observables replay exactly.
        assert _observables(weighted_cluster, weighted) == _observables(again_cluster, again)
        assert (
            round_congestion_report(weighted_cluster.network)
            == round_congestion_report(again_cluster.network)
        )
