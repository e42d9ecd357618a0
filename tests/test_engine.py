"""Tests for the batched execution engine (steps, protocol, executor)."""

import random

import pytest

from repro.baselines import ChordDHT, SkipGraph
from repro.core.ranges import Interval
from repro.engine import (
    BatchExecutor,
    DistributedStructure,
    HopTo,
    Operation,
    Resolution,
    StepCursor,
    Visit,
    local_steps,
    run_immediate,
)
from repro.errors import (
    ChurnError,
    HostFailedError,
    QueryError,
    StructureError,
    UpdateError,
)
from repro.net import MessageKind, Network, inject_host_faults
from repro.onedim import BucketSkipWeb1D, SkipWeb1D
from repro.spatial.geometry import HyperCube
from repro.spatial.skip_quadtree import SkipQuadtreeWeb
from repro.strings import LOWERCASE
from repro.strings.skip_trie import SkipTrieWeb
from repro.workloads import uniform_keys, uniform_points
from repro.workloads.strings import random_strings


class TestSteps:
    def test_run_immediate_charges_cross_host_visits(self):
        network = Network()
        network.add_hosts(3)
        local = network.store(0, "local")
        remote = network.store(1, "remote")

        def walk():
            cursor = StepCursor(0)
            first = yield from cursor.visit(local)
            second = yield from cursor.visit(remote)
            yield from cursor.hop_to(2)
            return (first, second, cursor.hops, cursor.path)

        first, second, hops, path = run_immediate(network, walk(), 0)
        assert (first, second) == ("local", "remote")
        assert hops == 2
        assert path == [0, 1, 2]
        assert network.total_messages == 2

    def test_run_immediate_bills_the_given_kind(self):
        network = Network()
        network.add_hosts(2)

        def hop():
            cursor = StepCursor(0)
            yield from cursor.hop_to(0)
            yield from cursor.hop_to(1)
            return cursor.hops

        assert run_immediate(network, hop(), 0, kind=MessageKind.UPDATE) == 1
        assert network.message_log.count(MessageKind.UPDATE) == 1
        assert network.message_log.count(MessageKind.QUERY) == 0

    def test_hop_to_the_current_host_is_free(self):
        network = Network()
        network.add_hosts(2)

        def hop():
            cursor = StepCursor(1)
            yield from cursor.hop_to(1)
            return cursor.hops, cursor.path

        assert run_immediate(network, hop(), 1) == (0, [1])
        assert network.total_messages == 0

    def test_remote_visit_moves_the_cursor(self):
        network = Network()
        network.add_hosts(2)
        address = network.store(1, "x")

        def walk():
            cursor = StepCursor(0)
            value = yield from cursor.visit(address)
            again = yield from cursor.visit(address)
            return value, again, cursor.hops, cursor.current_host, cursor.path

        assert run_immediate(network, walk(), 0) == ("x", "x", 1, 1, [0, 1])
        assert network.message_log.count(MessageKind.QUERY) == 1

    def test_cursor_does_not_move_on_uncharged_resolution(self):
        """A cache-style resolution leaves the cursor (and cost) in place."""
        cursor = StepCursor(0)
        gen = cursor.visit(None)
        next(gen)
        with pytest.raises(StopIteration):
            gen.send(Resolution(value="copy", host=0, charged=False))
        assert cursor.hops == 0
        assert cursor.current_host == 0

    def test_effects_expose_targets(self):
        network = Network()
        network.add_hosts(2)
        address = network.store(1, "x")
        assert Visit(address).address.host == 1
        assert HopTo(1).host == 1


class TestProtocolConformance:
    def test_all_structures_implement_protocol(self):
        keys = uniform_keys(24, seed=0)
        web = SkipWeb1D(keys, seed=0)
        structures = [
            web,
            web.web,
            BucketSkipWeb1D(keys, memory_size=8, seed=0),
            SkipQuadtreeWeb(
                uniform_points(16, dimension=2, seed=0),
                bounding_cube=HyperCube((0.0, 0.0), 1.0),
            ),
            SkipTrieWeb(random_strings(16, alphabet=LOWERCASE, seed=0), alphabet=LOWERCASE),
            SkipGraph(keys, seed=0),
            ChordDHT(keys),
        ]
        for structure in structures:
            assert isinstance(structure, DistributedStructure), structure
            assert structure.origin_hosts()
            # Every implementation's seed_roots is local routing state:
            # drivable as a step generator and free of messages.
            origin = structure.origin_hosts()[0]
            before = structure.network.total_messages
            roots = run_immediate(structure.network, structure.seed_roots(origin), origin)
            assert roots is not None
            assert structure.network.total_messages == before

    def test_seed_roots_are_local_and_free(self):
        keys = uniform_keys(16, seed=1)
        web = SkipWeb1D(keys, seed=1)
        origin = web.origin_hosts()[0]
        before = web.network.total_messages
        roots = run_immediate(web.network, web.seed_roots(origin), origin)
        assert roots  # (unit, address) pairs
        assert web.network.total_messages == before

    def test_search_steps_match_eager_api(self):
        keys = uniform_keys(48, seed=2)
        web = SkipWeb1D(keys, seed=2)
        query = 123456.789
        stepped = run_immediate(
            web.network, web.search_steps(query, origin_host=3), 3, kind=MessageKind.QUERY
        )
        direct = web.nearest(query, origin_host=3)
        assert stepped.answer.nearest == direct.answer.nearest
        assert stepped.messages == direct.messages
        assert stepped.hosts_visited == direct.hosts_visited


class TestBatchExecutor:
    def test_mixed_batch_completes_and_matches_immediate(self):
        rng = random.Random(0)
        keys = uniform_keys(64, seed=3)
        web = SkipWeb1D(keys, seed=3)
        queries = [rng.uniform(0, 1e6) for _ in range(30)]
        inserts = uniform_keys(6, seed=4, low=2_000_000, high=3_000_000)
        operations = [Operation("search", q) for q in queries]
        operations += [Operation("insert", k) for k in inserts]
        result = BatchExecutor(web).run(operations)
        assert result.failed == 0
        assert result.rounds > 0
        assert result.messages > 0
        assert result.max_round_congestion >= 1
        web.web.validate()
        for key in inserts:
            assert web.contains(key)
        # Per-op accounting adds up to the batch total.
        assert sum(outcome.messages for outcome in result.outcomes) == result.messages

    def test_batch_runs_three_structure_types(self):
        rng = random.Random(1)
        n = 32
        webs = [
            SkipWeb1D(uniform_keys(n, seed=5), seed=5),
            SkipQuadtreeWeb(
                uniform_points(n, dimension=2, seed=5),
                bounding_cube=HyperCube((0.0, 0.0), 1.0),
                seed=5,
            ),
            SkipTrieWeb(random_strings(n, alphabet=LOWERCASE, seed=5), alphabet=LOWERCASE, seed=5),
        ]
        payloads = [
            lambda: rng.uniform(0, 1e6),
            lambda: (rng.random(), rng.random()),
            lambda: "zz",
        ]
        for web, payload in zip(webs, payloads):
            result = BatchExecutor(web).run([Operation("search", payload()) for _ in range(20)])
            assert result.failed == 0
            assert result.ops_per_round > 1.0

    def test_host_failure_mid_batch_is_isolated(self):
        """A host failing mid-batch fails only the ops that touch it."""
        keys = uniform_keys(48, seed=6)
        web = SkipWeb1D(keys, seed=6)
        rng = random.Random(6)
        operations = [Operation("search", rng.uniform(0, 1e6)) for _ in range(40)]
        victim = web.origin_hosts()[len(web.origin_hosts()) // 2]

        def kill_after_first_round(report):
            if report.index == 0:
                web.network.fail_host(victim)

        executor = BatchExecutor(web, on_round=kill_after_first_round)
        result = executor.run(operations)
        assert len(result.outcomes) == len(operations)
        failures = [outcome for outcome in result.outcomes if not outcome.ok]
        assert failures, "some operation should have touched the failed host"
        assert all(isinstance(outcome.error, HostFailedError) for outcome in failures)
        # Every other in-flight operation still produced a correct answer.
        web.network.recover_host(victim)
        for outcome in result.outcomes:
            if outcome.ok:
                direct = web.nearest(outcome.operation.payload, origin_host=outcome.origin_host)
                assert direct.answer.nearest == outcome.value.answer.nearest
        with pytest.raises(HostFailedError):
            failures[0].result()
        web.web.validate()

    def test_update_interrupted_by_failure_leaves_structure_consistent(self):
        """Updates mutate atomically before billing: a host failing mid-batch
        can cost an insert its acks, never leave a half-updated skip-web."""
        keys = uniform_keys(48, seed=12)
        web = SkipWeb1D(keys, seed=12)
        rng = random.Random(12)
        inserts = uniform_keys(12, seed=13, low=2_000_000, high=3_000_000)
        operations = [Operation("insert", k) for k in inserts]
        operations += [Operation("search", rng.uniform(0, 1e6)) for _ in range(12)]
        victims = web.origin_hosts()[5:8]

        def kill_early(report):
            if report.index == 2:
                for victim in victims:
                    web.network.fail_host(victim)

        result = BatchExecutor(web, on_round=kill_early).run(operations)
        for victim in victims:
            web.network.recover_host(victim)
        # Regardless of which operations failed, the structure is whole.
        web.web.validate()
        for outcome in result.outcomes:
            if outcome.operation.kind == "insert" and outcome.ok:
                assert web.contains(outcome.operation.payload)

    def test_duplicate_insert_is_recorded_not_raised(self):
        keys = uniform_keys(16, seed=7)
        web = SkipWeb1D(keys, seed=7)
        result = BatchExecutor(web).run([Operation("insert", keys[0])])
        assert result.failed == 1
        assert isinstance(result.outcomes[0].error, UpdateError)

    def test_bucket_skipgraph_batched_matches_eager(self):
        """The protocol path must use the bucket-local finish, not the base one."""
        from repro.baselines import BucketSkipGraph

        keys = uniform_keys(64, seed=1)
        structure = BucketSkipGraph(keys, seed=1)
        rng = random.Random(1)
        queries = [rng.uniform(0, 1e6) for _ in range(15)] + [123456.0]
        result = BatchExecutor(structure).run([Operation("search", q) for q in queries])
        assert result.failed == 0
        for outcome in result.outcomes:
            eager = structure.search(outcome.operation.payload)
            batched = outcome.value
            assert (eager.predecessor, eager.successor, eager.nearest) == (
                batched.predecessor,
                batched.successor,
                batched.nearest,
            )

    def test_chord_searches_batch_but_updates_fail(self):
        keys = uniform_keys(32, seed=8)
        chord = ChordDHT(keys)
        rng = random.Random(8)
        result = BatchExecutor(chord).run(
            [Operation("search", rng.choice(keys)) for _ in range(16)]
        )
        assert result.failed == 0
        assert all(outcome.value.found for outcome in result.outcomes)
        update = BatchExecutor(chord).run([Operation("insert", 1.0)])
        assert update.failed == 1
        assert isinstance(update.outcomes[0].error, UpdateError)

    def test_route_cache_warms_across_batches(self):
        rng = random.Random(9)
        keys = uniform_keys(64, seed=9)
        web = SkipWeb1D(keys, seed=9)
        executor = BatchExecutor(web, route_cache=True)
        operations = [
            Operation("search", rng.uniform(0, 1e6), origin_host=2) for _ in range(15)
        ]
        cold = executor.run(operations)
        warm = executor.run(operations)
        assert cold.cache_hits == 0
        assert warm.cache_hits > 0
        assert warm.messages < cold.messages
        # Cached answers stay correct.
        for outcome in warm.outcomes:
            direct = web.nearest(outcome.operation.payload, origin_host=2)
            assert direct.answer.nearest == outcome.value.answer.nearest

    def test_update_invalidates_route_cache(self):
        rng = random.Random(10)
        keys = uniform_keys(32, seed=10)
        web = SkipWeb1D(keys, seed=10)
        executor = BatchExecutor(web, route_cache=True)
        operations = [
            Operation("search", rng.uniform(0, 1e6), origin_host=1) for _ in range(10)
        ]
        executor.run(operations)
        executor.run([Operation("insert", 2_500_000.0)])
        after = executor.run(operations)
        # First search batch after the insert must re-fetch (cache cleared).
        assert after.cache_misses > 0
        web.web.validate()

    def test_failure_injection_invalidates_route_cache(self):
        """Failing or recovering hosts mid-session drops memoized routes.

        A cached top-level record is served without touching the network,
        so without epoch-based invalidation a batch after a failure would
        happily route searches via records on dead hosts.
        """
        rng = random.Random(13)
        keys = uniform_keys(32, seed=13)
        web = SkipWeb1D(keys, seed=13)
        executor = BatchExecutor(web, route_cache=True)
        operations = [
            Operation("search", rng.uniform(0, 1e6), origin_host=1) for _ in range(10)
        ]
        executor.run(operations)
        warm = executor.run(operations)
        assert warm.cache_hits > 0 and warm.cache_misses == 0

        victim = web.origin_hosts()[-1]
        inject_host_faults(web.network, [victim])
        web.network.recover_host(victim)
        # Membership changed (fail + recover): every memoized route is
        # suspect, so the next batch must re-fetch instead of hitting.
        after = executor.run(operations)
        assert after.cache_misses > 0

    def test_mid_batch_failure_invalidates_route_cache(self):
        """Epoch sync also fires inside a batch, via the on_round hook."""
        rng = random.Random(14)
        keys = uniform_keys(32, seed=14)
        web = SkipWeb1D(keys, seed=14)

        def flicker(report):
            if report.index == 0:
                victim = web.origin_hosts()[-1]
                web.network.fail_host(victim)
                web.network.recover_host(victim)

        executor = BatchExecutor(web, route_cache=True, on_round=flicker)
        operations = [
            Operation("search", rng.uniform(0, 1e6), origin_host=2) for _ in range(8)
        ]
        executor.run(operations)
        warm = executor.run(operations)
        # The flicker during each run keeps clearing the cache, so warm
        # batches cannot blindly reuse pre-failure routes.
        assert warm.cache_misses > 0

    def test_unknown_operation_kind_rejected(self):
        web = SkipWeb1D(uniform_keys(8, seed=11), seed=11)
        with pytest.raises(ValueError):
            BatchExecutor(web).run([Operation("rename", 1.0)])

    def test_batch_skips_failed_origin_hosts(self):
        """Churn-then-batch: operations never originate on a dead host."""
        keys = uniform_keys(32, seed=15)
        web = SkipWeb1D(keys, seed=15)
        victim = web.origin_hosts()[3]
        web.network.fail_host(victim)
        rng = random.Random(15)
        operations = [Operation("search", rng.uniform(0, 1e6)) for _ in range(20)]
        result = BatchExecutor(web).run(operations)
        assert all(outcome.origin_host != victim for outcome in result.outcomes)
        web.network.recover_host(victim)

    def test_batch_raises_cleanly_when_no_origin_survives(self):
        keys = uniform_keys(8, seed=16)
        web = SkipWeb1D(keys, seed=16)
        for host in web.origin_hosts():
            web.network.fail_host(host)
        with pytest.raises(QueryError):
            BatchExecutor(web).run([Operation("search", 1.0)])


class _ForkingStructure:
    """Minimal DistributedStructure whose range op forks two fixed sub-walks.

    Host 0 is the origin; the left sub-walk visits records on hosts 1
    then 2, the right sub-walk visits hosts 3 then 4 — four cross-host
    messages total, deterministic, with per-attempt poisoning hooks so
    retry semantics can be asserted exactly.
    """

    def __init__(self, fail_first_attempts: int = 0) -> None:
        self.network = Network()
        self.network.add_hosts(5)
        self.left = [self.network.store(1, "L1"), self.network.store(2, "L2")]
        self.right = [self.network.store(3, "R1"), self.network.store(4, "R2")]
        self.fail_first_attempts = fail_first_attempts
        self.range_attempts = 0
        self.left_walk_starts = 0

    def origin_hosts(self):
        return [0]

    def seed_roots(self, origin_host):
        return local_steps(None)

    def search_steps(self, query, origin_host=None):
        cursor = StepCursor(0 if origin_host is None else origin_host)
        value = yield from cursor.visit(self.left[0])
        return (value, cursor.hops)

    def insert_steps(self, item, origin_host=None):
        raise UpdateError("static")

    def delete_steps(self, item, origin_host=None):
        raise UpdateError("static")

    def migrate_host(self, host_id, targets=None, fraction=1.0):
        raise ChurnError("static")

    def repair(self, host_ids):
        raise ChurnError("static")

    def _walk(self, addresses, start, poison=False, count_left=False):
        if count_left:
            self.left_walk_starts += 1
        cursor = StepCursor(start)
        values = []
        for index, address in enumerate(addresses):
            if poison and index == 1:
                raise StructureError("record changed under the walk")
            values.append((yield from cursor.visit(address)))
        return (tuple(values), cursor.hops)

    def range_steps(self, query_range, origin_host=None):
        self.range_attempts += 1
        origin = 0 if origin_host is None else origin_host
        poison = self.range_attempts <= self.fail_first_attempts
        cursor = StepCursor(origin)
        reports = yield from cursor.fork(
            [
                self._walk(self.left, origin, count_left=True),
                self._walk(self.right, origin, poison=poison),
            ]
        )
        values = tuple(value for branch_values, _hops in reports for value in branch_values)
        return (values, cursor.hops + sum(hops for _values, hops in reports))


class TestForkedCursors:
    """Forked sub-walk semantics: billing, failure isolation, retry restarts."""

    def test_fork_billing_identical_immediate_vs_batched(self):
        imm = _ForkingStructure()
        with imm.network.measure() as stats:
            values, billed = run_immediate(imm.network, imm.range_steps(None), 0)
        assert values == ("L1", "L2", "R1", "R2")
        assert billed == 4
        assert stats.messages == 4

        batched = _ForkingStructure()
        with batched.network.measure() as batch_stats:
            result = BatchExecutor(batched).run([Operation("range", None)])
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.value[0] == ("L1", "L2", "R1", "R2")
        assert outcome.messages == 4
        assert batch_stats.messages == 4
        # Fan-out of 2: both sub-walks cross one host per round, so the
        # four messages land in two delivery rounds.
        assert result.rounds <= 3

    def test_range_totals_match_on_real_structures(self):
        rng = random.Random(17)
        keys = uniform_keys(48, seed=17)
        web = SkipWeb1D(keys, seed=17)
        sorted_keys = sorted(set(float(key) for key in keys))
        queries = []
        for _ in range(6):
            start = rng.randrange(0, len(sorted_keys) - 6)
            queries.append(Interval(sorted_keys[start], sorted_keys[start + 5]))
        origins = [web.origin_hosts()[index % 5] for index in range(len(queries))]
        immediate = [
            run_immediate(web.network, web.range_steps(query, origin), origin)
            for query, origin in zip(queries, origins)
        ]
        batch = BatchExecutor(web).run(
            [
                Operation("range", query, origin_host=origin)
                for query, origin in zip(queries, origins)
            ]
        )
        assert batch.failed == 0
        for outcome, reference in zip(batch.outcomes, immediate):
            assert outcome.messages == reference.messages
            assert outcome.value.matches == reference.matches
        assert batch.messages == sum(result.messages for result in immediate)

    def test_branch_host_failure_fails_only_that_operation(self):
        structure = _ForkingStructure()

        def kill_right_tail(report):
            if report.index == 0:
                structure.network.fail_host(4)

        executor = BatchExecutor(structure, on_round=kill_right_tail)
        result = executor.run([Operation("range", None), Operation("search", None)])
        range_outcome, search_outcome = result.outcomes
        assert not range_outcome.ok
        assert isinstance(range_outcome.error, HostFailedError)
        # The concurrent search never touches host 4 and is undisturbed.
        assert search_outcome.ok
        assert search_outcome.value[0] == "L1"

    def test_retry_after_concurrent_update_restarts_all_subwalks(self):
        structure = _ForkingStructure(fail_first_attempts=1)
        result = BatchExecutor(structure).run([Operation("range", None)])
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.value[0] == ("L1", "L2", "R1", "R2")
        assert outcome.retries == 1
        # The poisoned right walk failed once, and the retry re-ran the
        # *left* walk too: a fork restarts from scratch, never partially.
        assert structure.range_attempts == 2
        assert structure.left_walk_starts == 2
        # The aborted first attempt's messages stay billed to the op —
        # including the sibling walk's deliveries in flight at the abort —
        # so per-op accounting still adds up to the network-measured total.
        assert outcome.messages > 4
        assert outcome.messages == result.messages

    def test_retry_exhaustion_records_error(self):
        structure = _ForkingStructure(fail_first_attempts=100)
        result = BatchExecutor(structure, max_retries=2).run([Operation("range", None)])
        outcome = result.outcomes[0]
        assert not outcome.ok
        assert isinstance(outcome.error, StructureError)
        assert outcome.retries == 2

    def test_nested_fork_raises_type_error_under_both_drivers(self):
        """A branch that forks again is a programming error, not an outcome.

        Branches are flat walks by contract; both the immediate driver
        and the batch executor's compiled dispatch must refuse a nested
        ``Fork`` with ``TypeError`` instead of mis-billing it.
        """

        class _NestedForkStructure(_ForkingStructure):
            def _forking_branch(self, origin):
                cursor = StepCursor(origin)
                reports = yield from cursor.fork([self._walk(self.left, origin)])
                return reports

            def range_steps(self, query_range, origin_host=None):
                origin = 0 if origin_host is None else origin_host
                cursor = StepCursor(origin)
                reports = yield from cursor.fork(
                    [self._forking_branch(origin), self._walk(self.right, origin)]
                )
                return reports

        immediate = _NestedForkStructure()
        with pytest.raises(TypeError, match="nested Fork"):
            run_immediate(immediate.network, immediate.range_steps(None), 0)

        batched = _NestedForkStructure()
        with pytest.raises(TypeError, match="nested Fork"):
            BatchExecutor(batched).run([Operation("range", None)])
