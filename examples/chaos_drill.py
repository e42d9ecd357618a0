"""Chaos drill: a seeded fault plan against a self-healing skip-web.

The paper assumes messages always arrive and hosts never fail (§1.1).
This drill relaxes both, the repository way — **deterministically**: a
:class:`~repro.net.faults.FaultPlan` drops a fifth of the query
traffic, delays a slice of it, and crash-stops a host mid-batch (with
a scheduled recovery), while the executor absorbs the damage with
bounded, linearly backed-off retries.  Two runs of the same plan are
byte-identical, so the whole drill doubles as its own regression test.

Run with:  python examples/chaos_drill.py
(after ``pip install -e .``, or with ``PYTHONPATH=src`` from the repo root)
"""

import random

from repro.api import Cluster, FaultPlan
from repro.net.faults import crash, delay, drop
from repro.workloads import uniform_keys


def run_drill():
    """One seeded lossy batch over a fresh deployment; returns the evidence."""
    plan = FaultPlan(
        [
            drop(0.2, message_kind="query"),  # lose 20% of query deliveries
            delay(2, 0.1),  # park 10% of the rest for 2 rounds
            crash(at_round=4, recover_after=12),  # crash-stop one sampled host
        ],
        seed=7,
    )
    cluster = Cluster(
        structure="skipweb1d",
        items=uniform_keys(128, seed=7),
        seed=7,
        faults=plan,
        round_budget=80,  # no operation may stall forever
    )
    rng = random.Random(7)
    queries = [("search", rng.uniform(0.0, 1_000_000.0)) for _ in range(40)]
    report = cluster.batch(queries)
    log = cluster.network.message_log
    return cluster, report, (log.dropped, log.duplicated, log.delayed)


def main() -> None:
    print("== drill: 20% query loss + delays + a mid-batch crash ==")
    cluster, report, tallies = run_drill()
    dropped, duplicated, delayed = tallies
    summary = report.summary()
    print(
        f"  {summary['ops']} ops: {summary['completed']} delivered, "
        f"{summary.get('gave_up', 0)} gave up, "
        f"{summary.get('timed_out', 0)} timed out"
    )
    print(
        f"  faults injected: {dropped} drops, {duplicated} duplicates, "
        f"{delayed} delays"
    )
    retries = sum(handle.retries for handle in report)
    print(
        f"  self-healing: {retries} retries over {report.rounds} rounds "
        f"({report.messages} billed messages)"
    )
    assert dropped > 0  # the plan actually bit
    assert retries > 0  # and the executor healed around it

    print("\n== the crash-stopped host came back on schedule ==")
    failed = sorted(cluster.network.failed_hosts)
    print(f"  failed hosts after the batch: {failed or 'none — recovery fired'}")
    if failed:
        # The scheduled recovery lands on the plan's monotone clock, so
        # it fires during the *next* batch's rounds — run one.
        cluster.batch([("search", 123.0)])
        print(f"  after one more batch: {sorted(cluster.network.failed_hosts) or 'none'}")
    assert not cluster.network.failed_hosts

    print("\n== determinism: the same drill, byte for byte ==")
    _, second_report, second_tallies = run_drill()
    first = [(h.status, h.messages, h.retries) for h in report]
    second = [(h.status, h.messages, h.retries) for h in second_report]
    assert first == second
    assert tallies == second_tallies
    print(f"  two runs agree on all {len(first)} handles and every fault tally")

    print("\n== manual healing: cluster.recover_host() ==")
    from repro.net import inject_host_faults

    victim = cluster.network.alive_host_ids()[-1]
    inject_host_faults(cluster.network, [victim])
    print(f"  injected a crash-stop on host {victim}")
    event = cluster.recover_host(victim)
    print(f"  churn event: kind={event.kind!r}, host={event.host}, cost 0 messages")
    assert not cluster.network.failed_hosts


if __name__ == "__main__":
    main()
