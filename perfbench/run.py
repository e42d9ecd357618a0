"""The repository benchmark: one seeded command per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the per-layer metrics: it first runs the fixed
count window of the workload untraced, then installs the span wrappers of
``spans.py`` and runs the same inputs on an identical second deployment,
checks that every exact count matched, and derives layer self times from
the spans.  Every answer is checked against the benchmark's own oracles.

The report lines name each metric with its unit and direction; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer exits 1 and
names the workload and the operation.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``--trace 0`` sets the workload up this many times, taking turns on the
#: CPUs (two each on a 2-CPU host); more CPUs do not lengthen a run.
SETUPS = 4

#: The deployments' own seed (membership words, churn victims, geo placement,
#: fault draws).  It is the program's randomness, not workload input, so it
#: stays fixed while ``--seed`` varies the data and the operations; see NOTES.md.
DEPLOY_SEED = 0

UNITS = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "read_p50_ms": ("ms", "lower"),
    "read_tail_ms": ("ms", "lower"),
    "msgs_per_op": ("msgs", "lower"),
    "rounds_per_op": ("rounds", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    # printed where the workload exercises them; see NOTES.md
    "write_p50_ms": ("ms", "lower"),
    "write_tail_ms": ("ms", "lower"),
    "batch_p50_ms": ("ms", "lower"),
    "max_round_congestion": ("msgs", "lower"),
    "link_cost_per_op": ("cost", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "recover_s": ("s", "lower"),
}
END_TO_END = ("setup_s", "ops_per_s", "read_p50_ms", "read_tail_ms", "msgs_per_op", "rounds_per_op", "peak_rss_mb")

#: Per-layer metrics of ``--trace 1``: unit and which direction is better.
PER_LAYER = {
    "server.transport_ms_per_req": ("ms", "lower"),
    "server.conns_per_req": ("count", "lower"),
    "server.app_ms_per_req": ("ms", "lower"),
    "server.lock_wait_ms_per_req": ("ms", "lower"),
    "api.self_ms_per_op": ("ms", "lower"),
    "engine.self_ms_per_op": ("ms", "lower"),
    "engine.ops_per_round": ("ops", "higher"),
    "engine.retries_per_op": ("count", "lower"),
    "engine.repair_ms_per_event": ("ms", "lower"),
    "net.deliver_ms_per_round": ("ms", "lower"),
    "net.delivered_ratio": ("ratio", "higher"),
    "net.dropped_per_op": ("msgs", "lower"),
    "net.duplicated_per_op": ("msgs", "lower"),
    "net.delayed_per_op": ("msgs", "lower"),
    "net.msgs_query_per_op": ("msgs", "lower"),
    "net.msgs_update_per_op": ("msgs", "lower"),
    "net.msgs_repair_per_op": ("msgs", "lower"),
    "core.read_step_ms_per_op": ("ms", "lower"),
    "core.steps_per_op": ("count", "lower"),
    "core.insert_ms_per_op": ("ms", "lower"),
    "core.delete_ms_per_op": ("ms", "lower"),
    "onedim.bucket_update_ms_per_op": ("ms", "lower"),
    "storage.commit_ms_per_op": ("ms", "lower"),
    "storage.bytes_per_op": ("bytes", "lower"),
    "storage.snapshot_ms": ("ms", "lower"),
    "storage.replay_ms_per_record": ("ms", "lower"),
    "trace_overhead": ("x", "lower"),
}


# ---------------------------------------------------------------------- #
# the workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One seeded input set: how to deploy it, drive it and check it."""

    name = ""
    #: Calls in the exact-count window (also the untraced pass of --trace 1).
    window = 0
    #: A run stops after a whole number of these calls (see ``loadgen.drive``).
    stride = 1
    read_tail = 90.0
    write_tail: float | None = None

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir

    def rng(self, stream: str):
        from inputs import rng_for

        return rng_for(self.name, self.seed, stream)

    def stream(self):
        raise NotImplementedError

    def deploy(self, tag: str, traced: bool = False):
        raise NotImplementedError

    def teardown(self, target) -> None:
        target.close()

    def finish(self, target, extra: dict[str, Any]) -> None:
        """Checks and measurements after the timed phase."""

    def peak_rss(self, target, recorder) -> float:
        return recorder.window_peak_rss_mb


class ServeRead(Workload):
    """skipweb1d n=1024 behind ``repro.server``; 70% get, 30% small range."""

    name = "serve-read"
    window = 2000
    stride = 10
    read_tail = 95.0

    def ground_set(self):
        from inputs import keys_1d

        return keys_1d(1024, self.rng("keys"))

    def stream(self):
        from inputs import one_dim_stream

        return one_dim_stream(self.ground_set(), self.rng("ops"), {"get": 7, "range": 3})

    def deploy(self, tag: str, traced: bool = False):
        from loadgen import ServerProcess, ServerTarget, http_json
        from oracles import SortedKeys

        keys = self.ground_set()
        server = ServerProcess(self.run_dir, tag, traced)
        try:
            address = server.wait_ready()
            spec = {"name": "bench", "structure": "skipweb1d", "items": keys, "seed": DEPLOY_SEED}
            code, body = http_json(address, "POST", "/clusters", spec)
            if code != 201:
                raise RuntimeError(f"cluster creation failed: HTTP {code} {body}")
        except BaseException:
            server.stop()
            raise
        return ServerTarget(server, "bench", SortedKeys(keys), "skipweb1d")

    def teardown(self, target) -> None:
        target.close()
        target.server.stop()

    def peak_rss(self, target, recorder) -> float:
        return target.server.stop()["peak_rss_mb"]


class UpdateChurn(Workload):
    """Journaled skipweb1d n=1024: reads, updates and a churn verb every 24 ops."""

    name = "update-churn"
    window = 200
    write_tail = 90.0
    churn_every = 24
    #: Two blocks of 24 operations and a churn verb per snapshot.
    snapshot_every = 50
    stride = 50

    def ground_set(self):
        from inputs import keys_1d

        return keys_1d(1024, self.rng("keys"))

    def stream(self):
        from inputs import one_dim_stream

        mix = {"get": 10, "range": 2, "insert": 6, "delete": 6}
        return one_dim_stream(self.ground_set(), self.rng("ops"), mix, churn_every=self.churn_every)

    def deploy(self, tag: str, traced: bool = False):
        from loadgen import ClusterTarget
        from oracles import SortedKeys
        from repro.api import Cluster

        keys = self.ground_set()
        journal = self.run_dir / f"{tag}.sqlite"
        cluster = Cluster(
            "skipweb1d", keys, seed=DEPLOY_SEED, storage=str(journal),
            snapshot_every=self.snapshot_every,
        )
        target = ClusterTarget({"skipweb1d": cluster}, {"skipweb1d": SortedKeys(keys)})
        target.journal = journal
        return target

    def finish(self, target, extra: dict[str, Any]) -> None:
        """Recover the journal and require the live cluster's answers."""
        from loadgen import ClusterTarget, normalize
        from inputs import small_range
        from oracles import WrongAnswer
        from repro.api import Cluster

        rng = self.rng("probe")
        oracle = target.oracles["skipweb1d"]
        probe = [("get", key) for key in rng.sample(oracle.keys, 100)]
        probe += [("range", small_range(rng)) for _ in range(20)]

        def answers(probe_target) -> list:
            result = []
            for op in probe:
                handle = probe_target.run(probe_target.prepare(op), -1)
                probe_target.settle(op, handle)
                result.append((handle.status, normalize("skipweb1d", op[0], handle.value)))
            return result

        live = answers(target)
        target.close()
        gc.collect()
        started = perf_counter()
        recovered = Cluster.recover(str(target.journal))
        extra["recover_s"] = perf_counter() - started
        try:
            again = answers(ClusterTarget({"skipweb1d": recovered}, target.oracles))
        finally:
            recovered.close()
        for op, before, after in zip(probe, live, again):
            if before != after:
                raise WrongAnswer(f"recovered cluster, {op!r}: live {before!r}, recovered {after!r}")


class LossyGeoBatch(Workload):
    """skipquadtree + skiptrie n=1024, geo topology, lossy faults, 128-op batches."""

    name = "lossy-geo-batch"
    window = 20
    stride = 2
    batch_size = 128
    #: Generous enough that no operation gives up or times out.
    max_retries = 60
    round_budget = 4000

    def ground_sets(self):
        from inputs import points_2d, strings

        return points_2d(1024, self.rng("points")), strings(1024, self.rng("strings"))

    def stream(self):
        from inputs import geo_batch_stream

        points, words = self.ground_sets()
        return geo_batch_stream(points, words, self.rng("ops"), self.batch_size)

    def deploy(self, tag: str, traced: bool = False):
        from loadgen import ClusterTarget
        from oracles import BrutePoints, PrefixScan
        from repro.api import Cluster
        from repro.spatial.geometry import HyperCube

        points, words = self.ground_sets()
        options = dict(
            seed=DEPLOY_SEED, topology="geo", faults="lossy",
            round_budget=self.round_budget, max_retries=self.max_retries,
        )
        # The points are drawn from the unit square, so that is the
        # quadtree's bounding cube (see NOTES.md on the default cube).
        unit_square = HyperCube((0.0, 0.0), 1.0)
        clusters = {
            "skipquadtree": Cluster("skipquadtree", points, bounding_cube=unit_square, **options),
            "skiptrie": Cluster("skiptrie", words, **options),
        }
        oracles = {"skipquadtree": BrutePoints(points), "skiptrie": PrefixScan(words)}
        return ClusterTarget(clusters, oracles)


class BucketUpdate(Workload):
    """bucket-skipweb1d M=32 n=256: 80% get/range, 20% insert/delete."""

    name = "bucket-update"
    window = 100
    stride = 10
    write_tail = 75.0

    def ground_set(self):
        from inputs import keys_1d

        return keys_1d(256, self.rng("keys"))

    def stream(self):
        from inputs import one_dim_stream

        mix = {"get": 6, "range": 2, "insert": 1, "delete": 1}
        return one_dim_stream(self.ground_set(), self.rng("ops"), mix)

    def deploy(self, tag: str, traced: bool = False):
        from loadgen import ClusterTarget
        from oracles import SortedKeys
        from repro.api import Cluster

        keys = self.ground_set()
        cluster = Cluster("bucket-skipweb1d", keys, seed=DEPLOY_SEED, memory_size=32)
        return ClusterTarget({"bucket-skipweb1d": cluster}, {"bucket-skipweb1d": SortedKeys(keys)})


WORKLOADS: dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (ServeRead, UpdateChurn, LossyGeoBatch, BucketUpdate)
}


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def min_samples(pct: float) -> int:
    """Samples needed so that at least ten lie beyond the ``pct`` percentile."""
    return math.ceil(10 / (1 - pct / 100.0))


def cpu_label(cpu: int) -> str:
    return f"cpu{cpu}" if cpu >= 0 else "any-cpu"


def ms_per(seconds: float, count: int) -> float:
    return 1000.0 * seconds / count if count else 0.0


# ---------------------------------------------------------------------- #
# the two kinds of run
# ---------------------------------------------------------------------- #
def measure_end_to_end(workload: Workload, seconds: float) -> tuple[dict, Any, dict]:
    from loadgen import CpuRotation, drive, percentile

    # Set-ups take turns on the CPUs like the timed calls (see CpuRotation);
    # setup_s is the mean over CPUs of each CPU's median set-up time.
    # A served workload's server process inherits the CPU at its start.
    rotation = CpuRotation()
    places = rotation.cpus if rotation.active else [-1]
    setup_times: dict[int, list[float]] = {}
    target = None
    try:
        # Set-up -1 is a warm-up: a process's first set-up also pays for
        # importing the program, which later set-ups do not.
        for count in range(-1, SETUPS):
            if target is not None:
                workload.teardown(target)
                target = None
                gc.collect()
            cpu = places[count % len(places)]
            rotation.place(cpu)
            started = perf_counter()
            target = workload.deploy(f"setup{count}")
            if count >= 0:
                setup_times.setdefault(cpu, []).append(perf_counter() - started)
    finally:
        rotation.release()
    try:
        recorder = drive(
            target, workload.stream(), seconds, workload.window,
            min_samples(workload.read_tail), stride=workload.stride,
        )
        peak_rss = workload.peak_rss(target, recorder)
        extra: dict[str, Any] = {}
        workload.finish(target, extra)
    finally:
        workload.teardown(target)
    exact = recorder.exact()
    metrics = {
        "setup_s": statistics.mean(statistics.median(v) for v in setup_times.values()),
        "ops_per_s": recorder.throughput(),
        "read_p50_ms": 1000.0 * recorder.read_percentile(50),
        "read_tail_ms": 1000.0 * recorder.read_percentile(workload.read_tail),
        "msgs_per_op": exact["msgs_per_op"],
        "rounds_per_op": exact["rounds_per_op"],
        "peak_rss_mb": peak_rss,
    }
    shown = dict(metrics)
    writes = recorder.latency["write"]
    if writes:
        shown["write_p50_ms"] = 1000.0 * percentile(writes, 50)
        if workload.write_tail is not None:
            shown["write_tail_ms"] = 1000.0 * percentile(writes, workload.write_tail)
    if recorder.latency["batch"]:
        # Every read of this workload completes with its batch.
        shown["batch_p50_ms"] = metrics["read_p50_ms"]
    if exact["max_round_congestion"] is not None:
        shown["max_round_congestion"] = exact["max_round_congestion"]
    if exact["link_cost_per_op"]:
        shown["link_cost_per_op"] = exact["link_cost_per_op"]
    shown["fail_ratio"] = recorder.failed / recorder.ops
    shown.update(extra)
    notes = {
        "setup_runs": {cpu_label(cpu): [round(v, 4) for v in times] for cpu, times in setup_times.items()},
        "read_samples": {
            f"{cpu_label(cpu)}/{family or 'all'}": len(v) for (cpu, family), v in recorder.read_groups.items()
        },
        "read_tail": f"p{workload.read_tail:g}",
        "read_ladder_ms": {
            f"p{pct:g}": round(1000.0 * recorder.read_percentile(pct), 4) for pct in (90, 95, 99)
        },
        "write_samples": len(writes),
        "write_tail": f"p{workload.write_tail:g}" if workload.write_tail else None,
        "window_ops": exact["ops"],
        "window_digest": exact["digest"][:16],
    }
    return metrics, recorder, {"shown": shown, "notes": notes}


def measure_per_layer(workload: Workload, seconds: float, spans_out: Path) -> tuple[dict, Any, dict]:
    from loadgen import ServerTarget, drive
    from oracles import WrongAnswer
    from spans import Tracer, install, layer_self_times, summarize

    served = isinstance(workload, ServeRead)
    baseline = workload.deploy("untraced")
    try:
        first = drive(baseline, workload.stream(), 0.0, workload.window, 0)
    finally:
        workload.teardown(baseline)
    gc.collect()
    tracer = Tracer()
    installation = None
    target = workload.deploy("traced", traced=True)
    extra: dict[str, Any] = {}
    try:
        if not served:
            installation = install(tracer)
        before = target.message_counts()
        recorder = drive(
            target, workload.stream(), seconds, workload.window,
            min_samples(workload.read_tail), tracer, workload.stride,
        )
        after = target.message_counts()
        tracer.set_request(None)
        counters = dict(tracer.counters)
        workload.finish(target, extra)
    finally:
        if installation is not None:
            installation.remove()
        workload.teardown(target)
    if served:
        result = target.server.result or {}
        all_spans = result.get("spans", [])
        for span in all_spans:
            span["request"] = int(span["request"]) if span["request"] is not None else None
        counters = result.get("counters", {})
        # The served cluster's fault counters are lifetime totals; its
        # construction traffic is never faulted.
        before.update(dropped=0, duplicated=0, delayed=0)
        after.update(result.get("faults", {}).get(target.cluster, {}))
    else:
        all_spans = [span.as_dict() for span in tracer.spans]
    # Spans of the driven calls carry their call's index; the rest are
    # set-up, bookkeeping and recovery.
    span_dicts = [span for span in all_spans if span["request"] is not None]
    other_spans = [span for span in all_spans if span["request"] is None]
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "spans": all_spans, "counters": counters}, handle)

    exact_first, exact_traced = first.exact(), recorder.exact()
    if exact_first["digest"] != exact_traced["digest"]:
        raise WrongAnswer(
            "tracing changed an exact count: untraced window "
            f"{exact_first} vs traced window {exact_traced}"
        )

    totals = summarize(span_dicts)
    replay = summarize(other_spans)

    def busy(*names: str) -> float:
        return sum(totals.get(n, {}).get("busy", 0.0) for n in names)

    def self_of(prefix: str, suffixes: tuple[str, ...] = ("",)) -> float:
        return sum(
            entry["self"] for name, entry in totals.items()
            if name.startswith(prefix) and name.endswith(suffixes)
        )

    def calls_of(*names: str) -> int:
        return sum(totals.get(n, {}).get("count", 0) for n in names)

    kinds = recorder.kind_counts
    ops, data_ops = recorder.ops, recorder.data_ops
    reads = kinds.get("get", 0) + kinds.get("range", 0) + kinds.get("nearest", 0)
    inserts, deletes = kinds.get("insert", 0), kinds.get("delete", 0)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}
    delivered = sum(delta.get(k, 0) for k in ("query", "update", "control", "construction"))
    transport = 0.0
    if served:
        app_busy = {span["request"]: span["busy"] for span in span_dicts if span["name"] == "server.app"}
        transport = sum(
            latency - app_busy.get(request, 0.0)
            for request, latency in target.latency_by_request.items()
        )
    step_names = [name for name in totals if name.startswith("core.") and not name.endswith(".repair")]
    metrics = {
        "server.transport_ms_per_req": ms_per(transport, recorder.calls) if served else 0.0,
        "server.conns_per_req": target.connects / recorder.calls if served else 0.0,
        "server.app_ms_per_req": ms_per(self_of("server.app") + self_of("server.codec"), recorder.calls),
        "server.lock_wait_ms_per_req": ms_per(busy("server.lock_wait"), recorder.calls),
        "api.self_ms_per_op": ms_per(self_of("api."), ops),
        "engine.self_ms_per_op": ms_per(self_of("engine.run") + self_of("engine.immediate"), ops),
        "engine.ops_per_round": exact_traced["ops_per_round"],
        "engine.retries_per_op": exact_traced["retries_per_op"],
        "engine.repair_ms_per_event": ms_per(busy("engine.repair"), kinds.get("churn", 0)),
        "net.deliver_ms_per_round": ms_per(busy("net.run_round"), calls_of("net.run_round")),
        "net.delivered_ratio": delivered / (delivered + delta.get("dropped", 0)) if delivered else 0.0,
        "net.dropped_per_op": delta.get("dropped", 0) / data_ops,
        "net.duplicated_per_op": delta.get("duplicated", 0) / data_ops,
        "net.delayed_per_op": delta.get("delayed", 0) / data_ops,
        "net.msgs_query_per_op": delta.get("query", 0) / data_ops,
        "net.msgs_update_per_op": delta.get("update", 0) / data_ops,
        "net.msgs_repair_per_op": delta.get("control", 0) / data_ops,
        "core.read_step_ms_per_op": ms_per(self_of("core.", (".search", ".range")), reads),
        "core.steps_per_op": sum(totals[name]["count"] for name in step_names) / data_ops,
        "core.insert_ms_per_op": ms_per(self_of("core.", (".insert",)), inserts),
        "core.delete_ms_per_op": ms_per(self_of("core.", (".delete",)), deletes),
        "onedim.bucket_update_ms_per_op": ms_per(
            self_of("core.bucket-skipweb1d.", (".insert", ".delete")), inserts + deletes
        ),
        "storage.commit_ms_per_op": ms_per(self_of("storage.commit") + self_of("storage.append"), ops),
        "storage.bytes_per_op": counters.get("storage.bytes", 0) / ops,
        "storage.snapshot_ms": ms_per(
            busy("storage.snapshot.capture", "storage.snapshot.write"),
            calls_of("storage.snapshot.write"),
        ),
        "storage.replay_ms_per_record": ms_per(
            replay.get("storage.replay", {}).get("busy", 0.0),
            tracer.counters.get("storage.replayed", 0),
        ),
        "trace_overhead": recorder.window_busy / first.window_busy,
    }
    layers = layer_self_times(totals)
    if served:
        layers["transport"] = transport
    accounted = sum(layers.values())
    notes = {
        "caller_s": recorder.busy,
        "layer_self_s": {name: round(value, 4) for name, value in layers.items()},
        "accounted_share": accounted / recorder.busy,
        "exact_counts_match": True,
        "spans": len(span_dicts),
        "spans_file": str(spans_out.relative_to(ROOT)),
    }
    return metrics, recorder, {"notes": notes, "extra": extra}


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #
def _format(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the skip-web reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from oracles import WrongAnswer

    out_dir = ROOT / ".perfbench_runs"
    run_dir = out_dir / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            spans_out = out_dir / f"spans-{args.workload}.json"
            metrics, recorder, info = measure_per_layer(workload, args.seconds, spans_out)
            units = {name: PER_LAYER[name][0] for name in metrics}
            for name, value in metrics.items():
                unit, better = PER_LAYER[name]
                print(f"  {name:34s} {_format(value):>12s} {unit:6s} {better}-is-better")
        else:
            metrics, recorder, info = measure_end_to_end(workload, args.seconds)
            units = {name: UNITS[name][0] for name in metrics}
            for name, value in info["shown"].items():
                unit, better = UNITS[name]
                gated = "" if name in END_TO_END else "  (report only)"
                print(f"  {name:22s} {_format(value):>12s} {unit:7s} {better}-is-better{gated}")
        for name, value in info["notes"].items():
            print(f"  # {name}: {value}")
    except WrongAnswer as error:
        print(f"perfbench: wrong answer in workload {args.workload}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": recorder.ops,
        "failed": recorder.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # Exact counts of the churn path depend on string hashing order, so
    # every measured process runs with one fixed hash seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    sys.exit(main())
