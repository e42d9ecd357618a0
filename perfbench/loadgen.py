"""Targets the load generator drives, and the closed loop that drives them.

A target turns one generated operation into one call on the program:
``prepare`` builds the call's arguments (untimed), ``run`` makes the call
(timed, as the caller sees it) and ``settle`` reads the result, checks it
against the oracle and returns an :class:`Outcome` (untimed).

* :class:`ClusterTarget` calls an in-process :class:`repro.api.Cluster`.
* :class:`ServerTarget` sends HTTP requests over one ``http.client``
  connection to a :class:`ServerProcess` it started; it reconnects only
  when the server closed the connection, and counts the connections.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from oracles import WrongAnswer

HERE = Path(__file__).resolve().parent
READ_KINDS = frozenset({"get", "range", "nearest"})
WRITE_KINDS = frozenset({"insert", "delete"})


class Outcome:
    """The exact facts of one call: per-operation rows plus congestion."""

    __slots__ = ("rows", "rounds", "congestion", "failed")

    def __init__(self) -> None:
        #: One ``(status, messages, rounds, retries, cost)`` row per data op.
        self.rows: list[tuple] = []
        #: Network rounds the call's executor batch (or repair) ran.
        self.rounds = 0
        #: Worst per-host per-round delivery count, when observable.
        self.congestion: int | None = None
        self.failed = 0

    def add_handle(self, handle: Any) -> None:
        self.rows.append(
            (handle.status, handle.messages, handle.rounds, handle.retries, handle.latency)
        )
        if handle.status != "ok":
            self.failed += 1


def _field(value: Any, name: str) -> Any:
    return value[name] if isinstance(value, dict) else getattr(value, name)


def normalize(family: str, kind: str, value: Any) -> Any:
    """The answer of one operation in the form the oracles compare."""
    if kind == "range":
        matches = _field(value, "matches")
        return sorted(tuple(m) if isinstance(m, list) else m for m in matches)
    answer = _field(value, "answer")
    if family == "skipquadtree":
        cell = answer.cell
        return (cell.lower, cell.side, tuple(answer.cell_points), answer.nearest_in_cell)
    if family == "skiptrie":
        return (answer.matched_prefix, answer.exact, tuple(answer.completions))
    return (_field(answer, "nearest"), _field(answer, "exact"))


# ---------------------------------------------------------------------- #
# in-process
# ---------------------------------------------------------------------- #
class ClusterTarget:
    """Single operations, churn verbs and batches on in-process clusters."""

    def __init__(self, clusters: dict[str, Any], oracles: dict[str, Any]) -> None:
        self.clusters = clusters
        self.oracles = oracles
        self.default = next(iter(clusters))
        #: Processes that serve the calls (none: they run in this one).
        self.followers: tuple[int, ...] = ()

    def prepare(self, op: tuple) -> tuple:
        from repro.core.ranges import Interval
        from repro.spatial.geometry import Box
        from repro.strings.skip_trie import PrefixRange

        kind = op[0]
        if kind == "batch":
            family, native = op[1], []
            for sub_kind, payload in op[2]:
                if family == "skipquadtree":
                    payload = Box(tuple(payload[0]), tuple(payload[1])) if sub_kind == "range" else tuple(payload)
                elif sub_kind == "range":
                    payload = PrefixRange(payload)
                native.append((sub_kind, payload))
            return (self.clusters[family].batch, native)
        cluster = self.clusters[self.default]
        if kind == "churn":
            return (getattr(cluster, f"{op[1]}_host"),)
        if kind == "range":
            return (cluster.range, Interval(*op[1]))
        return (getattr(cluster, kind), op[1])

    def run(self, prepared: tuple, request: int) -> Any:
        return prepared[0](*prepared[1:])

    def settle(self, op: tuple, raw: Any) -> Outcome:
        kind = op[0]
        outcome = Outcome()
        if kind == "churn":
            outcome.rounds = raw.repair_rounds
            return outcome
        if kind == "batch":
            family = op[1]
            oracle = self.oracles[family]
            for sub_op, handle in zip(op[2], raw):
                outcome.add_handle(handle)
                if handle.status == "ok":
                    oracle.check(sub_op, normalize(family, sub_op[0], handle.value))
            outcome.rounds = raw.rounds
            outcome.congestion = raw.max_round_congestion
            return outcome
        outcome.add_handle(raw)
        if raw.status == "ok":
            answer = normalize(self.default, kind, raw.value) if kind in READ_KINDS else None
            self.oracles[self.default].check(op, answer)
        report = self.clusters[self.default].round_congestion()
        outcome.rounds = report.rounds
        outcome.congestion = report.max_host_round_load
        return outcome

    def message_counts(self) -> dict[str, int]:
        """Lifetime message-log counters summed over the target's clusters."""
        totals: dict[str, int] = {}
        for cluster in self.clusters.values():
            log = cluster.network.message_log
            counts = {kind.value: count for kind, count in log.counts_by_kind().items()}
            counts.update(dropped=log.dropped, duplicated=log.duplicated, delayed=log.delayed)
            for name, count in counts.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def close(self) -> None:
        for cluster in self.clusters.values():
            cluster.close()


# ---------------------------------------------------------------------- #
# over HTTP
# ---------------------------------------------------------------------- #
class ServerProcess:
    """``serve.py`` in a child process; always stopped by :meth:`stop`."""

    def __init__(self, run_dir: Path, tag: str, traced: bool) -> None:
        self.ready_file = run_dir / f"{tag}.ready"
        self.result_file = run_dir / f"{tag}.result.json"
        self.log_file = run_dir / f"{tag}.log"
        command = [
            sys.executable, str(HERE / "serve.py"),
            "--ready-file", str(self.ready_file),
            "--result-file", str(self.result_file),
        ]
        if traced:
            command.append("--trace")
        with open(self.log_file, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL
            )
        self.address: tuple[str, int] | None = None
        self.result: dict[str, Any] | None = None

    def wait_ready(self, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_file.read_text()}")
            if self.ready_file.exists():
                host, port = self.ready_file.read_text().strip().rsplit(":", 1)
                self.address = (host, int(port))
                return self.address
            time.sleep(0.005)
        raise RuntimeError(f"server not ready after {timeout:.0f}s")

    def stop(self) -> dict[str, Any] | None:
        """Ask the server to exit, wait for it, and read what it wrote."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.result is None and self.result_file.exists():
            self.result = json.loads(self.result_file.read_text())
        return self.result


def http_json(address: tuple[str, int], method: str, path: str, body: Any = None) -> tuple[int, Any]:
    """One request on a fresh connection (set-up and bookkeeping calls)."""
    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        data = json.dumps(body).encode() if body is not None else None
        connection.request(method, path, body=data, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class ServerTarget:
    """The served cluster's single-operation endpoints, one connection."""

    def __init__(self, server: ServerProcess, cluster: str, oracle: Any, family: str) -> None:
        self.server = server
        self.cluster = cluster
        self.oracle = oracle
        self.family = family
        assert server.address is not None
        self.connection = http.client.HTTPConnection(*server.address, timeout=60)
        #: Connections opened, and the caller latency of every request by id.
        self.connects = 0
        self.latency_by_request: dict[int, float] = {}
        self.followers = (server.process.pid,)

    def prepare(self, op: tuple) -> tuple:
        body = json.dumps({"cluster": self.cluster, "payload": op[1]}).encode()
        return (f"/ops/{op[0]}", body)

    def run(self, prepared: tuple, request: int) -> Any:
        connection = self.connection
        if connection.sock is None:
            self.connects += 1
        try:
            connection.request(
                "POST", prepared[0], body=prepared[1],
                headers={"Content-Type": "application/json", "X-Request-Id": str(request)},
            )
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            return None

    def settle(self, op: tuple, raw: Any) -> Outcome:
        outcome = Outcome()
        if raw is None:
            outcome.rows.append(("transport_error", 0, 0, 0, 0))
            outcome.failed = 1
            return outcome
        answer = json.loads(raw[1])
        status = answer.get("status")
        outcome.rows.append(
            (status, answer["messages"], answer["rounds"], answer["retries"], answer["latency"])
        )
        outcome.rounds = answer["rounds"]
        if status != "ok":
            outcome.failed = 1
            return outcome
        self.oracle.check(op, normalize(self.family, op[0], answer["value"]))
        return outcome

    def message_counts(self) -> dict[str, int]:
        assert self.server.address is not None
        code, body = http_json(self.server.address, "GET", f"/clusters/{self.cluster}")
        if code != 200:
            raise RuntimeError(f"cluster description failed: HTTP {code} {body}")
        return dict(body["stats"]["messages_by_kind"])

    def close(self) -> None:
        self.connection.close()


# ---------------------------------------------------------------------- #
# CPU placement
# ---------------------------------------------------------------------- #
#: Seconds each CPU phase of :class:`CpuRotation` lasts.
ROTATION_PERIOD = 1.0


def host_cpus() -> list[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(pid: int, cpus: set[int]) -> None:
    """Pin every thread of process ``pid`` (0: this one) to ``cpus``."""
    if pid == 0:
        os.sched_setaffinity(0, cpus)
        return
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread ended meanwhile
            pass


class CpuRotation:
    """Moves the caller, and the processes serving it, through every CPU.

    The CPUs of a shared host run at different speeds, depending on what
    other tenants run beside them, and a single-threaded run stays on the
    CPU it landed on, so whole runs came out fast or slow.  Visiting every
    CPU on a fixed clock makes each run sample all of them; latencies are
    grouped by CPU and the groups averaged.  ``followers`` (the server of
    ``serve-read``) share the caller's CPU, so a request passes between
    client and server threads on one CPU; left to the scheduler, the
    served throughput drifted more than twice as much within a run
    (see NOTES.md, *CPU placement*).
    """

    def __init__(self, followers: tuple[int, ...] = ()) -> None:
        self.cpus = host_cpus()
        self.followers = followers
        self.cpu = -1
        self.active = len(self.cpus) > 1

    def place(self, cpu: int | None = None) -> int:
        """Pin to ``cpu`` (default: the current phase's); returns it, or -1."""
        if not self.active:
            return -1
        if cpu is None:
            cpu = self.cpus[int(time.monotonic() / ROTATION_PERIOD) % len(self.cpus)]
        if cpu != self.cpu:
            for pid in (0, *self.followers):
                pin(pid, {cpu})
            self.cpu = cpu
        return cpu

    def release(self) -> None:
        if self.cpu != -1:
            for pid in (0, *self.followers):
                pin(pid, set(self.cpus))
            self.cpu = -1


# ---------------------------------------------------------------------- #
# the closed loop
# ---------------------------------------------------------------------- #
class Recorder:
    """Caller-observed latencies, plus exact facts over a fixed window.

    The window is the first ``window`` calls of the run: its counts depend
    only on the seed, never on how many calls fit into the run.
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self.latency: dict[str, list[float]] = {"read": [], "write": [], "churn": [], "batch": []}
        #: Read latencies per (CPU, structure family); a batch runs on one family.
        self.read_groups: dict[tuple[int, str], list[float]] = {}
        #: Operations and summed call time per CPU.
        self.by_cpu: dict[int, list[float]] = {}
        self.calls = 0
        self.ops = 0
        self.data_ops = 0
        self.failed = 0
        self.busy = 0.0
        self.window_busy = 0.0
        self.rows: list[tuple] = []
        self.window_rounds = 0
        self.congestion: int | None = None
        self.kind_counts: dict[str, int] = {}
        #: This process's peak RSS when the window ended: set-up plus a
        #: fixed number of calls, whatever the run's length.
        self.window_peak_rss_mb = 0.0

    def add(self, op: tuple, outcome: Outcome, elapsed: float, cpu: int = -1) -> None:
        kind = op[0]
        self.busy += elapsed
        ops = len(outcome.rows) if kind == "batch" else 1
        totals = self.by_cpu.setdefault(cpu, [0, 0.0])
        totals[0] += ops
        totals[1] += elapsed
        if kind == "batch":
            self.latency["batch"].append(elapsed)
            self.latency["read"].append(elapsed)
            self.read_groups.setdefault((cpu, op[1]), []).append(elapsed)
            for sub_kind, _ in op[2]:
                self.kind_counts[sub_kind] = self.kind_counts.get(sub_kind, 0) + 1
        else:
            group = "read" if kind in READ_KINDS else "write" if kind in WRITE_KINDS else "churn"
            self.latency[group].append(elapsed)
            if group == "read":
                self.read_groups.setdefault((cpu, ""), []).append(elapsed)
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.ops += ops
        self.data_ops += len(outcome.rows)
        self.failed += outcome.failed
        if self.calls < self.window:
            self.window_busy += elapsed
            self.rows.extend(outcome.rows)
            if outcome.rows:
                self.window_rounds += outcome.rounds
            if outcome.congestion is not None:
                self.congestion = max(self.congestion or 0, outcome.congestion)
        self.calls += 1

    @property
    def reads(self) -> int:
        """Read samples of the (CPU, family) group with the fewest."""
        return min((len(v) for v in self.read_groups.values()), default=0)

    def read_percentile(self, pct: float) -> float:
        """Seconds: the mean over (CPU, family) groups of each group's percentile.

        Batches on different families, and calls on CPUs of different
        speed, take different times; pooling them would put the median
        between modes, where it jumps run to run.
        """
        values = [percentile(samples, pct) for samples in self.read_groups.values()]
        return sum(values) / len(values)

    def throughput(self) -> float:
        """Operations per second of call time: the mean over CPUs."""
        rates = [ops / busy for ops, busy in self.by_cpu.values() if busy > 0]
        return sum(rates) / len(rates)

    def exact(self) -> dict[str, Any]:
        """The seed-determined counts of the window, and a digest of its rows."""
        rows = self.rows
        count = max(len(rows), 1)
        return {
            "ops": len(rows),
            "msgs_per_op": sum(row[1] for row in rows) / count,
            "rounds_per_op": sum(row[2] for row in rows) / count,
            "retries_per_op": sum(row[3] for row in rows) / count,
            "link_cost_per_op": sum(row[4] for row in rows) / count,
            "ops_per_round": len(rows) / max(self.window_rounds, 1),
            "max_round_congestion": self.congestion,
            "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        }


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: A run never measures longer than this, whatever the window asks for.
HARD_STOP_SECONDS = 120.0


def drive(
    target: Any,
    stream: Iterator[tuple],
    seconds: float,
    window: int,
    min_reads: int,
    tracer: Any = None,
    stride: int = 1,
) -> Recorder:
    """Closed loop: one caller, the next call only after the last returned.

    Runs for ``seconds`` and at least ``window`` calls and ``min_reads``
    read samples, and stops only after a whole number of ``stride``
    calls, so every run holds whole blocks of the operation mix (and, for
    a journaled workload, whole snapshot periods).  The caller, with the
    target's ``followers``, takes turns on the CPUs (:class:`CpuRotation`).
    Raises :class:`WrongAnswer` on the first wrong answer.
    """
    recorder = Recorder(window)
    rotation = CpuRotation(target.followers)
    started = perf_counter()
    deadline = started + seconds
    index = 0
    try:
        while True:
            now = perf_counter()
            if now - started > HARD_STOP_SECONDS:
                break
            if index >= window and now >= deadline and recorder.reads >= min_reads and index % stride == 0:
                break
            op = next(stream)
            prepared = target.prepare(op)
            if tracer is not None:
                tracer.set_request(index)
            cpu = rotation.place()
            begun = perf_counter()
            raw = target.run(prepared, index)
            elapsed = perf_counter() - begun
            if isinstance(target, ServerTarget):
                target.latency_by_request[index] = elapsed
            try:
                outcome = target.settle(op, raw)
            except WrongAnswer as error:
                raise WrongAnswer(f"operation #{index} {error}") from None
            recorder.add(op, outcome, elapsed, cpu)
            index += 1
            if index == window:
                recorder.window_peak_rss_mb = peak_rss_mb()
    finally:
        rotation.release()
    return recorder


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

