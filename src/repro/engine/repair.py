"""Self-repair driver: migration and repair billed round by round.

Churn (hosts joining, leaving gracefully, or crashing) is repaired by the
structures themselves through the two protocol hooks ``migrate_host`` and
``repair`` (see :mod:`repro.engine.protocol`).  Both hooks are *resumable
step generators* exactly like queries and updates: they yield
:class:`~repro.engine.steps.HopTo` / :class:`~repro.engine.steps.Visit`
effects for every record hand-off and every pointer rewrite, so repair
traffic flows through the same accounting as everything else.

:class:`RepairEngine` is the driver.  It advances a repair generator one
cross-host effect per network round using the queued delivery mode of
:meth:`repro.net.network.Network.rounds`, which makes repair cost
three-dimensional — messages, rounds, and per-host per-round congestion —
instead of a single message count.  Repair messages are tagged
:attr:`~repro.net.message.MessageKind.CONTROL` so benchmarks can separate
maintenance traffic from query/update traffic.

Convention: a repair generator *announces its coordinator host* with an
initial self-hop (``yield from cursor.hop_to(origin)``).  The driver
resolves the first effect free of charge, which anchors the generator's
position without the driver having to know the origin up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.engine.steps import HopTo, Resolution, StepGenerator, Visit
from repro.errors import ChurnError
from repro.net.message import MessageKind
from repro.net.naming import HostId
from repro.net.network import RoundReport


@dataclass(frozen=True)
class MigrationSummary:
    """What one ``migrate_host`` / ``repair`` generator accomplished.

    This is the generator's return value; the driving
    :class:`RepairEngine` wraps it with the measured traffic numbers.
    """

    kind: str
    """``"migrate"`` or ``"repair"``."""

    hosts: tuple[HostId, ...]
    """The evacuated (migrate) or crashed-and-repaired (repair) hosts."""

    records_moved: int
    """Records handed off or reconstructed on a new home host."""

    pointers_rewired: int
    """Records elsewhere whose stored pointers had to be updated."""

    hosts_touched: int
    """Distinct hosts whose stored state changed."""


@dataclass
class RepairResult:
    """One churn-repair operation with its measured traffic.

    ``round_reports`` holds every round of the repair's session.
    """

    summary: MigrationSummary
    messages: int
    rounds: int
    round_reports: list[RoundReport] = field(default_factory=list)

    @property
    def max_round_congestion(self) -> int:
        """Worst per-host per-round delivery count during the repair."""
        return max((report.max_load for report in self.round_reports), default=0)


class RepairEngine:
    """Drives a structure's churn hooks through round-based accounting.

    Parameters
    ----------
    structure:
        Any :class:`~repro.engine.protocol.DistributedStructure`; only the
        ``network``, ``migrate_host`` and ``repair`` members are used, so
        the engine can be handed to :class:`repro.net.churn.ChurnController`
        (which is deliberately ignorant of the engine layer).
    max_rounds:
        Safety bound on rounds per repair operation.
    """

    def __init__(self, structure: Any, max_rounds: int = 1_000_000) -> None:
        self.structure = structure
        self.network = structure.network
        self.max_rounds = max_rounds

    def migrate(
        self,
        host_id: HostId,
        targets: Sequence[HostId] | None = None,
        fraction: float = 1.0,
    ) -> RepairResult:
        """Hand records off ``host_id`` (graceful leave or join rebalance)."""
        return self._drive(
            self.structure.migrate_host(host_id, targets=targets, fraction=fraction)
        )

    def repair(self, host_ids: Sequence[HostId]) -> RepairResult:
        """Re-home the records orphaned by crashed ``host_ids``."""
        return self._drive(self.structure.repair(list(host_ids)))

    # ------------------------------------------------------------------ #
    # the round-based pump
    # ------------------------------------------------------------------ #
    def _drive(self, gen: StepGenerator) -> RepairResult:
        """Advance ``gen`` one cross-host effect per round until done."""
        network = self.network
        if network.in_round_mode:
            raise ChurnError(
                "repair cannot run inside an open round session; "
                "finish the batch first"
            )
        with network.rounds():
            with network.measure() as stats:
                summary = self._pump(gen)
            rounds = network.rounds_completed
            reports = network.round_reports
        return RepairResult(
            summary=summary,
            messages=stats.messages,
            rounds=rounds,
            round_reports=reports,
        )

    def _pump(self, gen: StepGenerator) -> MigrationSummary:
        network = self.network
        current: HostId | None = None
        steps = 0
        try:
            effect = next(gen)
            while True:
                if steps >= self.max_rounds:
                    raise ChurnError(f"repair exceeded {self.max_rounds} rounds")
                steps += 1
                if isinstance(effect, Visit):
                    target = effect.address.host
                elif isinstance(effect, HopTo):
                    target = effect.host
                else:  # pragma: no cover - defensive
                    raise TypeError(f"repair generator yielded a non-effect: {effect!r}")
                charged = current is not None and target != current
                if charged:
                    ticket = network.post(current, target, kind=MessageKind.CONTROL)
                    network.run_round()
                    ticket.result()  # re-raise HostFailedError, if any
                current = target
                value = network.load(effect.address) if isinstance(effect, Visit) else None
                effect = gen.send(Resolution(value=value, host=current, charged=charged))
        except StopIteration as stop:
            return stop.value
