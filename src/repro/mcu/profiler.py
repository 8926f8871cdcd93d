"""Measurement harness: run a program N times and report latency statistics.

The paper reports the average of 100 timed runs per configuration.  The
simulator is deterministic, so repeated runs return identical cycle counts;
:class:`Profiler` still exposes the same run-loop interface so measurement
code matches the paper's methodology, and it verifies the determinism claim
("execution time is entirely predictable") as a side effect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, ExecutionError
from repro.mcu.board import BoardProfile
from repro.mcu.cpu import ExecutionResult
from repro.mcu.fastpath import DEFAULT_ENGINE, SpecializedCPU, make_cpu
from repro.mcu.isa import Op, Program, Reg
from repro.mcu.memory import MemoryMap
from repro.mcu.timer import Tim2


@dataclass(frozen=True)
class LatencyReport:
    """Latency statistics over repeated runs of one program."""

    runs: int
    cycles_mean: float
    cycles_min: int
    cycles_max: int
    latency_ms: float
    instructions: int

    @property
    def deterministic(self) -> bool:
        return self.cycles_min == self.cycles_max


@dataclass(frozen=True)
class BatchLatencyReport:
    """One fused batch execution: per-request charges + host cost.

    Simulated numbers are *per request* and input-independent (every
    row of a fused batch is charged identically); ``host_seconds`` is
    the wall-clock cost of the single fused call, the quantity batch
    fusion actually amortizes.
    """

    batch: int
    cycles_per_run: int
    instructions_per_run: int
    latency_ms_per_run: float
    host_seconds: float

    @property
    def host_seconds_per_run(self) -> float:
        return self.host_seconds / self.batch


@dataclass(frozen=True)
class BlockProfile:
    """Cycles attributed to one basic block over a single execution."""

    block_id: int
    start: int                 # first instruction index (inclusive)
    end: int                   # last instruction index (inclusive)
    executions: int
    taken: int                 # conditional-branch taken count
    cycles: int

    @property
    def instructions_executed(self) -> int:
        return self.executions * (self.end - self.start + 1)


class Profiler:
    """Times program executions on a board, TIM2-style."""

    def __init__(
        self,
        board: BoardProfile,
        memory: MemoryMap,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.board = board
        self.memory = memory
        self.engine = engine
        self.cpu = make_cpu(memory, costs=board.costs, engine=engine)
        self.timer = Tim2(board.clock_hz)

    def run_once(
        self, program: Program, registers: dict[Reg, int] | None = None
    ) -> ExecutionResult:
        """Single execution with timer bracketing."""
        self.timer.start()
        result = self.cpu.run(program, registers)
        self.timer.advance(result.cycles)
        return result

    def measure(
        self,
        program: Program,
        registers: dict[Reg, int] | None = None,
        runs: int = 100,
    ) -> LatencyReport:
        """Average latency over ``runs`` executions (paper methodology)."""
        if runs < 1:
            raise ExecutionError("need at least one run")
        cycle_counts: list[int] = []
        instructions = 0
        for _ in range(runs):
            result = self.run_once(program, dict(registers or {}))
            cycle_counts.append(result.cycles)
            instructions = result.instructions
        return LatencyReport(
            runs=runs,
            cycles_mean=sum(cycle_counts) / runs,
            cycles_min=min(cycle_counts),
            cycles_max=max(cycle_counts),
            latency_ms=self.board.cycles_to_ms(
                round(sum(cycle_counts) / runs)
            ),
            instructions=instructions,
        )

    def measure_fused(
        self, program: Program, batch: int = 32
    ) -> BatchLatencyReport:
        """Run a ``batch``-row fused execution on the tier-2 engine.

        Requires ``engine="fastpath-v2"`` and a program the specializer
        accepts.  Leaves memory and traffic counters exactly as
        ``batch`` sequential runs would (the last row's RAM is
        committed), so fused measurement composes with the rest of the
        harness.
        """
        if batch < 1:
            raise ExecutionError("need at least one batch row")
        if not isinstance(self.cpu, SpecializedCPU):
            raise ConfigurationError(
                "fused batch measurement requires engine='fastpath-v2' "
                f"(profiler was built with engine={self.engine!r})"
            )
        specialized = self.cpu.specialization(program)
        if specialized is None:
            raise ConfigurationError(
                f"program {program.name!r} was declined by the "
                "specializer; no fused measurement is available"
            )
        from repro.mcu.fastpath_v2 import (
            charge_batch_traffic,
            commit_batch_row,
            make_batch_state,
        )

        mats = make_batch_state(self.memory, batch)
        began = time.perf_counter()
        specialized.fn(mats)
        host_seconds = time.perf_counter() - began
        charge_batch_traffic(self.memory, specialized, batch)
        commit_batch_row(self.memory, mats, batch - 1)
        self.timer.start()
        self.timer.advance(specialized.cycles)
        return BatchLatencyReport(
            batch=batch,
            cycles_per_run=specialized.cycles,
            instructions_per_run=specialized.instructions,
            latency_ms_per_run=self.timer.elapsed_ms(),
            host_seconds=host_seconds,
        )

    def profile_blocks(
        self, program: Program
    ) -> tuple[ExecutionResult, tuple[BlockProfile, ...]]:
        """Run once and attribute the cycle total to each basic block.

        Works on every engine.  The run gives the result; the counts
        come from the verifier's abstract trace, which covers every run
        of a program with input-independent control flow (§4.1), so
        the per-block cycle totals sum exactly to ``result.cycles``.
        A program whose trace fails (e.g. data-dependent control flow)
        has no single path and raises :class:`ConfigurationError`.
        """
        # Imported here: repro.analysis imports the mcu package back.
        from repro.analysis.absexec import abstract_execute
        from repro.analysis.cfg import build_cfg

        result = self.run_once(program)
        costs = self.board.costs
        trace = abstract_execute(program, self.memory, costs)
        if trace.failure is not None:
            raise ConfigurationError(
                f"program {program.name!r} has no per-block attribution: "
                f"{trace.failure}"
            )
        counts = trace.instruction_counts
        instrs = program.instructions
        profiles = []
        for block in build_cfg(program).blocks:
            runs = counts[block.start]
            last = instrs[block.end].op
            stats = trace.branches.get(block.end)
            taken = stats.taken if stats is not None else 0
            body = sum(
                costs.cost_of(instrs[i].op)
                for i in range(block.start, block.end)
            )
            profiles.append(BlockProfile(
                block_id=block.id,
                start=block.start,
                end=block.end,
                executions=runs,
                taken=0 if last is Op.B else taken,
                cycles=runs * body
                + (runs - taken) * costs.cost_of(last)
                + taken * costs.cost_of(last, taken=True),
            ))
        return result, tuple(profiles)
