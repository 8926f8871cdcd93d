"""Board profiles and the qualitative MCU classification of Table 1.

A :class:`BoardProfile` bundles everything the rest of the library needs to
know about a target: clock frequency, memory map (base addresses *and*
budgets), cycle-cost table (including the flash wait-state model via
``CycleCosts.fetch_extra``), capability flags, and how to convert cycles to
milliseconds.  It is the single source of hardware truth: the interpreter,
both fastpath translation tiers, the WCET verifier, the deployer, and the
serving/cluster layers all consume the same profile, so two boards that
differ in any of these fields are different targets everywhere at once.

The default profile is the paper's evaluation platform, an STM32F072RB
(Cortex-M0, 8 MHz, 16 KB RAM, 128 KB flash).  Three reference profiles sit
beside it for cross-class comparisons: a Cortex-M4 (Table 1 "Medium"), a
Cortex-M7 ("Advanced"), and a RISC-V RV32IMC-class part with a non-ARM
memory map (flash at ``0x2000_0000``, RAM at ``0x8000_0000``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.errors import ConfigurationError
from repro.mcu.cpu import CycleCosts
from repro.mcu.memory import MemoryMap, Region


@dataclass(frozen=True)
class BoardProfile:
    """Static description of one MCU target."""

    name: str
    core: str
    clock_hz: int
    flash_kb: int
    ram_kb: int
    costs: CycleCosts = field(default_factory=CycleCosts)
    has_fpu: bool = False
    has_dsp: bool = False
    #: Hardware multiplier (Cortex-M MULS, RISC-V "M" extension).  Part
    #: of the board's identity (artifact hashes); it selects no engine.
    has_muls: bool = True
    #: Memory-map bases.  ARM parts map flash at ``0x0800_0000`` and SRAM
    #: at ``0x2000_0000``; other cores may differ (the RISC-V profile puts
    #: its XIP flash window at ``0x2000_0000`` and RAM at ``0x8000_0000``).
    flash_base: int = 0x0800_0000
    ram_base: int = 0x2000_0000

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigurationError("clock_hz must be positive")
        if self.flash_kb <= 0 or self.ram_kb <= 0:
            raise ConfigurationError("flash/RAM budgets must be positive")
        regions = sorted(
            [
                (self.flash_base, self.flash_base + self.flash_bytes),
                (self.ram_base, self.ram_base + self.ram_bytes),
            ]
        )
        if regions[0][1] > regions[1][0]:
            raise ConfigurationError(
                f"{self.name}: flash and RAM regions overlap"
            )

    @property
    def flash_bytes(self) -> int:
        return self.flash_kb * 1024

    @property
    def ram_bytes(self) -> int:
        return self.ram_kb * 1024

    def cycles_to_ms(self, cycles: int) -> float:
        """Convert a cycle count to milliseconds at this board's clock."""
        return cycles / self.clock_hz * 1e3

    def ms_to_cycles(self, ms: float) -> int:
        """Cycle budget covering ``ms`` milliseconds — ceiling, not round.

        Deadline budgets must never under-count: ``round()`` (banker's)
        can round a final half-cycle down, and a planner or admission
        check using that budget would shed a request that meets its
        wall-clock deadline on hardware.  The small epsilon absorbs
        float error so ``ms_to_cycles(cycles_to_ms(c)) == c`` exactly.
        """
        exact = ms * self.clock_hz / 1e3
        return ceil(exact - 1e-9 - abs(exact) * 1e-12)

    # -- factories --------------------------------------------------------

    def make_memory(self) -> MemoryMap:
        """A fresh memory map with this board's layout and budgets."""
        return MemoryMap(
            [
                Region(
                    "flash", self.flash_base, self.flash_bytes,
                    writable=False,
                ),
                Region("ram", self.ram_base, self.ram_bytes, writable=True),
            ]
        )

    def make_cpu(
        self,
        memory: MemoryMap,
        engine: str | None = None,
        max_instructions: int = 200_000_000,
    ):
        """An execution engine priced with this board's cost table.

        ``engine`` is ``"fastpath-v2"`` (content-specialized, the
        default), ``"fastpath"`` (tier-1 translating engine), or
        ``"interpreter"`` (the reference :class:`~repro.mcu.cpu.CPU`); see
        :mod:`repro.mcu.fastpath` for the exactness contract.  Every
        board hosts every engine: they are host-side and bit-identical,
        so no simulated capability selects among them.
        """
        # Imported lazily: repro.analysis.report imports this module, and
        # the fastpath translator reaches back into repro.analysis.cfg.
        from repro.mcu.fastpath import DEFAULT_ENGINE, make_cpu

        return make_cpu(
            memory,
            costs=self.costs,
            max_instructions=max_instructions,
            engine=engine or DEFAULT_ENGINE,
        )


#: The paper's evaluation board: STM32F072RB at 8 MHz, -Os, bare metal.
STM32F072RB = BoardProfile(
    name="STM32F072RB",
    core="Cortex-M0",
    clock_hz=8_000_000,
    flash_kb=128,
    ram_kb=16,
    costs=CycleCosts(),  # zero wait states at 8 MHz, single-cycle multiplier
)

#: A Cortex-M4-class board, used for what-if comparisons (not in the paper's
#: main evaluation; Table 1's "Medium" class).
CORTEX_M4_REFERENCE = BoardProfile(
    name="Kinetis-K64F",
    core="Cortex-M4",
    clock_hz=120_000_000,
    flash_kb=1024,
    ram_kb=256,
    costs=CycleCosts(fetch_extra=1),  # flash wait states at high clock
    has_fpu=True,
    has_dsp=True,
)

#: A Cortex-M7-class board (Table 1's "Advanced" class): dual-issue core
#: with a write buffer (stores retire in one cycle) but a longer pipeline
#: (higher taken-branch penalty); caches hide the flash wait states.
CORTEX_M7_REFERENCE = BoardProfile(
    name="STM32H747XI",
    core="Cortex-M7",
    clock_hz=480_000_000,
    flash_kb=2048,
    ram_kb=1024,
    costs=CycleCosts(store=1, branch_taken=4),
    has_fpu=True,
    has_dsp=True,
)

#: A RISC-V RV32IMC-class board (FE310-style): "M" extension multiplier is
#: multi-cycle, short pipeline keeps the taken-branch penalty low, and the
#: XIP flash window adds a fetch wait state.  Note the non-ARM memory map.
RISCV_RV32IMC = BoardProfile(
    name="FE310-G002",
    core="RV32IMC",
    clock_hz=150_000_000,
    flash_kb=512,
    ram_kb=64,
    costs=CycleCosts(mul=5, branch_taken=2, fetch_extra=1),
    flash_base=0x2000_0000,
    ram_base=0x8000_0000,
)

#: Every reference profile, by name — the CLI's ``--board`` choices and the
#: board-matrix benchmarks iterate this.
BOARD_PROFILES: dict[str, BoardProfile] = {
    profile.name: profile
    for profile in (
        STM32F072RB,
        CORTEX_M4_REFERENCE,
        CORTEX_M7_REFERENCE,
        RISCV_RV32IMC,
    )
}


def board_by_name(name: str) -> BoardProfile:
    """Look up a reference profile; raises with the known names."""
    try:
        return BOARD_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown board {name!r}; known: {tuple(BOARD_PROFILES)}"
        ) from None


@dataclass(frozen=True)
class MCUClass:
    """One row of the paper's Table 1 (qualitative MCU resource classes)."""

    name: str
    key_features: str
    memory: str
    example: str


#: Table 1 of the paper, verbatim.
MCU_CLASSES: tuple[MCUClass, ...] = (
    MCUClass(
        name="Low",
        key_features="8/16/32-bit core, no FPU, no DSP/SIMD",
        memory="<128 KB RAM, <512 KB Flash",
        example="STMicroelectronics STM32C0/F0/L0 (Cortex-M0/M0+)",
    ),
    MCUClass(
        name="Medium",
        key_features="32-bit core, single-precision FPU, basic SIMD",
        memory="128-512 KB RAM, 512 KB-2 MB Flash",
        example="NXP Kinetis K series (Cortex-M4)",
    ),
    MCUClass(
        name="Advanced",
        key_features=(
            "32-bit core, double-precision FPU, vector SIMD, optional cache"
        ),
        memory=">512 KB RAM, >2 MB Flash",
        example="Renesas RA8D1 (Cortex-M85)",
    ),
)


def classify_board(board: BoardProfile) -> MCUClass:
    """Map a board onto Table 1's Low/Medium/Advanced classes."""
    if not board.has_fpu and not board.has_dsp:
        return MCU_CLASSES[0]
    if board.ram_kb <= 512:
        return MCU_CLASSES[1]
    return MCU_CLASSES[2]


def format_mcu_class_table() -> str:
    """Render Table 1 as aligned text (used by the Table 1 bench target)."""
    headers = ("Class", "Key features", "Memory", "Example")
    rows = [
        (c.name, c.key_features, c.memory, c.example) for c in MCU_CLASSES
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    def fmt(row: tuple[str, ...]) -> str:
        return " | ".join(cell.ljust(w) for cell, w in zip(row, widths))

    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_board_profile_table() -> str:
    """The reference profiles, one row each, with their Table 1 class."""
    headers = ("Board", "Core", "Clock", "Flash", "RAM", "Class")
    rows = []
    for profile in BOARD_PROFILES.values():
        rows.append((
            profile.name,
            profile.core,
            f"{profile.clock_hz / 1e6:g} MHz",
            f"{profile.flash_kb} KB",
            f"{profile.ram_kb} KB",
            classify_board(profile).name,
        ))
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]

    def fmt(row: tuple[str, ...]) -> str:
        return " | ".join(cell.ljust(w) for cell, w in zip(row, widths))

    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
