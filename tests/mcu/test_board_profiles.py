"""BoardProfile as the single source of hardware truth (ISSUE 9).

Profile fields, parameterized memory maps (including the RISC-V non-ARM
bases), ceiling deadline conversion, every engine tier on every board,
and Table 1 classification of all four reference profiles.
"""

import pytest

from repro.errors import ConfigurationError
from repro.mcu.board import (
    BOARD_PROFILES,
    CORTEX_M4_REFERENCE,
    CORTEX_M7_REFERENCE,
    RISCV_RV32IMC,
    STM32F072RB,
    BoardProfile,
    board_by_name,
    classify_board,
    format_board_profile_table,
)
from repro.mcu.cpu import CPU
from repro.mcu.fastpath import (
    DEFAULT_ENGINE,
    ENGINES,
    FastCPU,
    SpecializedCPU,
)

ALL_BOARDS = tuple(BOARD_PROFILES.values())
BOARD_IDS = tuple(BOARD_PROFILES)
ENGINE_CLASSES = {
    "fastpath": FastCPU, "fastpath-v2": SpecializedCPU, "interpreter": CPU,
}


class TestProfiles:
    def test_registry_covers_all_four_classes(self):
        assert set(BOARD_PROFILES) == {
            "STM32F072RB", "Kinetis-K64F", "STM32H747XI", "FE310-G002",
        }
        for name, board in BOARD_PROFILES.items():
            assert board.name == name
            assert board_by_name(name) is board

    def test_unknown_board_is_typed(self):
        with pytest.raises(ConfigurationError, match="unknown board"):
            board_by_name("ESP32")

    def test_classification_spans_table1(self):
        assert classify_board(STM32F072RB).name == "Low"
        assert classify_board(CORTEX_M4_REFERENCE).name == "Medium"
        assert classify_board(CORTEX_M7_REFERENCE).name == "Advanced"
        # No FPU/DSP puts the RISC-V part in Low despite its clock.
        assert classify_board(RISCV_RV32IMC).name == "Low"

    def test_cost_tables_are_distinct(self):
        tables = {board.costs for board in ALL_BOARDS}
        assert len(tables) == len(ALL_BOARDS)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            BoardProfile("bad", "x", 0, 128, 16)
        with pytest.raises(ConfigurationError, match="positive"):
            BoardProfile("bad", "x", 1_000_000, 128, 0)
        with pytest.raises(ConfigurationError, match="overlap"):
            BoardProfile(
                "bad", "x", 1_000_000, 128, 16,
                flash_base=0x1000_0000, ram_base=0x1000_8000,
            )

    def test_profile_table_renders_every_board(self):
        table = format_board_profile_table()
        for name in BOARD_PROFILES:
            assert name in table
        assert "Advanced" in table


class TestMemoryMaps:
    @pytest.mark.parametrize("board", ALL_BOARDS, ids=BOARD_IDS)
    def test_map_follows_the_profile(self, board):
        memory = board.make_memory()
        flash = memory.region("flash")
        ram = memory.region("ram")
        assert flash.base == board.flash_base
        assert flash.size == board.flash_kb * 1024
        assert not flash.writable
        assert ram.base == board.ram_base
        assert ram.size == board.ram_kb * 1024
        assert ram.writable

    def test_riscv_map_is_not_the_arm_map(self):
        memory = RISCV_RV32IMC.make_memory()
        assert memory.region("flash").base == 0x2000_0000
        assert memory.region("ram").base == 0x8000_0000
        # The ARM RAM base lands inside the RISC-V *flash* window —
        # a store there must fault, proving the map really moved.
        from repro.errors import MemoryMapError

        with pytest.raises(MemoryMapError):
            memory.store(0x2000_0000, 4, 1)


class TestDeadlineConversion:
    @pytest.mark.parametrize("board", ALL_BOARDS, ids=BOARD_IDS)
    def test_round_trip_is_exact(self, board):
        for cycles in (1, 2, 3, 7, 1000, 999_983, 123_456_789):
            assert board.ms_to_cycles(board.cycles_to_ms(cycles)) == cycles

    def test_half_cycle_budget_rounds_up_not_to_even(self):
        """ISSUE-9 satellite (pre-fix failing): banker's round() turns a
        2.5-cycle deadline into a 2-cycle budget — under-admitting work
        that meets the wall-clock deadline.  Ceiling gives 3."""
        board = STM32F072RB          # 8 MHz: power-of-two, exact floats
        ms = 2.5 / board.clock_hz * 1e3
        assert round(2.5) == 2       # what the old conversion produced
        assert board.ms_to_cycles(ms) == 3

    def test_budget_always_covers_the_duration(self):
        for board in ALL_BOARDS:
            for cycles in (1, 9, 1234, 99_991):
                for frac in (0.25, 0.5, 0.75):
                    ms = board.cycles_to_ms(cycles) \
                        + frac * board.cycles_to_ms(1)
                    budget = board.ms_to_cycles(ms)
                    assert board.cycles_to_ms(budget) >= ms - 1e-12, (
                        board.name, cycles, frac,
                    )


class TestEngineGating:
    """Every tier runs on every board: the engines are host-side and
    bit-identical, so a simulated capability flag selects none."""

    @staticmethod
    def _assert_hosts_every_tier(board):
        for engine in ENGINES:
            cpu = board.make_cpu(board.make_memory(), engine)
            assert type(cpu) is ENGINE_CLASSES[engine]
            assert cpu.costs == board.costs
        default = board.make_cpu(board.make_memory())
        assert type(default) is ENGINE_CLASSES[DEFAULT_ENGINE]

    def test_all_reference_boards_host_every_tier(self):
        for board in ALL_BOARDS:
            self._assert_hosts_every_tier(board)

    def test_no_multiplier_board_hosts_every_tier(self):
        self._assert_hosts_every_tier(BoardProfile(
            "ATSAMD09", "Cortex-M0+", 48_000_000, 64, 8, has_muls=False
        ))

    def test_unknown_engine_is_typed(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            STM32F072RB.make_cpu(STM32F072RB.make_memory(), "jit")

    def test_tier2_on_no_multiplier_board_is_bit_identical(
        self, trained_neuroc
    ):
        import numpy as np

        from repro.deploy.artifact import DeployedModel

        soft_mul = BoardProfile(
            "ATSAMD09", "Cortex-M0+", 48_000_000, 128, 16, has_muls=False
        )
        tier2 = DeployedModel(
            trained_neuroc.quantized, "block", board=soft_mul,
            engine="fastpath-v2",
        )
        assert tier2.engine == "fastpath-v2"
        reference = DeployedModel(
            trained_neuroc.quantized, "block", board=soft_mul,
            engine="interpreter",
        )
        x = np.random.default_rng(0).uniform(
            0, 1, (4, trained_neuroc.quantized.n_in)
        )
        fused = tier2.infer_batch(x)
        assert fused.fused
        for row in range(len(x)):
            expected = reference.infer(x[row])
            assert fused.cycles_per_inference == expected.cycles
            assert np.array_equal(fused.logits[row], expected.logits)
        assert [bytes(r.data) for r in tier2.memory.regions] == [
            bytes(r.data) for r in reference.memory.regions
        ]
        single = tier2.infer(x[0])
        assert tier2._cpu.last_engine == "fastpath-v2"
        assert single.cycles == expected.cycles
        assert np.array_equal(single.logits, reference.infer(x[0]).logits)


class TestPerBoardDeployment:
    @pytest.mark.parametrize("board", ALL_BOARDS, ids=BOARD_IDS)
    def test_deploys_and_infers_on_every_board(
        self, board, trained_neuroc, digits_small
    ):
        from repro.deploy.artifact import DeployedModel

        deployed = DeployedModel(
            trained_neuroc.quantized, "block", board=board
        )
        x = digits_small.x_test[0]
        result = deployed.infer(x)
        reference = trained_neuroc.quantized.predict(x[None, :])[0]
        assert result.label == reference
        assert result.latency_ms == pytest.approx(
            board.cycles_to_ms(result.cycles)
        )

    def test_same_model_prices_differently_per_board(self, trained_neuroc):
        from repro.deploy.artifact import analytic_model_cycles

        cycles = {
            board.name: analytic_model_cycles(
                trained_neuroc.quantized, "block", board
            )
            for board in ALL_BOARDS
        }
        assert len(set(cycles.values())) > 1, cycles
