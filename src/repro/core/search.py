"""Random search over MLP configurations (the §5.2 baseline protocol).

The paper: "we perform an extensive random search over more than 50 MLP
configurations by varying the numbers of layers, dropout rates, and
whether batch normalization is employed."  :func:`random_mlp_configs`
samples that space deterministically from a seed, and
:func:`evaluate_trained_mlp` attaches deployment metrics (latency,
program memory, deployability) to each trained configuration, yielding
the point cloud of Figures 6a/6b and the pairing pool for Figures 6c/6d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mlp import MLPConfig, TrainedMLP
from repro.deploy.artifact import analytic_model_latency_ms
from repro.deploy.size import model_program_memory
from repro.errors import ConfigurationError
from repro.mcu.board import BoardProfile, STM32F072RB

#: The random-search space of §5.2.
WIDTH_CHOICES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
DEPTH_CHOICES = (1, 1, 2, 2, 3)        # shallow nets more likely
DROPOUT_CHOICES = (0.0, 0.0, 0.1, 0.2, 0.3)
BATCH_NORM_CHOICES = (False, True)


def random_mlp_configs(
    n_in: int,
    n_out: int,
    count: int = 50,
    seed: int = 0,
) -> list[MLPConfig]:
    """Sample ``count`` distinct configurations from the search space."""
    if count < 1:
        raise ConfigurationError("need at least one configuration")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E]))
    configs: list[MLPConfig] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(configs) < count:
        attempts += 1
        if attempts > 100 * count:
            break  # space exhausted; return what we have
        depth = int(rng.choice(DEPTH_CHOICES))
        widths = tuple(
            int(rng.choice(WIDTH_CHOICES)) for _ in range(depth)
        )
        dropout = float(rng.choice(DROPOUT_CHOICES))
        batch_norm = bool(rng.choice(BATCH_NORM_CHOICES))
        key = (widths, dropout, batch_norm)
        if key in seen:
            continue
        seen.add(key)
        configs.append(
            MLPConfig(
                n_in=n_in, n_out=n_out, hidden=widths,
                dropout=dropout, batch_norm=batch_norm,
                seed=seed + len(configs),
                name=f"mlp-{len(configs)}",
            )
        )
    return configs


@dataclass(frozen=True)
class SearchRecord:
    """One trained configuration with its deployment metrics."""

    config: MLPConfig
    accuracy: float
    parameter_count: int
    program_memory_kb: float
    latency_ms: float
    deployable: bool
    trained: TrainedMLP


def evaluate_trained_mlp(
    trained: TrainedMLP, board: BoardProfile = STM32F072RB
) -> SearchRecord:
    """Attach deployment metrics to a trained MLP."""
    memory = model_program_memory(trained.quantized.specs)
    latency = analytic_model_latency_ms(trained.quantized, board=board)
    return SearchRecord(
        config=trained.config,
        accuracy=trained.quantized_accuracy,
        parameter_count=trained.parameter_count,
        program_memory_kb=memory.total_kb,
        latency_ms=latency,
        deployable=memory.fits(board),
        trained=trained,
    )


def smallest_matching(
    records: list[SearchRecord],
    target_accuracy: float,
    require_deployable: bool = True,
) -> SearchRecord | None:
    """The paper's pairing rule for Fig. 6c/6d: the *smallest* searched MLP
    whose accuracy meets the target (None if no model qualifies)."""
    candidates = [
        r for r in records
        if r.accuracy >= target_accuracy
        and (r.deployable or not require_deployable)
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda r: r.parameter_count)


def best_deployable(records: list[SearchRecord]) -> SearchRecord | None:
    """The paper's Fig. 7 selection: most accurate model that still fits."""
    deployable = [r for r in records if r.deployable]
    if not deployable:
        return None
    return max(deployable, key=lambda r: r.accuracy)
