"""The paper's contribution layer: Neuro-C models, baselines, selection.

- :mod:`repro.core.adjacency` — the four §3.2 connectivity strategies,
- :mod:`repro.core.neuroc` — Neuro-C construction + training pipeline,
- :mod:`repro.core.tnn` — the §5.2 TNN ablation (``w_j`` removed),
- :mod:`repro.core.mlp` — the conventional MLP baseline,
- :mod:`repro.core.search` — the §5.2 MLP random-search protocol,
- :mod:`repro.core.zoo` — pinned configurations and paper reference values.
"""

from repro.core.adjacency import (
    ALL_STRATEGIES,
    FIXED_STRATEGIES,
    clustered_adjacency,
    constrained_random_adjacency,
    locality_adjacency,
    make_fixed_adjacency,
    random_adjacency,
)
from repro.core.mlp import MLPConfig, TrainedMLP, build_mlp, train_mlp
from repro.core.neuroc import (
    NeuroCConfig,
    TrainedNeuroC,
    build_neuroc,
    train_neuroc,
)
from repro.core.search import (
    SearchRecord,
    best_deployable,
    evaluate_trained_mlp,
    random_mlp_configs,
    smallest_matching,
)
from repro.core.tnn import tnn_config_from, train_tnn
from repro.core.zoo import (
    BEST_DEPLOYABLE,
    NEUROC_ZOO,
    PAPER_REFERENCE,
    ZooEntry,
    zoo_entry,
)

__all__ = [
    "ALL_STRATEGIES",
    "BEST_DEPLOYABLE",
    "FIXED_STRATEGIES",
    "MLPConfig",
    "NEUROC_ZOO",
    "NeuroCConfig",
    "PAPER_REFERENCE",
    "SearchRecord",
    "TrainedMLP",
    "TrainedNeuroC",
    "ZooEntry",
    "best_deployable",
    "build_mlp",
    "build_neuroc",
    "clustered_adjacency",
    "constrained_random_adjacency",
    "evaluate_trained_mlp",
    "locality_adjacency",
    "make_fixed_adjacency",
    "random_adjacency",
    "random_mlp_configs",
    "smallest_matching",
    "tnn_config_from",
    "train_mlp",
    "train_neuroc",
    "train_tnn",
    "zoo_entry",
]
