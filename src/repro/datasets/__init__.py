"""Procedural datasets standing in for the paper's benchmarks.

Importing this package registers all four generators:

- ``digits_like``  — 8×8 digits (Figure 1's UCI *digits* stand-in)
- ``mnist_like``   — 28×28 digits (MNIST stand-in)
- ``fashion_like`` — 28×28 garment silhouettes (Fashion-MNIST stand-in)
- ``cifar5_like``  — 32×32×3 composites, 5 classes (CIFAR5 stand-in)

Load with :func:`repro.datasets.load`.
"""

from repro.datasets.base import (
    Dataset,
    clear_cache,
    dataset_features,
    dataset_names,
    load,
    register_dataset,
)
from repro.datasets import cifar5_like, digits, fashion_like, mnist_like
from repro.datasets.cifar5_like import make_cifar5_like
from repro.datasets.digits import make_digits_like
from repro.datasets.fashion_like import make_fashion_like
from repro.datasets.mnist_like import make_mnist_like

#: The three evaluation datasets of §5, in the paper's presentation order.
EVALUATION_DATASETS = ("mnist_like", "fashion_like", "cifar5_like")

__all__ = [
    "Dataset",
    "EVALUATION_DATASETS",
    "clear_cache",
    "dataset_features",
    "dataset_names",
    "load",
    "make_cifar5_like",
    "make_digits_like",
    "make_fashion_like",
    "make_mnist_like",
    "register_dataset",
]
