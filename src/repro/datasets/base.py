"""Dataset container, splits, and the generator registry.

All datasets are procedural (see DESIGN.md §1 for the substitution
argument): deterministic under a seed, normalized to [0, 1] float32, and
flattened to ``(n, features)`` — the shape the fully connected models
consume.  ``image_shape`` records the original geometry for display and for
the locality adjacency strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Dataset:
    """An immutable train/test split of a classification task."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    image_shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.x_train) != len(self.y_train):
            raise ConfigurationError("train arrays disagree on length")
        if len(self.x_test) != len(self.y_test):
            raise ConfigurationError("test arrays disagree on length")
        if self.x_train.ndim != 2 or self.x_test.ndim != 2:
            raise ConfigurationError("dataset features must be flattened 2-D")

    @property
    def num_features(self) -> int:
        return self.x_train.shape[1]

    def split_validation(
        self, fraction: float = 0.15, seed: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split the training set into (x_tr, y_tr, x_val, y_val)."""
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(
                f"validation fraction must be in (0, 1): {fraction}"
            )
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.x_train))
        n_val = max(int(len(order) * fraction), 1)
        val_idx, train_idx = order[:n_val], order[n_val:]
        return (
            self.x_train[train_idx],
            self.y_train[train_idx],
            self.x_train[val_idx],
            self.y_train[val_idx],
        )

    def subset(self, n_train: int, n_test: int) -> "Dataset":
        """A class-balanced prefix subset (for fast tests/examples)."""
        return Dataset(
            name=self.name,
            x_train=self.x_train[:n_train],
            y_train=self.y_train[:n_train],
            x_test=self.x_test[:n_test],
            y_test=self.y_test[:n_test],
            num_classes=self.num_classes,
            image_shape=self.image_shape,
        )


def interleave_classes(
    images: list[np.ndarray], labels: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-sample images, flatten, and return (x, y) float32/int64.

    Generators emit samples round-robin over classes, so prefix subsets
    remain class-balanced.
    """
    x = np.stack([img.reshape(-1) for img in images]).astype(np.float32)
    y = np.asarray(labels, dtype=np.int64)
    return x, y


#: name -> (generator, image_shape)
_GENERATORS: dict[str, tuple[callable, tuple[int, ...]]] = {}
_CACHE: dict[tuple, Dataset] = {}


def register_dataset(name: str, image_shape: tuple[int, ...]):
    """Decorator: register ``fn(n_train, n_test, seed) -> Dataset``.

    ``image_shape`` is the geometry every generated sample has, so the
    feature count is known without generating anything.
    """

    def decorate(fn):
        if name in _GENERATORS:
            raise ConfigurationError(f"duplicate dataset {name!r}")
        _GENERATORS[name] = (fn, tuple(image_shape))
        return fn

    return decorate


def _registered(name: str) -> tuple[callable, tuple[int, ...]]:
    try:
        return _GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(_GENERATORS))
        raise ConfigurationError(
            f"unknown dataset {name!r}; known: {known}"
        ) from None


def dataset_features(name: str) -> int:
    """Features per sample of a registered dataset, from its metadata."""
    return int(np.prod(_registered(name)[1]))


def load(
    name: str, n_train: int | None = None, n_test: int | None = None,
    seed: int = 0,
) -> Dataset:
    """Load (and memoize) a dataset by registry name.

    ``n_train``/``n_test`` default to each generator's standard sizes.
    """
    generator, _ = _registered(name)
    key = (name, n_train, n_test, seed)
    if key not in _CACHE:
        _CACHE[key] = generator(n_train=n_train, n_test=n_test, seed=seed)
    return _CACHE[key]


def dataset_names() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))


def clear_cache() -> None:
    """Drop memoized datasets (used by tests to bound memory)."""
    _CACHE.clear()
