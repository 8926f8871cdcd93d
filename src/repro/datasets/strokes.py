"""Stroke-based digit rendering for the procedural image datasets.

Digits are described as polylines in the unit square and rasterized with a
Gaussian pen.  Per-sample variation comes from a random affine transform
(rotation, anisotropic scale, shear, translation) plus a smooth sinusoidal
warp — a cheap stand-in for the elastic distortions of handwriting — and
additive pixel noise applied by the dataset generators.

This module is deliberately free of class logic: it renders whatever
polylines it is given.  Digit templates live in :data:`DIGIT_TEMPLATES`.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ConfigurationError

Polyline = list[tuple[float, float]]


def _ellipse(
    cx: float, cy: float, rx: float, ry: float, points: int = 14
) -> Polyline:
    angles = np.linspace(0.0, 2.0 * np.pi, points)
    return [
        (cx + rx * float(np.cos(a)), cy + ry * float(np.sin(a)))
        for a in angles
    ]


#: Hand-crafted polyline skeletons for the digits 0-9 (unit square, y down).
DIGIT_TEMPLATES: dict[int, list[Polyline]] = {
    0: [_ellipse(0.5, 0.5, 0.22, 0.36)],
    1: [[(0.35, 0.28), (0.52, 0.12)], [(0.52, 0.12), (0.52, 0.88)]],
    2: [
        [
            (0.28, 0.3), (0.36, 0.14), (0.6, 0.12), (0.72, 0.28),
            (0.62, 0.5), (0.32, 0.72), (0.26, 0.87),
        ],
        [(0.26, 0.87), (0.74, 0.87)],
    ],
    3: [
        [(0.3, 0.16), (0.58, 0.12), (0.7, 0.28), (0.52, 0.46)],
        [(0.52, 0.46), (0.72, 0.6), (0.64, 0.83), (0.3, 0.87)],
    ],
    4: [
        [(0.66, 0.88), (0.66, 0.12)],
        [(0.66, 0.12), (0.26, 0.62), (0.8, 0.62)],
    ],
    5: [
        [
            (0.72, 0.13), (0.32, 0.13), (0.3, 0.46), (0.56, 0.42),
            (0.72, 0.58), (0.62, 0.84), (0.28, 0.85),
        ]
    ],
    6: [
        [
            (0.64, 0.13), (0.38, 0.32), (0.28, 0.62), (0.42, 0.86),
            (0.64, 0.78), (0.62, 0.54), (0.32, 0.56),
        ]
    ],
    7: [[(0.26, 0.13), (0.74, 0.13), (0.44, 0.88)]],
    8: [
        _ellipse(0.5, 0.3, 0.17, 0.17, points=12),
        _ellipse(0.5, 0.68, 0.2, 0.2, points=12),
    ],
    9: [
        _ellipse(0.52, 0.32, 0.18, 0.2, points=12),
        [(0.7, 0.38), (0.6, 0.88)],
    ],
}


def sample_polyline(polyline: Polyline, spacing: float) -> np.ndarray:
    """Resample a polyline into points at most ``spacing`` apart.

    Returns an array of shape (n, 2) in unit-square coordinates.
    """
    if len(polyline) < 2:
        raise ConfigurationError("a polyline needs at least two vertices")
    points: list[np.ndarray] = []
    vertices = np.asarray(polyline, dtype=np.float64)
    for a, b in zip(vertices, vertices[1:]):
        length = float(np.hypot(*(b - a)))
        n = max(int(np.ceil(length / spacing)), 1)
        t = np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
        points.append(a + t * (b - a))
    points.append(vertices[-1:])
    return np.concatenate(points)


def affine_matrix(
    rotation: float = 0.0,
    scale_x: float = 1.0,
    scale_y: float = 1.0,
    shear: float = 0.0,
) -> np.ndarray:
    """2×2 linear part of an affine transform about the square's center."""
    c, s = np.cos(rotation), np.sin(rotation)
    rotate = np.array([[c, -s], [s, c]])
    shear_m = np.array([[1.0, shear], [0.0, 1.0]])
    scale = np.diag([scale_x, scale_y])
    return rotate @ shear_m @ scale


def transform_points(
    points: np.ndarray,
    matrix: np.ndarray,
    translate: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Apply the linear ``matrix`` about (0.5, 0.5), then translate."""
    center = np.array([0.5, 0.5])
    return (points - center) @ matrix.T + center + np.asarray(translate)


def sinusoidal_warp(
    points: np.ndarray, amplitude: float, phase: tuple[float, float]
) -> np.ndarray:
    """Smooth non-rigid wobble: each axis shifted by a sine of the other."""
    x, y = points[:, 0], points[:, 1]
    warped = points.copy()
    warped[:, 0] = x + amplitude * np.sin(2.0 * np.pi * y + phase[0])
    warped[:, 1] = y + amplitude * np.sin(2.0 * np.pi * x + phase[1])
    return warped


def rasterize_points(
    points: np.ndarray, size: int, pen_sigma: float
) -> np.ndarray:
    """Render unit-square points as a Gaussian-pen image of ``size``².

    Uses a max-composite so stroke crossings do not bloom brighter than the
    pen itself.  Returns float32 in [0, 1].

    ``exp``, negation and division by the positive ``2σ²`` are all
    monotone, so the brightest point at a pixel is its nearest one:
    ``max_p exp(-d²_p / 2σ²) == exp(-min_p d²_p / 2σ²)`` bit for bit.
    Squared distances come from two separable ``(size, n_points)``
    tables, and ``exp`` runs once per pixel.
    """
    if size < 2:
        raise ConfigurationError(f"image size must be >= 2, got {size}")
    grid = (np.arange(size) + 0.5) / size
    dx = grid[:, None] - points[None, :, 0]  # (columns, n_points)
    dy = grid[:, None] - points[None, :, 1]  # (rows, n_points), y down
    # (rows, columns, n_points), summed in the order dx² + dy².
    d2 = (dx * dx)[None, :, :] + (dy * dy)[:, None, :]
    image = np.exp(-d2.min(axis=2) / (2.0 * pen_sigma**2))
    return image.astype(np.float32)


#: Alternative handwriting styles for digits that humans write multiple
#: ways.  Style diversity is what forces model capacity: each extra mode
#: per class adds decision-boundary structure small models cannot fit.
DIGIT_STYLE_VARIANTS: dict[int, list[list[Polyline]]] = {
    1: [[[(0.5, 0.1), (0.5, 0.9)]]],                       # no flag
    4: [[  # open-top four
        [(0.36, 0.12), (0.3, 0.55), (0.78, 0.55)],
        [(0.62, 0.3), (0.6, 0.9)],
    ]],
    7: [[  # crossed seven
        [(0.26, 0.14), (0.74, 0.14), (0.46, 0.88)],
        [(0.34, 0.5), (0.66, 0.5)],
    ]],
    9: [[  # straight-tailed nine
        _ellipse(0.5, 0.3, 0.19, 0.19, points=12),
        [(0.69, 0.33), (0.69, 0.9)],
    ]],
    2: [[  # flat-bottomed two with loop
        [
            (0.3, 0.28), (0.4, 0.13), (0.64, 0.13), (0.7, 0.32),
            (0.52, 0.55), (0.3, 0.75), (0.3, 0.88), (0.74, 0.88),
        ],
    ]],
}


def _styles(digit: int) -> list[list[Polyline]]:
    return [DIGIT_TEMPLATES[digit], *DIGIT_STYLE_VARIANTS.get(digit, [])]


@functools.lru_cache(maxsize=128)
def _template_points(digit: int, variant: int, size: int) -> np.ndarray:
    """Pen-path points of one digit style, sampled for ``size``.

    Memoized, so the array is shared by every caller and read-only.
    """
    points = np.concatenate([
        sample_polyline(polyline, spacing=0.35 / size)
        for polyline in _styles(digit)[variant]
    ])
    points.flags.writeable = False
    return points


def _random_distractor(rng: np.random.Generator) -> Polyline:
    """A short stray stroke (smudge / pen skip) anywhere in the image."""
    x0, y0 = rng.uniform(0.1, 0.9, size=2)
    angle = rng.uniform(0, 2 * np.pi)
    length = rng.uniform(0.08, 0.2)
    return [
        (float(x0), float(y0)),
        (float(x0 + length * np.cos(angle)),
         float(y0 + length * np.sin(angle))),
    ]


def render_digit(
    digit: int,
    size: int,
    rng: np.random.Generator,
    pen_sigma: float | None = None,
    jitter: float = 1.0,
    stroke_dropout: float = 0.0,
    distractor_prob: float = 0.0,
) -> np.ndarray:
    """One randomized rendering of ``digit`` as a ``size``×``size`` image.

    ``jitter`` scales all geometric variation; 0 renders the bare template.
    ``stroke_dropout`` is the probability of erasing a contiguous chunk of
    the pen path (a pen skip); ``distractor_prob`` adds a stray stroke.
    """
    if digit not in DIGIT_TEMPLATES:
        raise ConfigurationError(f"no template for digit {digit!r}")
    pen_sigma = pen_sigma if pen_sigma is not None else 0.9 / size

    matrix = affine_matrix(
        rotation=rng.uniform(-0.2, 0.2) * jitter,
        scale_x=1.0 + rng.uniform(-0.15, 0.15) * jitter,
        scale_y=1.0 + rng.uniform(-0.15, 0.15) * jitter,
        shear=rng.uniform(-0.15, 0.15) * jitter,
    )
    translate = (
        rng.uniform(-0.06, 0.06) * jitter,
        rng.uniform(-0.06, 0.06) * jitter,
    )
    phase = (rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
    amplitude = rng.uniform(0.0, 0.02) * jitter

    variant = int(rng.integers(0, len(_styles(digit))))
    points = _template_points(digit, variant, size)
    if stroke_dropout > 0.0 and rng.random() < stroke_dropout:
        # Erase a contiguous 10-20 % of the pen path.
        n = len(points)
        gap = max(1, int(n * rng.uniform(0.1, 0.2)))
        start = int(rng.integers(0, max(n - gap, 1)))
        keep = np.ones(n, dtype=bool)
        keep[start : start + gap] = False
        if keep.any():
            points = points[keep]
    points = transform_points(points, matrix, translate)
    points = sinusoidal_warp(points, amplitude, phase)
    if distractor_prob > 0.0 and rng.random() < distractor_prob:
        stray = sample_polyline(_random_distractor(rng), spacing=0.35 / size)
        points = np.concatenate([points, stray])
    return rasterize_points(points, size, pen_sigma)
