"""Polygon silhouettes and textured composites for the harder datasets.

``fashion_like`` uses filled garment silhouettes; ``cifar5_like`` layers a
coloured background, a foreground polygon, and texture.  Polygons are
defined in the unit square and filled with a vectorized ray-casting
point-in-polygon test — no plotting libraries involved.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

Polygon = list[tuple[float, float]]


def fill_polygon(vertices: Polygon, size: int) -> np.ndarray:
    """Binary mask of the polygon on a ``size``×``size`` grid (even-odd)."""
    if len(vertices) < 3:
        raise ConfigurationError("a polygon needs at least three vertices")
    poly = np.asarray(vertices, dtype=np.float64)
    grid = (np.arange(size) + 0.5) / size
    # One row per edge, one column per pixel row: whether the edge spans
    # the row's centre line, and where it crosses it.  Horizontal edges
    # (by == ay) never cross, so their inf/nan x_at is masked out.
    ax, ay = poly[:, 0:1], poly[:, 1:2]
    bx, by = np.roll(ax, -1, axis=0), np.roll(ay, -1, axis=0)
    crosses = (ay > grid) != (by > grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = ax + (grid - ay) / (by - ay) * (bx - ax)
    # Even-odd rule: XOR over edges of "the edge crosses left of the pixel".
    hits = crosses[:, :, None] & (grid < x_at[:, :, None])
    return np.bitwise_xor.reduce(hits, axis=0)


def transform_polygon(
    vertices: Polygon,
    rotation: float = 0.0,
    scale: float = 1.0,
    translate: tuple[float, float] = (0.0, 0.0),
) -> Polygon:
    """Rotate/scale about (0.5, 0.5) then translate."""
    c, s = np.cos(rotation), np.sin(rotation)
    matrix = np.array([[c, -s], [s, c]]) * scale
    center = np.array([0.5, 0.5])
    pts = (np.asarray(vertices) - center) @ matrix.T + center
    return [(float(x) + translate[0], float(y) + translate[1]) for x, y in pts]


def _rect(x0, y0, x1, y1) -> Polygon:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


#: Garment silhouettes, one or more polygons per class (unit square, y down).
#: Class order follows Fashion-MNIST: tshirt, trouser, pullover, dress, coat,
#: sandal, shirt, sneaker, bag, ankle boot.  Several pairs are deliberately
#: similar (tshirt/shirt, pullover/coat, sneaker/ankle-boot) so the task is
#: harder than digits, as in the real benchmark.
FASHION_TEMPLATES: dict[int, list[Polygon]] = {
    0: [  # t-shirt: torso + short sleeves
        _rect(0.32, 0.25, 0.68, 0.85),
        [(0.32, 0.25), (0.14, 0.32), (0.2, 0.45), (0.32, 0.4)],
        [(0.68, 0.25), (0.86, 0.32), (0.8, 0.45), (0.68, 0.4)],
    ],
    1: [  # trousers: two legs
        [(0.36, 0.12), (0.64, 0.12), (0.66, 0.3), (0.54, 0.3), (0.53, 0.9),
         (0.42, 0.9), (0.47, 0.3), (0.34, 0.3)],
    ],
    2: [  # pullover: torso + long sleeves
        _rect(0.34, 0.22, 0.66, 0.82),
        [(0.34, 0.22), (0.16, 0.3), (0.12, 0.72), (0.24, 0.72), (0.34, 0.4)],
        [(0.66, 0.22), (0.84, 0.3), (0.88, 0.72), (0.76, 0.72), (0.66, 0.4)],
    ],
    3: [  # dress: fitted top flaring out
        [(0.42, 0.12), (0.58, 0.12), (0.62, 0.4), (0.74, 0.88),
         (0.26, 0.88), (0.38, 0.4)],
    ],
    4: [  # coat: like pullover but open front and longer
        _rect(0.32, 0.18, 0.49, 0.9),
        _rect(0.51, 0.18, 0.68, 0.9),
        [(0.32, 0.18), (0.15, 0.28), (0.12, 0.78), (0.23, 0.78), (0.32, 0.4)],
        [(0.68, 0.18), (0.85, 0.28), (0.88, 0.78), (0.77, 0.78), (0.68, 0.4)],
    ],
    5: [  # sandal: sole + straps
        [(0.15, 0.7), (0.85, 0.62), (0.88, 0.74), (0.16, 0.8)],
        _rect(0.3, 0.45, 0.38, 0.68),
        _rect(0.58, 0.42, 0.66, 0.64),
    ],
    6: [  # shirt: t-shirt with collar wedge (subtly different)
        _rect(0.33, 0.24, 0.67, 0.86),
        [(0.33, 0.24), (0.15, 0.33), (0.21, 0.48), (0.33, 0.42)],
        [(0.67, 0.24), (0.85, 0.33), (0.79, 0.48), (0.67, 0.42)],
        [(0.45, 0.24), (0.5, 0.34), (0.55, 0.24)],
    ],
    7: [  # sneaker: low profile with toe curve
        [(0.12, 0.72), (0.3, 0.5), (0.55, 0.48), (0.88, 0.6),
         (0.88, 0.76), (0.12, 0.78)],
    ],
    8: [  # bag: body + handle
        _rect(0.25, 0.42, 0.75, 0.85),
        [(0.35, 0.42), (0.38, 0.25), (0.62, 0.25), (0.65, 0.42),
         (0.58, 0.42), (0.56, 0.32), (0.44, 0.32), (0.42, 0.42)],
    ],
    9: [  # ankle boot: sneaker plus shaft
        [(0.12, 0.74), (0.3, 0.55), (0.52, 0.52), (0.88, 0.62),
         (0.88, 0.78), (0.12, 0.8)],
        _rect(0.3, 0.25, 0.52, 0.56),
    ],
}


#: Foreground shapes for cifar5_like's five classes (airplane, automobile,
#: bird, cat, deer in spirit: cross, slab, wedge, blob-with-ears, tall blob).
CIFAR5_SHAPES: dict[int, list[Polygon]] = {
    0: [  # airplane: fuselage + wings
        _rect(0.2, 0.46, 0.8, 0.56),
        [(0.42, 0.2), (0.52, 0.2), (0.56, 0.8), (0.46, 0.8)],
    ],
    1: [  # automobile: body + cabin
        _rect(0.15, 0.5, 0.85, 0.72),
        [(0.3, 0.5), (0.38, 0.34), (0.66, 0.34), (0.72, 0.5)],
    ],
    2: [  # bird: body wedge + wing
        [(0.2, 0.55), (0.55, 0.35), (0.8, 0.5), (0.6, 0.68), (0.3, 0.68)],
        [(0.45, 0.45), (0.7, 0.25), (0.6, 0.5)],
    ],
    3: [  # cat: round head + ears
        [(0.3, 0.45), (0.36, 0.3), (0.44, 0.42), (0.58, 0.42), (0.66, 0.3),
         (0.7, 0.45), (0.68, 0.62), (0.5, 0.72), (0.32, 0.62)],
    ],
    4: [  # deer: tall body + head
        _rect(0.38, 0.35, 0.62, 0.8),
        [(0.42, 0.35), (0.36, 0.18), (0.5, 0.28), (0.64, 0.18), (0.58, 0.35)],
    ],
}

#: Mean background/foreground RGB per cifar5_like class; heavily jittered at
#: sample time so colour alone is an unreliable cue.
CIFAR5_COLORS: dict[int, tuple[np.ndarray, np.ndarray]] = {
    0: (np.array([0.55, 0.7, 0.9]), np.array([0.75, 0.75, 0.8])),   # sky
    1: (np.array([0.5, 0.5, 0.52]), np.array([0.7, 0.25, 0.25])),   # road
    2: (np.array([0.6, 0.75, 0.85]), np.array([0.45, 0.35, 0.3])),  # sky
    3: (np.array([0.55, 0.5, 0.45]), np.array([0.6, 0.5, 0.4])),    # indoor
    4: (np.array([0.35, 0.55, 0.35]), np.array([0.5, 0.38, 0.28])), # field
}


def render_silhouette(
    polygons: list[Polygon],
    size: int,
    rng: np.random.Generator,
    jitter: float = 1.0,
) -> np.ndarray:
    """Union of jittered filled polygons as a float image in [0, 1]."""
    rotation = rng.uniform(-0.12, 0.12) * jitter
    scale = 1.0 + rng.uniform(-0.12, 0.12) * jitter
    translate = (
        rng.uniform(-0.05, 0.05) * jitter,
        rng.uniform(-0.05, 0.05) * jitter,
    )
    mask = np.zeros((size, size), dtype=bool)
    for polygon in polygons:
        moved = transform_polygon(polygon, rotation, scale, translate)
        mask |= fill_polygon(moved, size)
    return mask.astype(np.float32)


def perlin_like_texture(
    size: int, rng: np.random.Generator, octaves: int = 3
) -> np.ndarray:
    """Cheap multi-scale value noise in [0, 1] (bilinear-upsampled grids)."""
    texture = np.zeros((size, size), dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    for octave in range(octaves):
        cells = max(2, 2 ** (octave + 1))
        coarse = rng.random((cells, cells))
        # bilinear upsample to size×size
        src = np.linspace(0, cells - 1, size)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, cells - 1)
        frac = src - i0
        rows = (
            coarse[i0][:, i0] * np.outer(1 - frac, 1 - frac)
            + coarse[i0][:, i1] * np.outer(1 - frac, frac)
            + coarse[i1][:, i0] * np.outer(frac, 1 - frac)
            + coarse[i1][:, i1] * np.outer(frac, frac)
        )
        texture += amplitude * rows
        total += amplitude
        amplitude *= 0.5
    return (texture / total).astype(np.float32)
