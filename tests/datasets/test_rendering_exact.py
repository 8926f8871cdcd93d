"""Fast stroke and polygon rendering is bit-identical to the reference.

The oracles below are the straightforward formulas: a Gaussian pen
evaluated at every pixel × point and max-composited, and an even-odd
fill that walks the polygon one edge at a time.  The library renders the
same arrays with one ``exp`` per pixel, pre-sampled digit templates and
an edge-vectorized fill; every comparison here is exact.
"""

import numpy as np
import pytest

import repro.datasets.base as base
from repro.datasets import load, shapes, strokes


def reference_rasterize(points, size, pen_sigma):
    grid = (np.arange(size) + 0.5) / size
    gx, gy = np.meshgrid(grid, grid)
    dx = gx.reshape(-1, 1) - points[None, :, 0].reshape(1, -1)
    dy = gy.reshape(-1, 1) - points[None, :, 1].reshape(1, -1)
    intensity = np.exp(-(dx * dx + dy * dy) / (2.0 * pen_sigma**2))
    image = intensity.max(axis=1).reshape(size, size)
    return image.astype(np.float32)


def reference_fill(vertices, size):
    poly = np.asarray(vertices, dtype=np.float64)
    grid = (np.arange(size) + 0.5) / size
    gx, gy = np.meshgrid(grid, grid)
    px, py = gx.ravel(), gy.ravel()
    inside = np.zeros(px.shape, dtype=bool)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    for ax, ay, bx, by in zip(x0, y0, x1, y1):
        crosses = (ay > py) != (by > py)
        if not crosses.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = ax + (py - ay) / (by - ay) * (bx - ax)
        inside ^= crosses & (px < x_at)
    return inside.reshape(size, size)


def reference_template_points(digit, variant, size):
    """Samples the template afresh on every call, as rendering once did."""
    styles = [strokes.DIGIT_TEMPLATES[digit]]
    styles.extend(strokes.DIGIT_STYLE_VARIANTS.get(digit, []))
    return np.concatenate([
        strokes.sample_polyline(polyline, spacing=0.35 / size)
        for polyline in styles[variant]
    ])


class TestRasterizeExact:
    @pytest.mark.parametrize("size", [8, 28, 32])
    @pytest.mark.parametrize("sigma_px", [0.3, 0.62, 0.95, 2.5])
    def test_random_point_clouds(self, size, sigma_px):
        rng = np.random.default_rng([size, int(sigma_px * 100)])
        for n in (1, 2, 7, 60, 400):
            # Some points fall outside the unit square on purpose.
            points = rng.uniform(-0.3, 1.3, size=(n, 2))
            assert np.array_equal(
                strokes.rasterize_points(points, size, sigma_px / size),
                reference_rasterize(points, size, sigma_px / size),
            )

    def test_single_point_at_pixel_centre_is_full_intensity(self):
        points = np.array([[0.5 / 28, 0.5 / 28]])
        image = strokes.rasterize_points(points, 28, 0.62 / 28)
        assert image[0, 0] == 1.0
        assert np.array_equal(image, reference_rasterize(points, 28, 0.62 / 28))

    def test_points_far_outside_render_black(self):
        points = np.array([[5.0, 5.0], [-4.0, 0.5]])
        image = strokes.rasterize_points(points, 8, 0.1)
        assert not image.any()
        assert np.array_equal(image, reference_rasterize(points, 8, 0.1))

    def test_rendered_digits(self):
        rng = np.random.default_rng(3)
        for digit in range(10):
            for size in (8, 28):
                points = strokes.transform_points(
                    reference_template_points(digit, 0, size),
                    strokes.affine_matrix(rotation=rng.uniform(-0.3, 0.3)),
                )
                assert np.array_equal(
                    strokes.rasterize_points(points, size, 0.62 / size),
                    reference_rasterize(points, size, 0.62 / size),
                )


class TestFillPolygonExact:
    @pytest.mark.parametrize("size", [8, 28, 32])
    def test_random_polygons(self, size):
        rng = np.random.default_rng(size)
        for n_vertices in (3, 4, 5, 9, 16):
            for _ in range(20):
                vertices = rng.uniform(-0.2, 1.2, size=(n_vertices, 2))
                polygon = [tuple(v) for v in vertices]
                assert np.array_equal(
                    shapes.fill_polygon(polygon, size),
                    reference_fill(polygon, size),
                )

    @pytest.mark.parametrize("size", [8, 28, 32])
    def test_horizontal_and_degenerate_edges(self, size):
        centre = 0.5 / size  # exactly on the first pixel row's centre line
        polygons = [
            [(0.1, 0.2), (0.9, 0.2), (0.9, 0.8), (0.1, 0.8)],
            [(0.1, centre), (0.9, centre), (0.5, 0.9)],
            [(0.2, 0.2), (0.2, 0.2), (0.8, 0.5), (0.2, 0.8)],  # repeated
            [(0.3, 0.3), (0.7, 0.3), (0.7, 0.3), (0.3, 0.3)],  # zero area
            [(0.5, 0.1), (0.5, 0.9), (0.5, 0.5)],              # a line
            [(0.1, 0.1), (0.9, 0.9), (0.9, 0.1), (0.1, 0.9)],  # bow-tie
        ]
        for polygon in polygons:
            assert np.array_equal(
                shapes.fill_polygon(polygon, size),
                reference_fill(polygon, size),
            ), polygon

    def test_horizontal_edge_on_a_row_centre_does_not_cross(self):
        row = 3.5 / 8
        flat = [(0.0, row), (1.0, row), (1.0, 1.0), (0.0, 1.0)]
        mask = shapes.fill_polygon(flat, 8)
        assert not mask[:3].any() and mask[4:].all()


@pytest.mark.parametrize(
    "name", ["digits_like", "mnist_like", "fashion_like", "cifar5_like"]
)
def test_generators_match_the_reference_renderers(name, monkeypatch):
    monkeypatch.setattr(base, "_CACHE", {})
    fast = load(name, n_train=60, n_test=20, seed=11)

    monkeypatch.setattr(base, "_CACHE", {})
    monkeypatch.setattr(strokes, "rasterize_points", reference_rasterize)
    monkeypatch.setattr(strokes, "_template_points", reference_template_points)
    monkeypatch.setattr(shapes, "fill_polygon", reference_fill)
    slow = load(name, n_train=60, n_test=20, seed=11)

    assert fast is not slow
    for field in ("x_train", "y_train", "x_test", "y_test"):
        assert np.array_equal(getattr(fast, field), getattr(slow, field))


class TestTemplateMemo:
    def test_points_match_fresh_sampling_and_are_read_only(self):
        for digit in range(10):
            for variant in range(len(strokes._styles(digit))):
                for size in (8, 28):
                    points = strokes._template_points(digit, variant, size)
                    assert not points.flags.writeable
                    assert np.array_equal(
                        points, reference_template_points(digit, variant, size)
                    )
                    with pytest.raises(ValueError):
                        points[0, 0] = 0.0

    def test_stroke_dropout_never_writes_into_the_memo(self):
        memo = {
            (digit, variant): strokes._template_points(digit, variant, 28)
            for digit in range(10)
            for variant in range(len(strokes._styles(digit)))
        }
        before = {key: points.copy() for key, points in memo.items()}
        rng = np.random.default_rng(0)
        for i in range(60):
            strokes.render_digit(
                i % 10, 28, rng, stroke_dropout=1.0, distractor_prob=1.0
            )
        for key, points in memo.items():
            assert strokes._template_points(*key, 28) is points
            assert np.array_equal(points, before[key])
