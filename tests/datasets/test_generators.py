"""Dataset generators: shapes, determinism, balance, difficulty ordering."""

import numpy as np
import pytest

from repro.datasets import (
    EVALUATION_DATASETS,
    Dataset,
    dataset_features,
    dataset_names,
    load,
)
from repro.errors import ConfigurationError

SMALL = {"n_train": 200, "n_test": 60}


class TestRegistry:
    def test_all_four_registered(self):
        assert set(dataset_names()) == {
            "digits_like", "mnist_like", "fashion_like", "cifar5_like"
        }

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            load("imagenet")
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            dataset_features("imagenet")

    def test_memoization_returns_same_object(self):
        a = load("digits_like", **SMALL, seed=5)
        b = load("digits_like", **SMALL, seed=5)
        assert a is b

    def test_evaluation_datasets_are_the_paper_trio(self):
        assert EVALUATION_DATASETS == (
            "mnist_like", "fashion_like", "cifar5_like"
        )


@pytest.mark.parametrize(
    "name,features,classes,shape",
    [
        ("digits_like", 64, 10, (8, 8)),
        ("mnist_like", 784, 10, (28, 28)),
        ("fashion_like", 784, 10, (28, 28)),
        ("cifar5_like", 3072, 5, (32, 32, 3)),
    ],
)
class TestGeneratorContracts:
    def test_shapes_and_metadata(self, name, features, classes, shape):
        ds = load(name, **SMALL, seed=1)
        assert ds.num_features == features
        assert ds.num_classes == classes
        assert ds.image_shape == shape
        assert ds.x_train.shape == (SMALL["n_train"], features)
        assert ds.x_test.shape == (SMALL["n_test"], features)
        assert ds.x_train.dtype == np.float32

    def test_registered_features_match_generated(
        self, name, features, classes, shape
    ):
        assert dataset_features(name) == features
        assert load(name, **SMALL, seed=1).num_features == features

    def test_values_in_unit_range(self, name, features, classes, shape):
        ds = load(name, **SMALL, seed=1)
        assert float(ds.x_train.min()) >= 0.0
        assert float(ds.x_train.max()) <= 1.0

    def test_deterministic_under_seed(self, name, features, classes, shape):
        a = load(name, n_train=40, n_test=10, seed=7)
        b_fn = {
            "digits_like": "make_digits_like",
            "mnist_like": "make_mnist_like",
            "fashion_like": "make_fashion_like",
            "cifar5_like": "make_cifar5_like",
        }[name]
        import repro.datasets as d
        b = getattr(d, b_fn)(n_train=40, n_test=10, seed=7)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)

    def test_different_seeds_differ(self, name, features, classes, shape):
        a = load(name, n_train=30, n_test=10, seed=1)
        b = load(name, n_train=30, n_test=10, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_prefixes_are_class_balanced(self, name, features, classes,
                                         shape):
        ds = load(name, **SMALL, seed=1)
        counts = np.bincount(ds.y_train[: classes * 4],
                             minlength=classes)
        assert (counts == 4).all()

    def test_classes_are_separable_by_centroids(
        self, name, features, classes, shape
    ):
        # A trivially weak classifier must still beat chance by a wide
        # margin, or the dataset carries no class signal.
        ds = load(name, n_train=400, n_test=100, seed=1)
        centroids = np.stack(
            [
                ds.x_train[ds.y_train == c].mean(axis=0)
                for c in range(classes)
            ]
        )
        distances = (
            ((ds.x_test[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        )
        predictions = distances.argmin(axis=1)
        assert (predictions == ds.y_test).mean() > 2.0 / classes


class TestDatasetContainer:
    def test_validation_split_partitions(self):
        ds = load("digits_like", **SMALL, seed=1)
        x_tr, y_tr, x_val, y_val = ds.split_validation(0.25, seed=0)
        assert len(x_tr) + len(x_val) == len(ds.x_train)
        assert len(x_val) == int(len(ds.x_train) * 0.25)
        assert len(x_tr) == len(y_tr)

    def test_validation_split_is_deterministic(self):
        ds = load("digits_like", **SMALL, seed=1)
        a = ds.split_validation(0.2, seed=3)
        b = ds.split_validation(0.2, seed=3)
        assert np.array_equal(a[0], b[0])

    def test_invalid_fraction(self):
        ds = load("digits_like", **SMALL, seed=1)
        with pytest.raises(ConfigurationError):
            ds.split_validation(0.0)

    def test_subset(self):
        ds = load("digits_like", **SMALL, seed=1)
        sub = ds.subset(50, 20)
        assert len(sub.x_train) == 50
        assert len(sub.x_test) == 20

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(
                name="bad",
                x_train=np.zeros((3, 4), np.float32),
                y_train=np.zeros(2, np.int64),
                x_test=np.zeros((1, 4), np.float32),
                y_test=np.zeros(1, np.int64),
                num_classes=2,
                image_shape=(2, 2),
            )


def test_difficulty_ordering_matches_paper():
    """mnist < fashion < cifar5 in difficulty, measured by one fixed small
    trained classifier, chance-normalized across class counts."""
    from repro.nn import (
        ActivationLayer, Adam, DenseLayer, Sequential, TrainConfig, Trainer,
    )

    scores = {}
    for name in EVALUATION_DATASETS:
        ds = load(name, n_train=800, n_test=200, seed=2)
        x_tr, y_tr, x_val, y_val = ds.split_validation(seed=0)
        rng = np.random.default_rng(0)
        model = Sequential(
            [DenseLayer(ds.num_features, 16, rng), ActivationLayer("relu"),
             DenseLayer(16, ds.num_classes, rng)]
        )
        Trainer(model, Adam(0.003), rng=np.random.default_rng(1)).fit(
            x_tr, y_tr, x_val, y_val, TrainConfig(epochs=12)
        )
        raw = model.accuracy(ds.x_test, ds.y_test)
        scores[name] = (raw - 1 / ds.num_classes) / (1 - 1 / ds.num_classes)
    assert scores["mnist_like"] > scores["fashion_like"]
    assert scores["fashion_like"] > scores["cifar5_like"]
