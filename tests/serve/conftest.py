"""Serve-test fixtures: one small verified artifact, shared, plus the
statically derived lock order the soak tests assert at runtime."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.concurrency import analyze_paths, sanitizer_for_report
from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.serve import ModelRegistry


@pytest.fixture(scope="session")
def serve_registry():
    return ModelRegistry()


@pytest.fixture(scope="session")
def small_trained(digits_small):
    """A deliberately tiny model so interpreted inference stays fast."""
    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=(16,), threshold=0.85,
        name="serve-small", seed=0,
    )
    return train_neuroc(config, digits_small, epochs=10, lr=0.01)


@pytest.fixture(scope="session")
def small_artifact(serve_registry, small_trained):
    return serve_registry.register(small_trained.quantized)


@pytest.fixture(scope="session")
def serve_concurrency_report():
    """Static concurrency analysis of repro.serve, computed once."""
    return analyze_paths([Path(repro.__file__).parent / "serve"])


@pytest.fixture
def lock_sanitizer(serve_concurrency_report):
    """A strict runtime lock-order sanitizer for one test.

    Strict mode asserts the static model exactly.  The serve graph has
    no edges — the runtime lock is the only lock a replay takes, and
    its metrics and tracer hold none — so any nesting of two sanitized
    locks is a violation.
    The teardown assertion makes every soak replay that instruments
    its runtime also validate acquisition order.
    """
    sanitizer = sanitizer_for_report(serve_concurrency_report,
                                     strict=True)
    yield sanitizer
    assert sanitizer.violations == [], sanitizer.report()
